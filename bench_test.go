// Benchmarks regenerating every table and figure in the paper's evaluation
// (testing.B over the experiment registry, Quick configuration), plus
// micro-benchmarks of the substrates that bound experiment runtime.
//
//	go test -bench=. -benchmem
package thinbench_test

import (
	"testing"

	"thinbench"
	"thinbench/internal/bitmapcache"
	"thinbench/internal/display"
	"thinbench/internal/proto"
	"thinbench/internal/proto/protos"
	"thinbench/internal/sched"
	"thinbench/internal/simclock"
	"thinbench/internal/workload"
)

// benchExperiment regenerates one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := thinbench.QuickConfig()
		cfg.Seed = uint64(1999 + i)
		if _, err := thinbench.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkFig1IdleActivity(b *testing.B)       { benchExperiment(b, "fig1") }
func BenchmarkFig2CumulativeIdle(b *testing.B)     { benchExperiment(b, "fig2") }
func BenchmarkFig3StallVsLoad(b *testing.B)        { benchExperiment(b, "fig3") }
func BenchmarkFig4WebAnimations(b *testing.B)      { benchExperiment(b, "fig4") }
func BenchmarkFig5AnimationProtocols(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFig6CacheOverflow(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkFig7CacheCliff(b *testing.B)         { benchExperiment(b, "fig7") }
func BenchmarkFig8RTTvsLoad(b *testing.B)          { benchExperiment(b, "fig8") }
func BenchmarkFig9JitterVsLoad(b *testing.B)       { benchExperiment(b, "fig9") }

func BenchmarkTab1SystemMemory(b *testing.B)       { benchExperiment(b, "tab1") }
func BenchmarkTab2SessionMemory(b *testing.B)      { benchExperiment(b, "tab2") }
func BenchmarkTab3PagingLatency(b *testing.B)      { benchExperiment(b, "tab3") }
func BenchmarkTab4SessionSetup(b *testing.B)       { benchExperiment(b, "tab4") }
func BenchmarkTab5ProtocolComparison(b *testing.B) { benchExperiment(b, "tab5") }
func BenchmarkTab6VIPSavings(b *testing.B)         { benchExperiment(b, "tab6") }

// Ablations beyond the paper.

func BenchmarkAblationLoopAwareCache(b *testing.B)       { benchExperiment(b, "abl1") }
func BenchmarkAblationInteractiveScheduler(b *testing.B) { benchExperiment(b, "abl2") }
func BenchmarkAblationMemoryReservation(b *testing.B)    { benchExperiment(b, "abl3") }
func BenchmarkAblationQuantumStretch(b *testing.B)       { benchExperiment(b, "abl4") }
func BenchmarkAblationRelatedWorkProtocols(b *testing.B) { benchExperiment(b, "abl5") }
func BenchmarkCapacityByProfile(b *testing.B)            { benchExperiment(b, "cap1") }

// Substrate micro-benchmarks.

func BenchmarkSchedulerDispatch(b *testing.B) {
	eng := simclock.NewEngine()
	cpu := sched.NewCPU(eng, sched.NewNT(1))
	threads := make([]*sched.Thread, 16)
	for i := range threads {
		threads[i] = cpu.NewThread(4 + i%8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu.Submit(threads[i%len(threads)], &sched.WorkItem{CPU: 100 * simclock.Microsecond})
		if i%64 == 63 {
			eng.RunFor(100 * simclock.Millisecond)
		}
	}
	eng.RunFor(simclock.Minute)
}

// benchEncode times the named codec encoding one reused tape — a fill, a
// text line and a bitmap — into one reused scratch, as the simulator's
// echo path encodes.
func benchEncode(b *testing.B, name string, img *display.Bitmap) {
	srv, _, _, err := protos.New(name)
	if err != nil {
		b.Fatal(err)
	}
	var tape display.OpTape
	tape.Fill(display.Rect{X: 0, Y: 0, W: 300, H: 200}, 2)
	tape.Text(10, 10, "benchmark text", 1)
	tape.Blit(50, 50, img)
	var sc proto.Scratch
	var bytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range srv.Update(&tape, 0, tape.Len(), &sc) {
			bytes += int64(m.Size())
		}
	}
	b.SetBytes(bytes / int64(b.N))
}

func BenchmarkRDPEncodeUpdate(b *testing.B) {
	benchEncode(b, "rdp", display.SyntheticPhoto(1, 0, 64, 64))
}

func BenchmarkXEncodeUpdate(b *testing.B) {
	benchEncode(b, "x", display.SyntheticPhoto(1, 0, 64, 64))
}

func BenchmarkLBXEncodeUpdate(b *testing.B) {
	benchEncode(b, "lbx", display.SyntheticFrame(1, 0, 64, 64))
}

func BenchmarkBitmapCacheFetch(b *testing.B) {
	c := bitmapcache.NewDefault()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fetch(bitmapcache.Key(i%128), 12*1024)
	}
}

func BenchmarkProtocolRoundTrip(b *testing.B) {
	srv, cli, _, err := protos.New("rdp")
	if err != nil {
		b.Fatal(err)
	}
	var tape display.OpTape
	tape.Blit(10, 10, display.SyntheticPhoto(3, 0, 64, 64))
	var sc proto.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range srv.Update(&tape, 0, tape.Len(), &sc) {
			if err := cli.Apply(m); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkOfficeTraceGeneration(b *testing.B) {
	cfg := workload.DefaultOfficeConfig()
	cfg.TypingChars = 300
	cfg.PaintStrokes = 12
	cfg.PanelActions = 4
	cfg.ReviewScrolls = 40
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := workload.OfficeTrace(cfg)
		if tr.Ops() == 0 {
			b.Fatal("empty trace")
		}
	}
}
