package core

import (
	"fmt"
	"math"

	"thinbench/internal/metrics"
	"thinbench/internal/sched"
	"thinbench/internal/simclock"
	"thinbench/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Idle-state processor activity over 10 s (NT Workstation, TSE, Linux)",
		Paper: "TSE shows markedly more idle activity than NT; Linux the least. Clock spikes every 10 ms.",
		Run:   runFig1,
	})
	register(Experiment{
		ID:    "fig2",
		Title: "Cumulative idle-state latency vs event length over 600 s",
		Paper: "NT events all <=100 ms; TSE adds 250/400 ms events; totals TSE ~= 3x NT ~= 7x Linux.",
		Run:   runFig2,
	})
	register(Experiment{
		ID:    "fig3",
		Title: "Average interactive stall vs scheduler queue length (20 Hz repeat)",
		Paper: "TSE blows up near load 10, unusable by 15; Linux degrades linearly and more slowly.",
		Run:   runFig3,
	})
	register(Experiment{
		ID:    "abl2",
		Title: "Ablation: SVR4 interactive-class scheduler on the fig3 sweep",
		Paper: "Evans et al.: keystroke latency stays constant and small as load approaches 20.",
		Run:   runAbl2,
	})
	register(Experiment{
		ID:    "abl4",
		Title: "Ablation: TSE quantum stretch factor x1/x2/x3 on the fig3 sweep",
		Paper: "The paper's 'latency catch-22': longer quanta deepen queue waits behind CPU-bound peers.",
		Run:   runAbl4,
	})
}

// idleSystems pairs each system with its idle profile and scheduler.
func idleSystems() []struct {
	sys     System
	profile sched.IdleProfile
	mk      func() *sched.Policy
} {
	nt := func() *sched.Policy { return sched.NewNT(1) }
	return []struct {
		sys     System
		profile sched.IdleProfile
		mk      func() *sched.Policy
	}{
		{SystemNTWorkstation, sched.NTIdleProfile(), nt},
		{SystemTSE, sched.TSEIdleProfile(), nt},
		{SystemLinuxX, sched.LinuxIdleProfile(), sched.NewRR},
	}
}

// idleTrace runs an idle CPU under policy and profile for span, a second
// at a time, and returns each second's utilization, the change in Busy
// over the second, as Figure 1 plots it, with the CPU.
func idleTrace(policy *sched.Policy, profile sched.IdleProfile, span simclock.Duration) ([]float64, *sched.CPU) {
	eng := simclock.NewEngine()
	cpu := sched.NewCPU(eng, policy)
	profile.Install(cpu)
	util := make([]float64, 0, span/simclock.Second)
	var last simclock.Duration
	for at := simclock.Time(simclock.Second); at <= simclock.Time(span); at = at.Add(simclock.Second) {
		eng.RunUntil(at)
		busy := cpu.Busy()
		util = append(util, float64(busy-last)/float64(simclock.Second))
		last = busy
	}
	return util, cpu
}

func runFig1(cfg Config) (*Result, error) {
	res := &Result{ID: "fig1", Title: "Idle-state CPU activity"}
	span := 10 * simclock.Second
	means := map[System]float64{}
	for _, s := range idleSystems() {
		y, cpu := idleTrace(s.mk(), s.profile, span)
		x := make([]float64, len(y))
		for i := range x {
			x[i] = float64(i)
		}
		res.Series = append(res.Series, Series{
			Label: string(s.sys), XLabel: "time (sec)", YLabel: "CPU utilization",
			X: x, Y: y,
		})
		res.Notef("%s: mean idle utilization %.4f", s.sys, float64(cpu.BusyTotal())/float64(span))
		means[s.sys] = mean(y)
	}
	res.Claims = []Claim{
		{ID: "fig1.nt_over_linux", Statement: "NT Workstation's mean idle utilization over Linux's: NT idles busier",
			Value: means[SystemNTWorkstation] / means[SystemLinuxX], Unit: "x", Band: above(1)},
		{ID: "fig1.tse_over_nt", Statement: "TSE's mean idle utilization over NT Workstation's: TSE idles busier still",
			Value: means[SystemTSE] / means[SystemNTWorkstation], Unit: "x", Band: above(1)},
	}
	return res, nil
}

func mean(ys []float64) float64 {
	var sum float64
	for _, y := range ys {
		sum += y
	}
	return sum / float64(len(ys))
}

// at is the y value of the series point at x, NaN when there is none.
func at(x, y []float64, want float64) float64 {
	for i := range x {
		if x[i] == want {
			return y[i]
		}
	}
	return math.NaN()
}

func runFig2(cfg Config) (*Result, error) {
	res := &Result{ID: "fig2", Title: "Cumulative idle-state latency"}
	span := 600 * simclock.Second
	if cfg.Quick {
		span = 60 * simclock.Second
	}
	totals := map[System]float64{}
	curves := map[System]Series{}
	for _, s := range idleSystems() {
		// Endo et al.'s lost-time method: every busy event's length, in
		// 10 ms buckets out to 600 ms, and the busy time they add up to.
		eng := simclock.NewEngine()
		cpu := sched.NewCPU(eng, s.mk())
		hist := metrics.NewHistogram(10, 60)
		var total simclock.Duration
		cpu.OnItemDone = func(rec sched.ItemRecord) {
			hist.Add(rec.CPU.Milliseconds())
			total += rec.CPU
		}
		s.profile.Install(cpu)
		eng.RunFor(span)
		// Each bucket's upper edge against the busy seconds of the events
		// no longer than it.
		weighted := hist.CumulativeWeighted()
		x := make([]float64, len(weighted))
		y := make([]float64, len(weighted))
		for i, w := range weighted {
			x[i], y[i] = hist.BucketLow(i+1), w/1000
		}
		curves[s.sys] = Series{
			Label: string(s.sys), XLabel: "latency (msec)", YLabel: "cumulative latency (sec)",
			X: x, Y: y,
		}
		res.Series = append(res.Series, curves[s.sys])
		totals[s.sys] = total.Seconds()
	}
	final := func(sys System) float64 { return curves[sys].Y[len(curves[sys].Y)-1] }
	tse, nt := curves[SystemTSE], curves[SystemNTWorkstation]
	res.Claims = []Claim{
		{ID: "fig2.tse_over_nt", Statement: "TSE's cumulative idle latency over NT Workstation's",
			Value: final(SystemTSE) / final(SystemNTWorkstation), Unit: "x", Band: within(2.4, 3.6), Paper: 3},
		{ID: "fig2.tse_over_linux", Statement: "TSE's cumulative idle latency over Linux's",
			Value: final(SystemTSE) / final(SystemLinuxX), Unit: "x", Band: within(5, 9), Paper: 7},
		{ID: "fig2.tse_long_events", Statement: "TSE's curve climbs from 200 to 450 ms: its 250/400 ms Terminal Service events",
			Value: at(tse.X, tse.Y, 450) - at(tse.X, tse.Y, 200), Unit: "s", Band: above(0)},
		{ID: "fig2.nt_short_events", Statement: "NT Workstation's total over its cumulative latency at 110 ms: all its events are short",
			Value: final(SystemNTWorkstation) / at(nt.X, nt.Y, 110), Unit: "x", Band: atMost(1.001)},
	}
	res.Notef("aggregate idle load: TSE %.1fs, NT %.1fs, Linux %.1fs over %v",
		totals[SystemTSE], totals[SystemNTWorkstation], totals[SystemLinuxX], span)
	res.Notef("ratios: TSE/NT = %.2f (paper ~3), TSE/Linux = %.2f (paper ~7)",
		totals[SystemTSE]/totals[SystemNTWorkstation], totals[SystemTSE]/totals[SystemLinuxX])
	return res, nil
}

// pipelineKind selects the keystroke-handling pipeline model.
type pipelineKind int

const (
	pipeTSE pipelineKind = iota
	pipeLinux
	pipeSVR4
)

// stallConfig parameterizes one fig3-style measurement run.
type stallConfig struct {
	kind    pipelineKind
	sinks   int
	span    simclock.Duration
	stretch int // TSE quantum stretch
}

// Fig3's per-item CPU costs. A keystroke that finds an echo still queued
// joins it for echoJoinCPU more, and an echo that finds an encode still
// queued joins it for encodeJoinCPU more.
const (
	echoCPU       = 1200 * simclock.Microsecond
	echoJoinCPU   = 150 * simclock.Microsecond
	encodeCPU     = 1500 * simclock.Microsecond
	encodeJoinCPU = 200 * simclock.Microsecond
)

// stallPipeline is the paper's Figure 3 keystroke pipeline on one CPU:
// each keystroke is an echo on the editor thread, each echo an encode on
// the display thread, and each encode's completion one display message.
// Both stages batch, as the X server and the TSE display driver process
// every pending damage region in one pass: work that finds its thread
// still holding an unstarted item joins that item instead of queueing
// another, so a stage that waits behind CPU-bound peers ships one larger
// update. A thread holding a queued item is ready or running, so the
// skipped submission would have woken nothing.
//
// Pipelines:
//
//	TSE:   keystroke -> editor GUI thread (base 9, wake-boosted to 15) ->
//	       kernel display/RDP encode worker (priority 8) -> message.
//	       Sinks run at priority 8 as session-foreground threads
//	       (stretched quanta). The editor echoes instantly thanks to the
//	       boost; the encode worker round-robins behind the sinks, which is
//	       the modeled mechanism for the paper's TSE collapse.
//	Linux: keystroke -> vim -> X server -> message, all plain round-robin
//	       peers of the sinks, 10 ms quanta.
//	SVR4:  the Linux pipeline on the interactive-class policy.
//
// Both pipeline threads are marked Interactive under every policy; only
// the SVR4 class reads the mark.
type stallPipeline struct {
	cpu             *sched.CPU
	editor, encoder *sched.Thread
	// echo and encode are the last items submitted to each thread, so
	// while the thread holds an unstarted item it is this one.
	echo, encode *sched.WorkItem
	// lastUpdate is the last display message's completion instant, 0 until
	// the first: the stream starts nominally. stalls holds each message's
	// stall, in ms.
	lastUpdate simclock.Time
	stalls     metrics.Summary

	echoDoneFn, encodeDoneFn simclock.Func
}

// updateCadence is the display-update period a 20 Hz repeating key asks
// for: a gap between updates longer than it is a stall.
const updateCadence = 50 * simclock.Millisecond

// newStallPipeline builds cfg's CPU, pipeline threads and sinks on eng.
func newStallPipeline(eng *simclock.Engine, cfg stallConfig) *stallPipeline {
	p := &stallPipeline{}
	p.echoDoneFn, p.encodeDoneFn = p.echoDone, p.encodeDone
	if cfg.kind == pipeTSE {
		stretch := 3
		if cfg.stretch > 0 {
			stretch = cfg.stretch
		}
		nt := sched.NewNT(stretch)
		p.cpu = sched.NewCPU(eng, nt)
		nt.InstallBalanceSet(eng)
		p.editor = p.cpu.NewThread(9) // notepad
		p.editor.GUIBoost = true
		p.editor.Foreground = true
		p.encoder = p.cpu.NewThread(8) // the RDP display driver
	} else {
		policy := sched.NewRR()
		if cfg.kind == pipeSVR4 {
			policy = sched.NewSVR4IA()
		}
		p.cpu = sched.NewCPU(eng, policy)
		p.editor = p.cpu.NewThread(0)  // vim
		p.encoder = p.cpu.NewThread(0) // the X server
	}
	p.editor.Interactive = true
	p.encoder.Interactive = true

	// Sinks: greedy CPU consumers, one scheduler-queue unit each.
	for i := 0; i < cfg.sinks; i++ {
		s := p.cpu.NewThread(8)
		if cfg.kind == pipeTSE {
			s.Foreground = true // session foreground threads get stretched quanta
		}
		it := p.cpu.Acquire()
		it.CPU = simclock.Duration(1e15)
		p.cpu.Submit(s, it)
	}
	return p
}

// keystroke queues one echo, or joins the echo the editor still holds.
func (p *stallPipeline) keystroke(simclock.Time, int, int) {
	if p.editor.QueueLen() > 0 {
		p.echo.CPU += echoJoinCPU
		return
	}
	p.echo = p.cpu.Acquire()
	p.echo.CPU, p.echo.OnDone = echoCPU, p.echoDoneFn
	p.cpu.Submit(p.editor, p.echo)
}

// echoDone queues the echo's encode, or joins the encode the display
// thread still holds.
func (p *stallPipeline) echoDone(simclock.Time, int, int) {
	if p.encoder.QueueLen() > 0 {
		p.encode.CPU += encodeJoinCPU
		return
	}
	p.encode = p.cpu.Acquire()
	p.encode.CPU, p.encode.OnDone = encodeCPU, p.encodeDoneFn
	p.cpu.Submit(p.encoder, p.encode)
}

// encodeDone is one display message: its stall is the gap since the last
// one less the nominal cadence, and an early message stalls 0.
func (p *stallPipeline) encodeDone(now simclock.Time, _, _ int) {
	stall := max(now.Sub(p.lastUpdate)-updateCadence, 0)
	p.lastUpdate = now
	p.stalls.Add(stall.Milliseconds())
}

// measureStalls runs the paper's Figure 3 methodology, N sink processes
// and a 20 Hz repeating key through stallPipeline, and returns the mean
// stall between display messages in ms.
func measureStalls(cfg stallConfig) float64 {
	eng := simclock.NewEngine()
	p := newStallPipeline(eng, cfg)
	keystroke := p.keystroke
	for _, at := range workload.KeystrokeTimes(workload.TypingConfig{Rate: 20, Span: cfg.span, Code: 30}) {
		eng.At(at, keystroke, 0, 0)
	}
	eng.RunFor(cfg.span + 2*simclock.Second)
	return p.stalls.Mean()
}

func fig3Span(cfg Config) simclock.Duration {
	if cfg.Quick {
		return 10 * simclock.Second
	}
	return 60 * simclock.Second
}

func runFig3(cfg Config) (*Result, error) {
	res := &Result{ID: "fig3", Title: "Average stall length vs scheduler queue length"}
	span := fig3Span(cfg)

	// TSE: measured through 15 load units, where the paper stopped because
	// the system was barely usable.
	tseLoads := []int{0, 1, 2, 5, 8, 10, 12, 15}
	var tx, ty []float64
	for _, n := range tseLoads {
		tx = append(tx, float64(n))
		ty = append(ty, measureStalls(stallConfig{kind: pipeTSE, sinks: n, span: span}))
	}
	res.Series = append(res.Series, Series{
		Label: "TSE", XLabel: "scheduler queue length", YLabel: "average stall length (msec)",
		X: tx, Y: ty,
	})

	linuxLoads := []int{0, 1, 2, 5, 10, 15, 20, 30, 40, 50}
	var lx, ly []float64
	for _, n := range linuxLoads {
		lx = append(lx, float64(n))
		ly = append(ly, measureStalls(stallConfig{kind: pipeLinux, sinks: n, span: span}))
	}
	res.Series = append(res.Series, Series{
		Label: "Linux/X", XLabel: "scheduler queue length", YLabel: "average stall length (msec)",
		X: lx, Y: ly,
	})

	res.Notef("TSE data stops at 15 load units, as in the paper (the console became barely usable)")
	res.Notef("TSE at load 10: %.0f ms vs Linux at load 10: %.0f ms", ty[5], ly[4])
	tse10, lin10, lin50 := at(tx, ty, 10), at(lx, ly, 10), at(lx, ly, 50)
	res.Claims = []Claim{
		{ID: "fig3.idle_stall", Statement: "with no load neither system stalls the nominal 50 ms cadence",
			Value: max(at(tx, ty, 0), at(lx, ly, 0)), Unit: "ms", Band: atMost(5)},
		{ID: "fig3.tse_at_10", Statement: "TSE's average stall at queue length 10: it collapses",
			Value: tse10, Unit: "ms", Band: atLeast(400), Paper: 800},
		{ID: "fig3.tse_over_linux", Statement: "TSE's stall over Linux's at queue length 10",
			Value: tse10 / lin10, Unit: "x", Band: atLeast(5)},
		{ID: "fig3.linux_growth", Statement: "Linux's stall at queue length 50 over its stall at 10: it grows with load",
			Value: lin50 / lin10, Unit: "x", Band: atLeast(2)},
		{ID: "fig3.linux_at_50", Statement: "Linux's stall at queue length 50 stays within the paper's chart",
			Value: lin50, Unit: "ms", Band: atMost(900)},
	}
	return res, nil
}

func runAbl2(cfg Config) (*Result, error) {
	res := &Result{ID: "abl2", Title: "SVR4 interactive scheduler vs TSE and Linux"}
	span := fig3Span(cfg)
	loads := []int{0, 5, 10, 20}
	table := metrics.NewTable("Load", "TSE (ms)", "Linux (ms)", "SVR4-IA (ms)")
	worst := 0.0
	for _, n := range loads {
		tse := measureStalls(stallConfig{kind: pipeTSE, sinks: n, span: span})
		lin := measureStalls(stallConfig{kind: pipeLinux, sinks: n, span: span})
		svr := measureStalls(stallConfig{kind: pipeSVR4, sinks: n, span: span})
		table.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", tse),
			fmt.Sprintf("%.1f", lin),
			fmt.Sprintf("%.1f", svr))
		worst = max(worst, svr)
	}
	res.Tables = append(res.Tables, table)
	res.Notef("the interactive class keeps stalls flat regardless of load, reproducing Evans et al.")
	res.Claims = []Claim{
		{ID: "abl2.svr4_flat", Statement: "the SVR4 interactive class's worst average stall at loads 0-20: flat, as with no load",
			Value: worst, Unit: "ms", Band: atMost(5)},
	}
	return res, nil
}

func runAbl4(cfg Config) (*Result, error) {
	res := &Result{ID: "abl4", Title: "TSE quantum stretch ablation"}
	span := fig3Span(cfg)
	loads := []int{5, 10, 15}
	table := metrics.NewTable("Load", "stretch x1 (ms)", "stretch x2 (ms)", "stretch x3 (ms)")
	// growth is the smallest ratio of a stretch's stall to the next-lower
	// stretch's at the same load.
	growth := math.Inf(1)
	for _, n := range loads {
		row := []string{fmt.Sprintf("%d", n)}
		prev := 0.0
		for _, st := range []int{1, 2, 3} {
			stall := measureStalls(stallConfig{kind: pipeTSE, sinks: n, span: span, stretch: st})
			row = append(row, fmt.Sprintf("%.1f", stall))
			if st > 1 {
				growth = min(growth, stall/prev)
			}
			prev = stall
		}
		table.AddRow(row...)
	}
	res.Tables = append(res.Tables, table)
	res.Notef("stretching helps the foreground thread but multiplies queue waits behind CPU-bound peers — the paper's catch-22")
	res.Claims = []Claim{
		{ID: "abl4.stretch_growth", Statement: "the smallest ratio of a stretch's average stall to the next-lower stretch's at loads 5, 10 and 15: every longer quantum stalls the console longer, the paper's catch-22",
			Value: growth, Unit: "x", Band: above(1)},
	}
	return res, nil
}
