// Typing: build the paper's Figure 3 measurement by hand from the
// scheduler substrate — a 20 Hz repeating key against a growing pile of
// CPU-bound "sink" processes — and watch the three schedulers diverge.
//
//	go run ./examples/typing
package main

import (
	"fmt"

	"thinbench/internal/latency"
	"thinbench/internal/sched"
	"thinbench/internal/simclock"
	"thinbench/internal/workload"
)

// measure runs one condition: nSinks CPU hogs, a 20 Hz key repeat, and the
// keystroke pipeline editor -> display encoder.
func measure(mk func() sched.Scheduler, interactive bool, nSinks int) latency.Report {
	eng := simclock.NewEngine()
	cpu := sched.NewCPU(eng, mk())

	editor := cpu.NewThread("editor", 9)
	editor.GUIBoost = true
	editor.Interactive = interactive
	encoder := cpu.NewThread("encoder", 8)
	encoder.Interactive = interactive

	for i := 0; i < nSinks; i++ {
		sink := cpu.NewThread(fmt.Sprintf("sink%d", i), 8)
		cpu.Submit(sink, &sched.WorkItem{Tag: "sink", CPU: simclock.Duration(1e12)})
	}

	tracker := latency.NewStallTracker(50 * simclock.Millisecond)
	tracker.Observe(0)
	span := 15 * simclock.Second
	for _, at := range workload.KeystrokeTimes(workload.TypingConfig{Rate: 20, Span: span}) {
		cpu.SubmitAt(at, editor, &sched.WorkItem{
			Tag: "echo", CPU: simclock.Millisecond, Coalesce: true,
			OnDone: func(*sched.WorkItem, simclock.Time, int) {
				cpu.Submit(encoder, &sched.WorkItem{
					Tag: "encode", CPU: 1500 * simclock.Microsecond, Coalesce: true,
					OnDone: func(_ *sched.WorkItem, done simclock.Time, _ int) { tracker.Observe(done) },
				})
			},
		})
	}
	eng.RunFor(span + simclock.Second)
	return latency.ReportFrom(fmt.Sprintf("%d sinks", nSinks), tracker)
}

func main() {
	fmt.Println("average interactive stall (ms) vs competing CPU-bound processes")
	fmt.Printf("%-8s %12s %12s %12s\n", "sinks", "round-robin", "NT policy", "SVR4-IA")
	for _, n := range []int{0, 2, 5, 10, 20} {
		rr := measure(func() sched.Scheduler { return sched.NewRRSched() }, false, n)
		nt := measure(func() sched.Scheduler { return sched.NewNTSched(sched.DefaultNTConfig()) }, false, n)
		ia := measure(func() sched.Scheduler { return sched.NewSVR4IASched() }, true, n)
		fmt.Printf("%-8d %12.1f %12.1f %12.1f\n", n, rr.MeanStallMs, nt.MeanStallMs, ia.MeanStallMs)
	}
	fmt.Println()
	fmt.Println("the SVR4 interactive class (Evans et al. 1993) keeps stalls flat —")
	fmt.Println("the fix the paper laments no Unix kernel of its day had adopted")
}
