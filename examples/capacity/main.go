// Capacity: the server-sizing question the paper's introduction poses —
// how many concurrent users can a box support before latency crosses the
// threshold of perception? Combines the memory bound (per-session
// compulsory load, §5.1.1) with the CPU bound (Figure 3's stall growth).
//
//	go run ./examples/capacity
package main

import (
	"fmt"

	"thinbench/internal/latency"
	"thinbench/internal/sched"
	"thinbench/internal/session"
	"thinbench/internal/simclock"
	"thinbench/internal/workload"
)

// stallWithUsers models n concurrent interactive users on the Linux
// round-robin scheduler: each user is an editor+display pair receiving a
// 20 Hz repeat while the others' work competes for the CPU.
func stallWithUsers(n int) float64 {
	eng := simclock.NewEngine()
	cpu := sched.NewCPU(eng, sched.NewRRSched())
	tracker := latency.NewStallTracker(50 * simclock.Millisecond)
	tracker.Observe(0)

	// User 0 is measured; the rest run a moderate mixed load (1.5 ms of
	// CPU per 50 ms — editing plus background work).
	editor := cpu.NewThread("editor0", 0)
	xsrv := cpu.NewThread("xserver0", 0)
	for i := 1; i < n; i++ {
		t := cpu.NewThread(fmt.Sprintf("user%d", i), 0)
		eng.Every(simclock.Time(i)*1000, 50*simclock.Millisecond, func(simclock.Time) {
			cpu.Submit(t, &sched.WorkItem{Tag: "work", CPU: 1500 * simclock.Microsecond})
		})
	}
	span := 20 * simclock.Second
	for _, at := range workload.KeystrokeTimes(workload.TypingConfig{Rate: 20, Span: span}) {
		cpu.SubmitAt(at, editor, &sched.WorkItem{
			Tag: "echo", CPU: simclock.Millisecond, Coalesce: true,
			OnDone: func(*sched.WorkItem, simclock.Time, int) {
				cpu.Submit(xsrv, &sched.WorkItem{
					Tag: "update", CPU: 1500 * simclock.Microsecond, Coalesce: true,
					OnDone: func(_ *sched.WorkItem, done simclock.Time, _ int) { tracker.Observe(done) },
				})
			},
		})
	}
	eng.RunFor(span + simclock.Second)
	return tracker.MeanStallMs()
}

func main() {
	fmt.Println("server sizing on a 64 MB machine")
	fmt.Println()
	fmt.Println("memory bound (sessions before paging):")
	fmt.Printf("  Linux/X:   %3d sessions (752 KB each after a 17 MB system)\n",
		session.Capacity(64*1024, session.LinuxSystemIdleKB, session.LinuxManifest()))
	fmt.Printf("  TSE:       %3d sessions (3,244 KB each after a 19 MB system)\n",
		session.Capacity(64*1024, session.TSESystemIdleKB, session.TSEManifest()))
	fmt.Printf("  TSE light: %3d sessions (2,100 KB with the DOS-prompt shell)\n",
		session.Capacity(64*1024, session.TSESystemIdleKB, session.TSELightManifest()))
	fmt.Println()
	fmt.Println("CPU bound (mean stall for one typist as active users grow, Linux/X):")
	for _, n := range []int{1, 5, 10, 20, 40, 60} {
		ms := stallWithUsers(n)
		marker := ""
		if ms >= 100 {
			marker = "  <- beyond the 100 ms threshold of perception"
		}
		fmt.Printf("  %3d users: %6.1f ms%s\n", n, ms, marker)
	}
	fmt.Println()
	fmt.Println("the binding constraint depends on the behavior profile — the paper's")
	fmt.Println("framework exists precisely to make this calculation explicit")
}
