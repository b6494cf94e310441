// Contention: the paper's central question run end to end — how does
// user-perceived latency degrade as concurrent users share one server's
// processor, memory, and network? Every data point is one shared server:
// all users on one discrete-event clock, one scheduled CPU, one physical
// memory pool, and one 10 Mbps link, so the latency curve includes CPU
// queueing, paging feedback, and display-traffic queueing together.
//
//	go run ./examples/contention
package main

import (
	"fmt"

	"thinbench/internal/server"
	"thinbench/internal/simclock"
	"thinbench/internal/sizing"
)

func main() {
	fmt.Println("echo latency vs concurrent users on one shared 64 MB / 10 Mbps server")
	fmt.Println()

	base := server.DefaultConfig()
	base.Span = 10 * simclock.Second
	users := []int{1, 4, 8, 12, 14, 16}
	grid, err := server.Grid(base, []string{"rdp", "x"}, []string{"rr", "nt"}, users, 0, 1999)
	if err != nil {
		panic(err)
	}
	for _, sc := range grid {
		fmt.Printf("%s over the %s scheduler:\n", sc.Protocol, sc.Scheduler)
		for _, pt := range sc.Points {
			marker := ""
			if pt.Paging {
				marker = "  <- paging: working sets no longer fit"
			} else if pt.EchoP95Ms >= 100 {
				marker = "  <- beyond the 100 ms threshold of perception"
			}
			fmt.Printf("  %3d users: p95 %9.2f ms  (cpu %3.0f%%, link %3.0f%%)%s\n",
				pt.Users, pt.EchoP95Ms, pt.CPUUtilization*100, pt.LinkUtilization*100, marker)
		}
		fmt.Println()
	}

	// The sizing view of the same machine: latency-threshold capacity is
	// what operators can actually sell, and it never exceeds the memory
	// division.
	srv := sizing.DefaultServer()
	for _, p := range []sizing.Profile{sizing.LightAdmin(), sizing.Developer()} {
		ans, limit, err := sizing.Capacity(srv, p, 60, 10*simclock.Second, 1999)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-12s capacity: %2d users (binding: %s, p95 %.1f ms); memory-only division says %d\n",
			p.Name, ans.Users, limit, ans.At.EchoP95Ms, sizing.MemoryCapacity(srv, p))
	}
}
