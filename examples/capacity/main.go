// Capacity: the server-sizing question the paper's introduction poses —
// how many concurrent users can a box support before latency crosses the
// threshold of perception? Combines the memory bound (per-session
// compulsory load, §5.1.1) with the latency-threshold capacity that
// sizing.Capacity finds on shared-server probes.
//
//	go run ./examples/capacity
package main

import (
	"fmt"
	"log"

	"thinbench/internal/session"
	"thinbench/internal/simclock"
	"thinbench/internal/sizing"
)

const (
	span     = 20 * simclock.Second
	seed     = 1999
	maxUsers = 120
)

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
	fmt.Printf("latency-threshold capacity (p95 echo within %.0f ms, round-robin):\n", sizing.DefaultLatencyBudget.Milliseconds())
	srv := sizing.DefaultServer()
	for _, p := range []sizing.Profile{sizing.LightAdmin(), sizing.Developer(), sizing.WebBrowser()} {
		ans, limit, err := sizing.Capacity(srv, p, maxUsers, span, seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s %3d users, p95 echo %6.1f ms; one more breaks the %s bound (memory alone fits %d)\n",
			p.Name+":", ans.Users, ans.At.EchoP95Ms, limit, sizing.MemoryCapacity(srv, p))
	}
	fmt.Println()
	fmt.Println("CPU bound (developers on 512 MB, so memory never binds):")
	big := srv
	big.PhysicalKB = 512 * 1024
	for _, policy := range []struct{ name, sched string }{{"round-robin", "rr"}, {"SVR4-IA", "svr4ia"}} {
		big.Scheduler = policy.sched
		ans, _, err := sizing.Capacity(big, sizing.Developer(), maxUsers, span, seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s %3d users, p95 echo %6.1f ms\n", policy.name+":", ans.Users, ans.At.EchoP95Ms)
	}
	fmt.Println()
	fmt.Println("the binding constraint depends on the behavior profile — the paper's")
	fmt.Println("framework exists precisely to make this calculation explicit")
}
