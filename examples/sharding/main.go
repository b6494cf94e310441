// Sharding: the paper sizes one multi-user machine; a fleet serving one
// population turns that into a placement problem. This walkthrough runs
// the same total population across a heterogeneous three-machine fleet —
// a big box (128 MB, 1.5x CPU), the paper's testbed machine, and a weak
// leftover (48 MB, 0.6x CPU) — under each placement policy, then asks the
// fleet-level sizing question: how many users fit before fleet p95 echo
// latency blows the 150 ms budget?
//
//	go run ./examples/sharding
package main

import (
	"fmt"

	"thinbench/internal/server"
	"thinbench/internal/shard"
	"thinbench/internal/simclock"
)

func main() {
	base := server.DefaultConfig()
	base.Span = 5 * simclock.Second
	machines := shard.DefaultFleet(3)

	fmt.Println("one population, three machines (128 MB/1.5x, 64 MB/1.0x, 48 MB/0.6x),")
	fmt.Println("three placement policies")
	fmt.Println()

	// 30 users is past what blind dealing survives: round-robin puts 10
	// sessions on the 48 MB machine whose §5.1.1 division is ~8, so that
	// shard pages and its users' echoes never come back.
	const users = 30
	for _, policy := range shard.Policies() {
		fr, err := shard.Run(shard.Config{
			Base:      base,
			Machines:  machines,
			Users:     users,
			Policy:    policy,
			ProbeSpan: 2 * simclock.Second,
			Seed:      1999,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-10s places %v -> fleet p95 %6.0f ms (worst shard %6.0f ms, censored %d)\n",
			policy, fr.Placement, fr.EchoP95Ms, fr.MaxShardP95Ms, fr.Censored)
		for _, sr := range fr.Shards {
			if sr.Users == 0 {
				fmt.Printf("    shard %d (%3d MB, %.1fx): idle\n", sr.Shard, sr.PhysicalKB/1024, sr.CPUSpeed)
				continue
			}
			marker := ""
			if sr.Paging {
				marker = "  <- paging: this machine's working sets no longer fit"
			}
			fmt.Printf("    shard %d (%3d MB, %.1fx): %2d users, p95 %6.0f ms%s\n",
				sr.Shard, sr.PhysicalKB/1024, sr.CPUSpeed, sr.Users, sr.EchoP95Ms, marker)
		}
		fmt.Println()
	}

	// The fleet-level sizing answer. The model codec keeps the wide
	// search frugal, exactly as in the single-machine capacity search.
	capBase := base
	capBase.Protocol = "model"
	capBase.Span = 3 * simclock.Second
	fmt.Println("fleet capacity (largest population with fleet p95 within 150 ms):")
	for _, policy := range shard.Policies() {
		cap, err := shard.FleetCapacity(shard.Config{
			Base:      capBase,
			Machines:  machines,
			Policy:    policy,
			ProbeSpan: simclock.Second,
			Seed:      1999,
		}, 60)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %-10s %2d users (fleet p95 %5.0f ms, placement %v)\n",
			policy, cap.Users, cap.At.EchoP95Ms, cap.At.Placement)
	}
}
