// Churn and failover: the paper prices session setup (tab4's handshake
// bytes) and login memory (§5.1.1), but measures populations that log in
// once and stay. This walkthrough runs a fleet the way a real shift
// runs: a small population at nine o'clock, arrivals ramping in through
// the morning — each paying its protocol handshake on the contended
// link, its full-manifest page-ins, and its process-creation CPU before
// the first keystroke echoes — sessions turning over, and then a machine
// dying mid-shift. Its users' interactions censor at the kill and they
// re-login elsewhere through the live placement policy, a reconnect
// storm of full session setups against the survivors.
//
// The fleet has one arrival model, a schedule profile: its start
// fraction is the population at open, its timeline carries the ramp, and
// its stay distribution turns sessions over. schedule.Flat(r) is the
// memoryless churn special case.
//
// The per-second fleet p95 timeline makes the transient visible: watch
// the excursion at the kill and how long each policy takes to come back.
//
//	go run ./examples/churn
package main

import (
	"fmt"
	"strings"

	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/shard"
	"thinbench/internal/simclock"
)

func main() {
	base := server.DefaultConfig()
	base.Span = 10 * simclock.Second
	killAt := 5 * simclock.Second
	// A quarter of the 24 seats are taken at open; the rest ramp in, most
	// of them over the first half of the span. Stays average 20 s, so a
	// few sessions end mid-run and their seats log in again later in the
	// timeline.
	shift := schedule.Profile{
		Name:      "morning",
		StartFrac: 0.25,
		Timeline: []schedule.Segment{
			{From: 0, Rate: 1},      // the floor fills
			{From: 0.5, Rate: 0.25}, // the odd late arrival
		},
		Stay: schedule.Stay{Kind: schedule.StayExp, Mean: 20 * simclock.Second},
	}

	fmt.Println("one heterogeneous fleet (128 MB/1.5x, 64 MB/1.0x, 48 MB/0.6x) under the profile:")
	fmt.Print(schedule.Format(shift))
	fmt.Printf("machine 2 killed at %v — its users re-login through the live policy\n\n", killAt)

	for _, policy := range []string{shard.PolicyRoundRobin, shard.PolicyLatAware} {
		fr, err := shard.Run(shard.Config{
			Base:      base,
			Machines:  shard.DefaultFleet(3),
			Users:     24,
			Policy:    policy,
			Schedule:  &shift,
			KillShard: 2,
			KillAt:    killAt,
			ProbeSpan: 2 * simclock.Second,
			Seed:      1999,
		})
		if err != nil {
			panic(err)
		}

		fmt.Printf("%s: opened %v, %d arrivals, %d departures, slowest login %.0f ms\n",
			policy, fr.Placement, fr.Arrivals, fr.Departures, fr.LoginMaxMs)
		for _, sr := range fr.Shards {
			note := ""
			if sr.Killed {
				note = fmt.Sprintf("  <- killed at %v with %d users aboard", killAt, sr.Departures)
			}
			fmt.Printf("    shard %d (%3d MB, %.1fx): %2d at open, peak %2d, %d arrivals%s\n",
				sr.Shard, sr.PhysicalKB/1024, sr.CPUSpeed, sr.Users, sr.PeakUsers, sr.Arrivals, note)
		}

		killSlice := int(killAt / server.TimelineSlice)
		fmt.Println("    fleet p95 per second:")
		for i, p95 := range fr.P95TimelineMs {
			bar := strings.Repeat("#", scale(p95))
			marker := ""
			if i == killSlice {
				marker = "  <- kill"
			}
			fmt.Printf("      %2d-%2ds %6.0f ms %s%s\n", i, i+1, p95, bar, marker)
		}
		recovery := "did not recover within the run"
		if fr.RecoveryMs >= 0 {
			recovery = fmt.Sprintf("recovered %.0f ms after the kill", fr.RecoveryMs)
		}
		fmt.Printf("    pre-kill p95 %.0f ms, peak %.0f ms, %s\n\n",
			fr.PreKillP95Ms, fr.PeakKillP95Ms, recovery)
	}
}

// scale compresses a millisecond value into a bar short enough for a
// terminal: one '#' per 10 ms, capped at 60 columns.
func scale(ms float64) int {
	n := int(ms / 10)
	if n > 60 {
		n = 60
	}
	return n
}
