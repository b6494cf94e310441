package shard_test

import (
	"testing"

	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/shard"
	"thinbench/internal/simclock"
)

// BenchmarkLongDay runs a long office day end to end: 30 seats riding the
// OfficeDay profile across DefaultFleet(3) for 60 simulated seconds on one
// worker. A long span means many timeline slices, each laid out on every
// shard and read across the fleet, so this is the benchmark where fleet
// aggregation's cost shows next to the simulation's.
func BenchmarkLongDay(b *testing.B) {
	base := server.DefaultConfig()
	base.Span = 60 * simclock.Second
	prof := schedule.OfficeDay()
	cfg := shard.Config{
		Base:     base,
		Machines: shard.DefaultFleet(3),
		Users:    30,
		Policy:   shard.PolicyRoundRobin,
		Schedule: &prof,
		Workers:  1,
		Seed:     1999,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := shard.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetWalk times the population walk alone, on the login storm's
// fleet: 1,040 seats on the OfficeDay profile across DefaultFleet(40), a
// 10 s span, seed 1999. Place runs the whole walk — every arrival,
// departure and placement decision — and none of the shards' simulations.
func BenchmarkFleetWalk(b *testing.B) {
	base := server.DefaultConfig()
	base.Span = 10 * simclock.Second
	prof := schedule.OfficeDay()
	cfg := shard.Config{
		Base:     base,
		Machines: shard.DefaultFleet(40),
		Users:    1040,
		Policy:   shard.PolicyRoundRobin,
		Schedule: &prof,
		Seed:     1999,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := shard.Place(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
