package control_test

import (
	"reflect"
	"strings"
	"testing"

	"thinbench/internal/control"
	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/shard"
	"thinbench/internal/simclock"
)

// Controller bits of FuzzFleet's controllers input.
const (
	fuzzAdmission = 1 << iota
	fuzzShedder
	fuzzAutoscaler
)

// fuzzFleet decodes fuzz input into a fleet of 1–4 machines (standbyMask
// marks standby spares) with 1–24 model-codec seats over a 2 s span and
// 1 s probes, an arrival model (none, OfficeDay, ShiftChange or Flat), a
// placement policy, an optional kill, and — when there is a schedule to
// steer — any subset of the three controllers. The machines are
// DefaultFleet's, or, when bit 2 of machines is set, a homogeneous rack of
// base machines like the gated day's and BENCH_control's. ok is false for
// a fleet that validation rejects: every machine a standby spare.
func fuzzFleet(seed uint64, machines, standbyMask, seats, model uint8, rate uint16, policy, controllers uint8,
	kill bool, killShard uint8, killFrac uint16) (cfg shard.Config, ctl control.Config, ok bool) {
	m := 1 + int(machines)%4
	fleet := shard.DefaultFleet(m)
	if machines&4 != 0 {
		fleet = make([]shard.Machine, m)
	}
	live := 0
	for j := range fleet {
		fleet[j].Standby = standbyMask&(1<<j) != 0
		if !fleet[j].Standby {
			live++
		}
	}
	base := server.DefaultConfig()
	base.Protocol = "model"
	base.Span = 2 * simclock.Second
	cfg = shard.Config{
		Base:      base,
		Machines:  fleet,
		Users:     1 + int(seats)%24,
		Policy:    []string{shard.PolicyRoundRobin, shard.PolicyMemAware, shard.PolicyLatAware}[int(policy)%3],
		ProbeSpan: simclock.Second,
		Seed:      seed,
	}
	var p schedule.Profile
	switch model % 4 {
	case 1:
		p = schedule.OfficeDay()
	case 2:
		p = schedule.ShiftChange()
	case 3:
		p = schedule.Flat(0.05 + float64(rate%400)/100)
	}
	if model%4 != 0 {
		cfg.Schedule = &p
		if controllers&fuzzAdmission != 0 {
			ctl.Admission = &control.Admission{Retry: 500 * simclock.Millisecond}
		}
		if controllers&fuzzShedder != 0 {
			ctl.Shedder = &control.Shedder{}
		}
		if controllers&fuzzAutoscaler != 0 {
			ctl.Autoscaler = &control.Autoscaler{UpFrac: 0.75, DownFrac: 0.25, ProvisionDelay: 500 * simclock.Millisecond}
		}
	}
	if kill && m > 1 {
		// Anywhere from the end of the first timeline slice to just
		// before the span ends.
		room := base.Span - server.TimelineSlice
		cfg.KillAt = server.TimelineSlice + room*simclock.Duration(killFrac)/65536
		cfg.KillShard = int(killShard) % m
	}
	return cfg, ctl, live > 0
}

// runFleet runs cfg open, or under ctl when it names a controller.
func runFleet(cfg shard.Config, ctl control.Config) (shard.FleetResult, error) {
	if ctl.Admission == nil && ctl.Shedder == nil && ctl.Autoscaler == nil {
		return shard.Run(cfg)
	}
	return control.Run(cfg, ctl)
}

// FuzzFleet runs whole simulated fleets, open and controlled, and checks
// what every fleet result owes: censored interactions among those
// submitted, the shards' event counts summing to the fleet's, probe events
// exactly when there are probes and no probes when nothing estimates p95
// (neither lataware placement, the gate nor the shedder), no latency
// sample clamped off the fleet histogram, and the same result at 1 and 3
// workers. The fleet walk's own occupancy check runs inside every run.
// The only error allowed is a displaced user with nowhere to go: the only
// live machine killed while the rest are standby spares.
func FuzzFleet(f *testing.F) {
	const all = fuzzAdmission | fuzzShedder | fuzzAutoscaler
	// Like the gated day: lataware under all three controllers, half the
	// fleet standby spares, on heterogeneous and on identical machines.
	f.Add(uint64(1999), uint8(3), uint8(0b1100), uint8(23), uint8(1), uint16(0), uint8(2), uint8(all), false, uint8(0), uint16(0))
	f.Add(uint64(1999), uint8(7), uint8(0b1100), uint8(23), uint8(1), uint16(0), uint8(2), uint8(all), false, uint8(0), uint16(0))
	f.Add(uint64(7), uint8(2), uint8(0), uint8(14), uint8(2), uint16(0), uint8(0), uint8(fuzzShedder), true, uint8(1), uint16(30000))
	f.Add(uint64(3), uint8(1), uint8(0b10), uint8(9), uint8(3), uint16(25), uint8(1), uint8(fuzzAdmission|fuzzAutoscaler), false, uint8(0), uint16(0))
	f.Add(uint64(5), uint8(0), uint8(0), uint8(5), uint8(0), uint16(0), uint8(2), uint8(0), false, uint8(0), uint16(0))
	// The only live machine dies and every other machine is a spare.
	f.Add(uint64(11), uint8(1), uint8(0b10), uint8(4), uint8(1), uint16(0), uint8(0), uint8(0), true, uint8(0), uint16(100))
	f.Fuzz(func(t *testing.T, seed uint64, machines, standbyMask, seats, model uint8, rate uint16, policy, controllers uint8,
		kill bool, killShard uint8, killFrac uint16) {
		cfg, ctl, ok := fuzzFleet(seed, machines, standbyMask, seats, model, rate, policy, controllers, kill, killShard, killFrac)
		if !ok {
			t.Skip("every machine is a standby spare")
		}
		cfg.Workers = 1
		one, err := runFleet(cfg, ctl)
		cfg.Workers = 3
		three, err3 := runFleet(cfg, ctl)
		if err != nil || err3 != nil {
			if err == nil || err3 == nil || err.Error() != err3.Error() {
				t.Fatalf("errors differ by worker count: %v at 1, %v at 3", err, err3)
			}
			if !strings.Contains(err.Error(), "no machine alive to place a session on") {
				t.Fatal(err)
			}
			return
		}
		if one.Censored > one.Interactions {
			t.Fatalf("%d censored of %d interactions", one.Censored, one.Interactions)
		}
		var events uint64
		for _, sh := range one.Shards {
			events += sh.SimEvents
		}
		if events != one.SimEvents {
			t.Fatalf("shards count %d sim events, the fleet %d", events, one.SimEvents)
		}
		if (one.ProbeEvents > 0) != (one.Probes > 0) {
			t.Fatalf("%d probes dispatched %d events", one.Probes, one.ProbeEvents)
		}
		if cfg.Policy != shard.PolicyLatAware && ctl.Admission == nil && ctl.Shedder == nil && one.Probes != 0 {
			t.Fatalf("%d probes with no lataware placement, gate or shedder to ask for them", one.Probes)
		}
		if one.Clamped != 0 {
			t.Fatalf("%d latency samples clamped off the fleet histogram", one.Clamped)
		}
		if !reflect.DeepEqual(one, three) {
			t.Fatal("fleet result differs between 1 and 3 workers")
		}
	})
}
