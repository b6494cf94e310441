package shard_test

import (
	"reflect"
	"strings"
	"testing"

	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/shard"
	"thinbench/internal/simclock"
)

// stormCfg is the canonical storm fixture: the heterogeneous fleet under
// the OfficeDay profile, long enough for the 9 AM ramp to land and drain.
func stormCfg(users int) shard.Config {
	base := server.DefaultConfig()
	base.Span = 6 * simclock.Second
	day := schedule.OfficeDay()
	return shard.Config{
		Base:     base,
		Machines: shard.DefaultFleet(3),
		Users:    users,
		Policy:   shard.PolicyRoundRobin,
		Schedule: &day,
		Seed:     1999,
	}
}

func TestScheduleFleetRoutesEpisodes(t *testing.T) {
	fr := mustRun(t, stormCfg(15))
	// OfficeDay starts 15% occupied: round(0.15*15) = 2 seats at open.
	if got := sum(fr.Placement); got != 2 {
		t.Fatalf("time-zero placement %v holds %d sessions, want the 2 overnight seats", fr.Placement, got)
	}
	if fr.Arrivals < 13 {
		t.Fatalf("only %d arrivals: the other 13 seats never showed up", fr.Arrivals)
	}
	if fr.Departures == 0 {
		t.Fatal("an office day with lognormal stays produced no departures")
	}
	if fr.LoginMaxMs <= 0 {
		t.Fatal("storm arrivals reported no login latency")
	}
	total := 0
	for _, sr := range fr.Shards {
		total += sr.Arrivals
	}
	if total != fr.Arrivals {
		t.Fatalf("per-shard arrivals sum %d != fleet %d", total, fr.Arrivals)
	}
}

func TestScheduleFleetDeterministicAndWorkerInvariant(t *testing.T) {
	cfg := stormCfg(12)
	cfg.KillAt, cfg.KillShard = 2*simclock.Second, 2
	ref := mustRun(t, cfg)
	for _, workers := range []int{1, 8} {
		c := cfg
		c.Workers = workers
		if got := mustRun(t, c); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d diverged from the reference schedule run", workers)
		}
	}
}

// TestStormPeaksDuringRamp is the acceptance shape: the fleet p95
// timeline under OfficeDay peaks while the 9 AM storm's logins are
// landing, not at some arbitrary later point.
func TestStormPeaksDuringRamp(t *testing.T) {
	fr := mustRun(t, stormCfg(15))
	peak := 0
	for i, v := range fr.P95TimelineMs {
		if v > fr.P95TimelineMs[peak] {
			peak = i
		}
	}
	// The storm window ends at 0.19 of the span; its logins (handshake,
	// page-ins, process creation on loaded CPUs) land within ~2 slices.
	rampEnd := int(0.19*float64(stormCfg(15).Base.Span)/float64(server.TimelineSlice)) + 2
	if peak < 1 || peak > rampEnd {
		t.Fatalf("fleet p95 peaked in slice %d (%v), want within the ramp slices [1, %d]",
			peak, fr.P95TimelineMs, rampEnd)
	}
}

// TestKillDuringStormRecoversSlowerThanFlat is the acceptance ordering: a
// machine kill in the middle of the 9 AM ramp — displaced users re-login
// into the surge — takes longer to return to the pre-kill baseline than
// the same kill under flat (memoryless churn) load at equal population.
func TestKillDuringStormRecoversSlowerThanFlat(t *testing.T) {
	storm := stormCfg(15)
	storm.KillAt, storm.KillShard = 2*simclock.Second, 2
	flat := storm
	fp := schedule.Flat(0.15)
	flat.Schedule = &fp

	sr := mustRun(t, storm)
	fr := mustRun(t, flat)
	if fr.RecoveryMs < 0 {
		t.Fatalf("flat-load kill never recovered (pre %v peak %v timeline %v)",
			fr.PreKillP95Ms, fr.PeakKillP95Ms, fr.P95TimelineMs)
	}
	stormRec := sr.RecoveryMs
	if stormRec < 0 {
		// Never recovered within the run: slower than any finite recovery.
		return
	}
	if stormRec < fr.RecoveryMs {
		t.Fatalf("kill during the storm recovered in %.0f ms, faster than flat load's %.0f ms",
			stormRec, fr.RecoveryMs)
	}
}

// TestScheduleFlatFleetMatchesChurnFleetShape: churn is a Flat profile,
// so a Flat-profile fleet on the plain test fleet must show churn's shape
// — every seat placed at open, arrivals and departures both happen, and
// immediate handover pairs each departure with an arrival.
func TestScheduleFlatFleetMatchesChurnFleetShape(t *testing.T) {
	cfg := fleetCfg(shard.PolicyRoundRobin, 9)
	fp := schedule.Flat(0.5)
	cfg.Schedule = &fp
	fr := mustRun(t, cfg)
	if sum(fr.Placement) != 9 {
		t.Fatalf("flat profile placed %v at open, want all 9 seats", fr.Placement)
	}
	if fr.Arrivals == 0 || fr.Departures == 0 {
		t.Fatalf("flat profile at 0.5/s produced no turnover: %d arrivals, %d departures",
			fr.Arrivals, fr.Departures)
	}
	if fr.Arrivals != fr.Departures {
		t.Fatalf("immediate handover must pair every departure with an arrival: %d vs %d",
			fr.Arrivals, fr.Departures)
	}
}

// TestScheduleValidation: the fleet validates its schedule before it
// places anyone, and control hooks need schedule arrivals to steer.
func TestScheduleValidation(t *testing.T) {
	cfg := fleetCfg(shard.PolicyRoundRobin, 6)
	bad := schedule.OfficeDay()
	bad.Timeline[0].Rate = -1
	cfg.Schedule = &bad
	if _, err := shard.Run(cfg); err == nil {
		t.Fatal("malformed profile accepted by the fleet")
	}
	// At 2,000,000/s the mean stay rounds to 0 µs, under the 1 ms minimum.
	fast := schedule.Flat(2e6)
	cfg.Schedule = &fast
	if _, err := shard.Run(cfg); err == nil || !strings.Contains(err.Error(), "minimum") {
		t.Fatalf("flat profile with a zero mean stay accepted: %v", err)
	}
	cfg = fleetCfg(shard.PolicyRoundRobin, 6)
	cfg.KillAt, cfg.KillShard = 2*simclock.Second, 2
	cfg.Control = &shard.ControlHooks{}
	if _, err := shard.Run(cfg); err == nil || !strings.Contains(err.Error(), "Schedule") {
		t.Fatalf("control hooks on a fleet without a schedule accepted: %v", err)
	}
}

// TestScheduleFleetCapacity: FleetCapacity under a profile uses the same
// search as churn — the answer is positive on the healthy fleet and every
// probe pays the storm's login load.
func TestScheduleFleetCapacity(t *testing.T) {
	cfg := stormCfg(1)
	cr, err := shard.FleetCapacity(cfg, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Users < 1 || cr.Users > 30 {
		t.Fatalf("schedule fleet capacity %d outside (0, 30]", cr.Users)
	}
	if cr.Over.Users != cr.Users+1 {
		t.Fatalf("over-budget probe ran %d users at capacity %d", cr.Over.Users, cr.Users)
	}
}
