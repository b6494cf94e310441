package shard_test

import (
	"reflect"
	"testing"

	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/shard"
	"thinbench/internal/simclock"
)

// fleetCfg is the test fleet: the canonical heterogeneous three-machine
// fleet (big / base / weak) on short spans.
func fleetCfg(policy string, users int) shard.Config {
	base := server.DefaultConfig()
	base.Span = 3 * simclock.Second
	return shard.Config{
		Base:      base,
		Machines:  shard.DefaultFleet(3),
		Users:     users,
		Policy:    policy,
		ProbeSpan: simclock.Second,
		Seed:      42,
	}
}

func mustRun(t *testing.T, cfg shard.Config) shard.FleetResult {
	t.Helper()
	res, err := shard.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sum(counts []int) int {
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

func TestPlaceRoundRobin(t *testing.T) {
	counts, err := shard.Place(fleetCfg(shard.PolicyRoundRobin, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(counts, []int{3, 2, 2}) {
		t.Fatalf("roundrobin placed %v, want [3 2 2]", counts)
	}
	// The empty policy defaults to roundrobin.
	def, err := shard.Place(fleetCfg("", 7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def, counts) {
		t.Fatalf("default policy placed %v, want roundrobin's %v", def, counts)
	}
}

func TestPlaceMemAwareFollowsMemory(t *testing.T) {
	// DefaultFleet memory divisions: 128 MB ~ 31 sessions, 64 MB ~ 13,
	// 48 MB ~ 8. Greedy bin-packing must load machines in that order.
	cfg := fleetCfg(shard.PolicyMemAware, 26)
	counts, err := shard.Place(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum(counts) != cfg.Users {
		t.Fatalf("placement %v loses users, want total %d", counts, cfg.Users)
	}
	if !(counts[0] > counts[1] && counts[1] > counts[2]) {
		t.Fatalf("memaware ignored memory sizes: %v for capacities ~[31 13 8]", counts)
	}
	// Under total memory capacity, no shard is pushed past its division.
	if counts[2] > 8 {
		t.Fatalf("memaware overcommitted the 48 MB machine: %v", counts)
	}
}

func TestPlaceLatAwarePrefersFastMachine(t *testing.T) {
	cfg := fleetCfg(shard.PolicyLatAware, 12)
	counts, err := shard.Place(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum(counts) != cfg.Users {
		t.Fatalf("placement %v loses users, want total %d", counts, cfg.Users)
	}
	if counts[0] <= counts[2] {
		t.Fatalf("lataware loaded the 0.6x machine (%d users) at least as much as the 1.5x machine (%d)",
			counts[2], counts[0])
	}
}

func TestPlaceRejectsBadConfigs(t *testing.T) {
	cfg := fleetCfg(shard.PolicyRoundRobin, 4)
	cfg.Users = 0
	if _, err := shard.Place(cfg); err == nil {
		t.Fatal("empty population accepted")
	}
	cfg = fleetCfg(shard.PolicyRoundRobin, 4)
	cfg.Machines = nil
	if _, err := shard.Place(cfg); err == nil {
		t.Fatal("machineless fleet accepted")
	}
	cfg = fleetCfg("hash", 4)
	if _, err := shard.Place(cfg); err == nil {
		t.Fatal("unknown policy accepted")
	}
	cfg = fleetCfg(shard.PolicyRoundRobin, 4)
	cfg.Machines[1].MemoryMB = -64
	if _, err := shard.Place(cfg); err == nil {
		t.Fatal("negative hardware override accepted")
	}
	cfg = fleetCfg(shard.PolicyLatAware, 4)
	cfg.ProbeSpan = -simclock.Second
	if _, err := shard.Place(cfg); err == nil {
		t.Fatal("negative probe span accepted")
	}
	cfg = fleetCfg(shard.PolicyRoundRobin, 4)
	cfg.Base.Protocol = "telnet"
	if _, err := shard.Run(cfg); err == nil {
		t.Fatal("unknown base protocol accepted by Run")
	}
}

// TestFleetWorkerInvariant is the shard layer's determinism proof: whole
// machines fan out across the farm with index-derived seeds, so a fleet
// result must be deeply identical at any worker count, for every policy.
func TestFleetWorkerInvariant(t *testing.T) {
	for _, policy := range shard.Policies() {
		cfg := fleetCfg(policy, 10)
		cfg.Base.Span = 2 * simclock.Second
		cfg.Workers = 1
		ref := mustRun(t, cfg)
		for _, workers := range []int{2, 8} {
			cfg.Workers = workers
			if got := mustRun(t, cfg); !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s: workers=%d diverged from sequential fleet:\n%+v\n%+v",
					policy, workers, got, ref)
			}
		}
	}
}

// TestFleetP95MonotoneInUsers: greedy placement has the prefix property
// and every shard keeps its index-derived seed, so growing populations
// share common random numbers and the fleet p95 series must degrade, never
// improve, under every policy.
func TestFleetP95MonotoneInUsers(t *testing.T) {
	for _, policy := range shard.Policies() {
		var prev float64
		for i, n := range []int{4, 10, 16, 22, 28} {
			res := mustRun(t, fleetCfg(policy, n))
			if res.Users != n || sum(res.Placement) != n {
				t.Fatalf("%s: fleet result placed %v for %d users", policy, res.Placement, n)
			}
			if i > 0 && res.EchoP95Ms+0.01 < prev {
				t.Fatalf("%s: fleet p95 improved with more users: %d users %.2fms after %.2fms",
					policy, n, res.EchoP95Ms, prev)
			}
			prev = res.EchoP95Ms
		}
	}
}

// TestLatAwareNoWorseThanRoundRobin is the point of measurement-driven
// placement: on a heterogeneous fleet, blind round-robin marches the weak
// machine into paging while lataware routes around it, so for the same
// total population the lataware fleet p95 cannot be worse.
func TestLatAwareNoWorseThanRoundRobin(t *testing.T) {
	for _, n := range []int{18, 30} {
		rr := mustRun(t, fleetCfg(shard.PolicyRoundRobin, n))
		lat := mustRun(t, fleetCfg(shard.PolicyLatAware, n))
		if lat.EchoP95Ms > rr.EchoP95Ms {
			t.Fatalf("%d users: lataware fleet p95 %.2fms worse than roundrobin %.2fms (placements %v vs %v)",
				n, lat.EchoP95Ms, rr.EchoP95Ms, lat.Placement, rr.Placement)
		}
	}
	// At 30 users round-robin puts 10 sessions on the 48 MB machine
	// (§5.1.1 division ~8), so the gap should be dramatic, not a tie.
	rr := mustRun(t, fleetCfg(shard.PolicyRoundRobin, 30))
	lat := mustRun(t, fleetCfg(shard.PolicyLatAware, 30))
	if lat.EchoP95Ms >= rr.EchoP95Ms/2 {
		t.Fatalf("lataware p95 %.2fms not decisively better than roundrobin %.2fms under overload",
			lat.EchoP95Ms, rr.EchoP95Ms)
	}
}

// TestOverloadedFleetP95NotFloored: the bucketing must be sized to the
// measurement window, so that a deeply overloaded fleet's censored
// samples (ages up to span plus drain) land in real buckets instead of
// clamping — otherwise fleet p95 would silently floor at the histogram
// edge exactly when overload is worst.
func TestOverloadedFleetP95NotFloored(t *testing.T) {
	cfg := fleetCfg(shard.PolicyRoundRobin, 30) // 10 sessions on the ~8-session 48 MB machine
	cfg.Base.Span = 10 * simclock.Second
	res := mustRun(t, cfg)
	worst := res.Shards[2]
	if !worst.Paging || worst.Censored == 0 {
		t.Fatalf("weak shard not overloaded as intended: %+v", worst)
	}
	if res.Clamped != 0 {
		t.Fatalf("fleet histogram clamped %d samples on a span-sized bucketing", res.Clamped)
	}
	if res.EchoP95Ms <= float64(shard.HistBuckets)*shard.HistBucketMs {
		t.Fatalf("overloaded fleet p95 %.0fms at or under the minimum histogram range — still floored", res.EchoP95Ms)
	}
}

// TestEmptyShardContributesNothing: a shard assigned zero users must not
// be simulated at all — no invented clamped-up user — and the fleet
// summary must equal the populated shards' alone.
func TestEmptyShardContributesNothing(t *testing.T) {
	res := mustRun(t, fleetCfg(shard.PolicyRoundRobin, 1))
	if !reflect.DeepEqual(res.Placement, []int{1, 0, 0}) {
		t.Fatalf("placement %v, want [1 0 0]", res.Placement)
	}
	for _, sr := range res.Shards[1:] {
		if sr.Users != 0 || sr.Interactions != 0 || sr.EchoSamples != 0 {
			t.Fatalf("empty shard %d simulated anyway: %+v", sr.Shard, sr)
		}
	}
	if res.Interactions != res.Shards[0].Interactions {
		t.Fatalf("fleet interactions %d != sole shard's %d", res.Interactions, res.Shards[0].Interactions)
	}
	if res.EchoP95Ms < res.Shards[0].EchoP95Ms || res.EchoP95Ms > res.Shards[0].EchoP95Ms+shard.HistBucketMs {
		t.Fatalf("fleet p95 %.2fms not within one bucket above sole shard's %.2fms",
			res.EchoP95Ms, res.Shards[0].EchoP95Ms)
	}
}

// TestFleetCapacity: the fleet-level sizing answer must sit within the
// budget at N and violate it at N+1 — and the over-budget probe must
// travel with the answer so the violation is diagnosable — and
// measurement-driven placement must never size a heterogeneous fleet
// below blind round-robin.
func TestFleetCapacity(t *testing.T) {
	mk := func(policy string) shard.Config {
		cfg := fleetCfg(policy, 1)
		cfg.Base.Protocol = "model" // frugal probes for a wide search
		cfg.Base.Span = 2 * simclock.Second
		return cfg
	}
	const maxUsers = 40
	caps := map[string]int{}
	for _, policy := range []string{shard.PolicyRoundRobin, shard.PolicyLatAware} {
		cap, err := shard.FleetCapacity(mk(policy), maxUsers)
		if err != nil {
			t.Fatal(err)
		}
		if cap.Users < 1 {
			t.Fatalf("%s: fleet of three machines admits nobody", policy)
		}
		if cap.At.Users != cap.Users {
			t.Fatalf("%s: returned result is for %d users, capacity %d", policy, cap.At.Users, cap.Users)
		}
		if cap.At.EchoP95Ms > 150 || cap.At.Censored >= cap.At.Interactions {
			t.Fatalf("%s: result at capacity already violates the budget: %+v", policy, cap.At)
		}
		if cap.Over.Users != cap.Users+1 {
			t.Fatalf("%s: over-budget probe ran %d users, want %d", policy, cap.Over.Users, cap.Users+1)
		}
		if cap.Users < maxUsers {
			if cap.Over.EchoP95Ms <= 150 && cap.Over.Censored < cap.Over.Interactions {
				t.Fatalf("%s: capacity %d but %d users still within budget (p95 %.2fms)",
					policy, cap.Users, cap.Users+1, cap.Over.EchoP95Ms)
			}
		}
		caps[policy] = cap.Users
	}
	if caps[shard.PolicyLatAware] < caps[shard.PolicyRoundRobin] {
		t.Fatalf("lataware capacity %d below roundrobin %d on a heterogeneous fleet",
			caps[shard.PolicyLatAware], caps[shard.PolicyRoundRobin])
	}
}

// TestFleetCapacityAllCensoredDiagnosable: a fleet whose every probe
// interaction is censored must report capacity 0 with the failing probe
// attached, its Censored count equal to its Interactions — the
// explicit "nothing ever completed" diagnosis, not a bare zero.
func TestFleetCapacityAllCensoredDiagnosable(t *testing.T) {
	cfg := fleetCfg(shard.PolicyRoundRobin, 1)
	cfg.Base.Protocol = "model"
	cfg.Base.Span = 2 * simclock.Second
	// A link so slow no echo ever returns within the window.
	cfg.Base.Link.RateMbps = 0.001
	cap, err := shard.FleetCapacity(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cap.Users != 0 {
		t.Fatalf("unreachable fleet reports capacity %d", cap.Users)
	}
	if cap.Over.Users != cap.Users+1 {
		t.Fatalf("capacity 0 with the failing probe at %d users, want 1", cap.Over.Users)
	}
	if cap.Over.Interactions == 0 || cap.Over.Censored < cap.Over.Interactions {
		t.Fatalf("failing probe not diagnosably all-censored: %d censored of %d interactions",
			cap.Over.Censored, cap.Over.Interactions)
	}
}

// churnCfg is the dynamic-fleet test configuration: the canonical
// heterogeneous fleet churning under schedule.Flat(rate), the fleet's
// churn process.
func churnCfg(policy string, users int, rate float64) shard.Config {
	cfg := fleetCfg(policy, users)
	cfg.Base.Span = 4 * simclock.Second
	flat := schedule.Flat(rate)
	cfg.Schedule = &flat
	return cfg
}

// TestFleetChurnRoutesReplacements: churn must seat the whole population
// at open, produce fleet-wide arrivals and departures — each departure
// handed over at once, so the two counts pair up — and stay
// deterministic, under every policy.
func TestFleetChurnRoutesReplacements(t *testing.T) {
	for _, policy := range shard.Policies() {
		cfg := churnCfg(policy, 12, 0.5)
		a := mustRun(t, cfg)
		if a.Arrivals == 0 || a.Departures == 0 {
			t.Fatalf("%s: 0.5/s churn over 4s produced no turnover: %+v", policy, a)
		}
		if a.Arrivals != a.Departures {
			t.Fatalf("%s: immediate handover must pair every departure with an arrival: %d vs %d",
				policy, a.Arrivals, a.Departures)
		}
		if sum(a.Placement) != cfg.Users {
			t.Fatalf("%s: time-zero placement %v loses users", policy, a.Placement)
		}
		if b := mustRun(t, cfg); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: identical churn configs diverged", policy)
		}
	}
}

// failCfg is the failover scenario the acceptance criteria name: the
// heterogeneous DefaultFleet, the weak machine killed mid-span, its users
// re-logging in through the live policy.
func failCfg(policy string) shard.Config {
	cfg := fleetCfg(policy, 22)
	cfg.Base.Span = 8 * simclock.Second
	cfg.KillShard = 2
	cfg.KillAt = 4 * simclock.Second
	return cfg
}

// TestFailoverExcursionAndRecovery is the failover contract: killing a
// machine mid-span must show up as a positive fleet p95 excursion at the
// kill, the fleet must recover (post-recovery slice p95 back within
// tolerance of the pre-kill baseline) under lataware placement, and
// measurement-driven re-placement must recover no slower than blind
// round-robin on the heterogeneous fleet.
func TestFailoverExcursionAndRecovery(t *testing.T) {
	results := map[string]shard.FleetResult{}
	for _, policy := range []string{shard.PolicyRoundRobin, shard.PolicyLatAware} {
		res := mustRun(t, failCfg(policy))
		if res.KilledShard != 2 || !res.Shards[2].Killed {
			t.Fatalf("%s: killed shard not marked: %+v", policy, res.KilledShard)
		}
		if res.Shards[2].Departures != res.Placement[2] {
			t.Fatalf("%s: kill logged out %d of the weak machine's %d users",
				policy, res.Shards[2].Departures, res.Placement[2])
		}
		if res.Arrivals < res.Placement[2] {
			t.Fatalf("%s: only %d re-logins for %d displaced users", policy, res.Arrivals, res.Placement[2])
		}
		if res.PeakKillP95Ms <= res.PreKillP95Ms {
			t.Fatalf("%s: no p95 excursion at the kill: peak %.1fms vs pre %.1fms",
				policy, res.PeakKillP95Ms, res.PreKillP95Ms)
		}
		results[policy] = res
	}
	lat := results[shard.PolicyLatAware]
	if lat.RecoveryMs < 0 {
		t.Fatalf("lataware fleet never recovered: timeline %v (pre %.1fms)",
			lat.P95TimelineMs, lat.PreKillP95Ms)
	}
	rr := results[shard.PolicyRoundRobin]
	rrRecovery := rr.RecoveryMs
	if rrRecovery < 0 {
		// Round-robin never recovering within the run counts as slower
		// than any measured lataware recovery.
		rrRecovery = float64((rr.Shards[0].Users + 1) * 1e9)
	}
	if lat.RecoveryMs > rrRecovery {
		t.Fatalf("lataware recovery %.0fms slower than roundrobin %.0fms",
			lat.RecoveryMs, rrRecovery)
	}
}

// TestFleetCapacityUnderChurn: capacity under churn can never exceed static
// capacity — every replacement login costs setup bytes and page-ins.
func TestFleetCapacityUnderChurn(t *testing.T) {
	mk := func() shard.Config {
		cfg := fleetCfg(shard.PolicyMemAware, 1)
		cfg.Base.Protocol = "model"
		cfg.Base.Span = 3 * simclock.Second
		return cfg
	}
	const maxUsers = 40
	static, err := shard.FleetCapacity(mk(), maxUsers)
	if err != nil {
		t.Fatal(err)
	}
	if static.Users < 1 {
		t.Fatal("static fleet admits nobody")
	}
	for _, rate := range []float64{0.25, 1.0} {
		cfg := mk()
		flat := schedule.Flat(rate)
		cfg.Schedule = &flat
		churned, err := shard.FleetCapacity(cfg, maxUsers)
		if err != nil {
			t.Fatal(err)
		}
		if churned.Users > static.Users {
			t.Fatalf("rate %.2f/s: churn-aware capacity %d above static %d",
				rate, churned.Users, static.Users)
		}
	}
}

// TestDynamicFleetWorkerInvariant: lifecycle plans are computed before any
// simulation runs, so a churned, growing, failing fleet must still be
// bit-identical at any worker count, for every policy. The profile opens
// half full, ramps the other half in over the span, and hands every
// departure over at once.
func TestDynamicFleetWorkerInvariant(t *testing.T) {
	ramp := schedule.Profile{
		Name:      "ramp",
		StartFrac: 0.5,
		Replace:   true,
		Timeline:  []schedule.Segment{{From: 0, Rate: 1}},
		Stay:      schedule.Stay{Kind: schedule.StayExp, Mean: 3300 * simclock.Millisecond},
	}
	for _, policy := range shard.Policies() {
		cfg := failCfg(policy)
		cfg.Base.Span = 5 * simclock.Second
		cfg.KillAt = 2 * simclock.Second
		cfg.Schedule = &ramp
		cfg.Workers = 1
		ref := mustRun(t, cfg)
		for _, workers := range []int{2, 8} {
			cfg.Workers = workers
			if got := mustRun(t, cfg); !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s: workers=%d diverged from sequential dynamic fleet", policy, workers)
			}
		}
	}
}

// TestKillValidation pins the failover configuration contract.
func TestKillValidation(t *testing.T) {
	cfg := fleetCfg(shard.PolicyRoundRobin, 6)
	cfg.KillAt = cfg.Base.Span // not before the span ends
	cfg.KillShard = 0
	if _, err := shard.Run(cfg); err == nil {
		t.Fatal("kill at span end accepted")
	}
	cfg = fleetCfg(shard.PolicyRoundRobin, 6)
	cfg.KillAt = 2 * simclock.Second
	cfg.KillShard = 7
	if _, err := shard.Run(cfg); err == nil {
		t.Fatal("kill of a machine outside the fleet accepted")
	}
	cfg = fleetCfg(shard.PolicyRoundRobin, 2)
	cfg.Machines = cfg.Machines[:1]
	cfg.KillAt = 2 * simclock.Second
	cfg.KillShard = 0
	if _, err := shard.Run(cfg); err == nil {
		t.Fatal("failover on a one-machine fleet accepted")
	}
	cfg = churnCfg(shard.PolicyRoundRobin, 6, 0.5)
	cfg.KillAt = server.TimelineSlice / 2
	cfg.KillShard = 0
	if _, err := shard.Run(cfg); err == nil {
		t.Fatal("kill inside the first timeline slice accepted")
	}
	cfg = churnCfg(shard.PolicyRoundRobin, 6, 0.5)
	cfg.KillAt = -simclock.Second
	if _, err := shard.Run(cfg); err == nil {
		t.Fatal("negative kill time accepted")
	}
}
