package core

import (
	"math"
	"slices"

	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/shard"
	"thinbench/internal/simclock"
)

func init() {
	register(Experiment{
		ID:    "day1",
		Title: "An office day: fleet arrivals and p95 timeline under the OfficeDay schedule",
		Paper: "Beyond the paper's steady state and PR 4's memoryless churn: §5 argues interactive load is bursty and correlated, so the lifecycle is driven by an empirical-shaped day — 9 AM login storm, lunch dip, close-of-day exodus — replayed across the fleet, every arrival routed through the live placement policy.",
		Run:   runDay1,
	})
	register(Experiment{
		ID:    "storm1",
		Title: "Login storm failover: a machine kill during the 9 AM ramp versus under flat load",
		Paper: "Beyond the paper, echoing SLIM's stateless-client claim (PAPERS.md) that re-login storms are the thin-client stress case: the weak machine dies in the middle of the morning ramp, so its displaced users re-login into the surge. Compared against the same kill under flat (memoryless) churn at equal population.",
		Run:   runStorm1,
	})
}

// Schedule holds one fleet population and drives it from each arrival
// profile per placement policy. With a kill it repeats each profile's
// runs with the machine failing at KillAt — inside the morning ramp, the
// failover-under-surge measurement this whole layer exists for.
type Schedule struct {
	Fleet
	Users    int
	Profiles []schedule.Profile
}

// ScheduleDoc is the trace-shaped arrival result: per-profile,
// per-policy fleet runs plus the machine-kill failover runs
// (BENCH_schedule.json). Each profile's text definition rides along, so
// a checked-in baseline records exactly the day it measured.
type ScheduleDoc struct {
	Command  string          `json:"command"`
	Seed     uint64          `json:"seed"`
	SpanSec  float64         `json:"span_sec"`
	Machines []shard.Machine `json:"machines"`
	Users    int             `json:"users"`
	KillAt   float64         `json:"kill_at_sec,omitempty"`
	Profiles []ProfileRuns   `json:"profiles"`
	Failover []ProfileFail   `json:"failover,omitempty"`
}

// ProfileRuns is one arrival profile's no-kill fleet runs, per policy.
type ProfileRuns struct {
	Profile    string         `json:"profile"`
	Definition string         `json:"definition"`
	Policies   []PolicyResult `json:"policies"`
}

// PolicyResult is one (profile, policy) fleet run.
type PolicyResult struct {
	Policy string            `json:"policy"`
	Result shard.FleetResult `json:"result"`
}

// ProfileFail is one (profile, policy) machine-kill failover run.
type ProfileFail struct {
	Profile string            `json:"profile"`
	Policy  string            `json:"policy"`
	Result  shard.FleetResult `json:"result"`
}

// Build runs, profile by profile, every policy without the kill and then
// every policy with it.
func (s Schedule) Build(seed uint64, workers int) (ScheduleDoc, error) {
	doc := ScheduleDoc{Seed: seed, SpanSec: s.Span.Seconds(), Machines: shard.DefaultFleet(s.Machines), Users: s.Users, KillAt: s.KillAt.Seconds()}
	for _, prof := range s.Profiles {
		pr := ProfileRuns{Profile: prof.Name, Definition: schedule.Format(prof)}
		for _, policy := range s.Policies {
			fr, err := shard.Run(s.config(s.Users, policy, &prof, false, seed, workers))
			if err != nil {
				return ScheduleDoc{}, err
			}
			pr.Policies = append(pr.Policies, PolicyResult{Policy: policy, Result: fr})
		}
		doc.Profiles = append(doc.Profiles, pr)
		for _, policy := range s.Policies {
			if s.KillAt <= 0 {
				break // no failover runs
			}
			fr, err := shard.Run(s.config(s.Users, policy, &prof, true, seed, workers))
			if err != nil {
				return ScheduleDoc{}, err
			}
			doc.Failover = append(doc.Failover, ProfileFail{Profile: prof.Name, Policy: policy, Result: fr})
		}
	}
	return doc, nil
}

// The office day's storm window ends at stormEnd of the span, and its
// logins land within stormSlack slices of it: its peak slice sits there,
// not in the afternoon.
const (
	stormEnd   = 0.19
	stormSlack = 3
)

// Claims: the office day's no-kill timeline peaks in the 9 AM ramp and,
// under each policy, at least as high as the flat profile's whole-run
// p95; the flat-load kill recovers, and a kill inside the storm
// recovers no faster.
func (d ScheduleDoc) Claims() []Claim {
	day, flat := schedule.OfficeDay().Name, schedule.Flat(schedule.DefaultFlatRate).Name
	runs := map[[2]string]shard.FleetResult{}
	for _, p := range d.Profiles {
		for _, pp := range p.Policies {
			runs[[2]string{p.Profile, pp.Policy}] = pp.Result
		}
	}
	fail := map[[2]string]shard.FleetResult{}
	for _, f := range d.Failover {
		fail[[2]string{f.Profile, f.Policy}] = f.Result
	}
	var out []Claim
	if r, ok := runs[[2]string{day, shard.PolicyRoundRobin}]; ok && len(r.P95TimelineMs) > 0 {
		tl, peak := r.P95TimelineMs, 0
		for i, v := range tl {
			if v > tl[peak] {
				peak = i
			}
		}
		out = append(out, Claim{ID: "schedule.ramp_peak", Statement: "the slice where the office day's no-kill roundrobin p95 peaks: inside the 9 AM ramp",
			Value: float64(peak), Unit: "slice", Band: within(1, float64(int(stormEnd*float64(len(tl)))+stormSlack))})
	}
	gap, compared := math.Inf(1), false
	for _, policy := range []string{shard.PolicyRoundRobin, shard.PolicyLatAware} {
		storm, ok1 := runs[[2]string{day, policy}]
		even, ok2 := runs[[2]string{flat, policy}]
		if ok1 && ok2 && len(storm.P95TimelineMs) > 0 {
			gap, compared = min(gap, slices.Max(storm.P95TimelineMs)-even.EchoP95Ms), true
		}
	}
	if compared {
		out = append(out, Claim{ID: "schedule.storm_peak_vs_flat", Statement: "the office day's peak slice minus flat load's whole-run p95, under the policy where it is least",
			Value: gap, Unit: "ms", Band: atLeast(0)})
	}
	stormKill, ok1 := fail[[2]string{day, shard.PolicyRoundRobin}]
	flatKill, ok2 := fail[[2]string{flat, shard.PolicyRoundRobin}]
	if ok2 {
		out = append(out, Claim{ID: "schedule.flat_kill_recovery", Statement: "the flat-load kill recovers within the run (-1: never)",
			Value: flatKill.RecoveryMs, Unit: "ms", Band: atLeast(0)})
	}
	if ok1 && ok2 {
		out = append(out, Claim{ID: "schedule.storm_vs_flat_recovery", Statement: "the mid-storm kill's recovery minus the flat-load kill's (storm never recovering: forever)",
			Value: recoveryMs(stormKill) - flatKill.RecoveryMs, Unit: "ms", Band: atLeast(0)})
	}
	return out
}

// scheduleFleet is the registry's schedule scenario: users seats of the
// canonical fleet, spanned long enough for a whole compressed office day.
func scheduleFleet(cfg Config, users int, policies []string, profiles ...schedule.Profile) Schedule {
	s := Schedule{Fleet: canonicalFleet(10*simclock.Second, 2*simclock.Second), Users: users, Profiles: profiles}
	s.Policies = policies
	if cfg.Quick {
		s.Span = 6 * simclock.Second
	}
	return s
}

// runDay1 replays the OfficeDay profile across the fleet, one series per
// placement policy, plus the compiled arrival counts per second so the
// latency timeline can be read against the storm that causes it.
func runDay1(cfg Config) (*Result, error) {
	s := scheduleFleet(cfg, 18, []string{shard.PolicyRoundRobin, shard.PolicyLatAware}, schedule.OfficeDay())
	doc, err := s.Build(cfg.Seed, 0)
	if err != nil {
		return nil, err
	}
	// The offered load: arrivals per timeline slice, from the same
	// compiled plan the fleet executes (the fleet stream differs per
	// policy only in placement, never in arrival times).
	plan, err := s.config(s.Users, "", &s.Profiles[0], false, cfg.Seed, 0).SchedulePlan()
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "day1", Title: "Fleet p95 timeline through an office day, by placement policy"}
	arrivals := Series{Label: "arrivals", XLabel: "time (s, slice end)", YLabel: "logins in slice"}
	counts := make([]float64, server.TimelineSlices(s.Span))
	for _, ep := range plan {
		if ep.Login > 0 {
			counts[int(simclock.Duration(ep.Login)/server.TimelineSlice)]++
		}
	}
	total := 0.0
	for i, c := range counts {
		arrivals.X = append(arrivals.X, float64(i+1))
		arrivals.Y = append(arrivals.Y, c)
		total += c
	}
	res.Series = append(res.Series, arrivals)
	for _, pp := range doc.Profiles[0].Policies {
		fr := pp.Result
		res.Series = append(res.Series, timeline(pp.Policy, fr))
		res.Notef("%s: %d at open %v, %d arrivals, %d departures, slowest login %.0f ms",
			pp.Policy, sum(fr.Placement), fr.Placement, fr.Arrivals, fr.Departures, fr.LoginMaxMs)
	}
	res.Notef("%d seats under OfficeDay: the span maps 7:30-18:00, the 9 AM storm lands at 0.13-0.19 of it, arrivals stop after the 17:00 close", s.Users)
	res.Notef("every arrival pays its protocol handshake on the shard's contended link, full-manifest page-ins, and login process creation before the first echo counts")
	res.Claims = append(doc.Claims(), Claim{ID: "day1.arrivals", Statement: "mid-run logins the office day offers",
		Value: total, Unit: "logins", Band: atLeast(10)})
	return res, nil
}

func sum(counts []int) int {
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// storm1 kills the weak machine in the middle of the 9 AM ramp and, for
// comparison, under flat load, on round-robin placement: the displaced
// users re-login into a surge in one case and a trickle in the other.
func storm1(cfg Config) Schedule {
	s := scheduleFleet(cfg, 15, []string{shard.PolicyRoundRobin}, schedule.OfficeDay(), schedule.Flat(schedule.DefaultFlatRate))
	s.KillShard, s.KillAt = 2, 2*simclock.Second // the weak 48 MB, 0.6x machine
	return s
}

// runStorm1 renders the office day's no-kill timeline and both kills'
// excursions and recoveries; the flat profile's no-kill run goes unused.
func runStorm1(cfg Config) (*Result, error) {
	s := storm1(cfg)
	doc, err := s.Build(cfg.Seed, 0)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "storm1", Title: "Fleet p95 timeline through a machine kill, storm versus flat arrivals"}
	day := doc.Profiles[0].Policies[0].Result
	res.Series = append(res.Series, timeline(doc.Profiles[0].Profile, day))
	res.Notef("%s: no kill; %d arrivals, slowest login %.0f ms — the baseline ramp", doc.Profiles[0].Profile, day.Arrivals, day.LoginMaxMs)
	for _, pf := range doc.Failover {
		fr := pf.Result
		res.Series = append(res.Series, timeline(pf.Profile+"+kill", fr))
		res.Notef("%s+kill: kill displaced %d users at %v; p95 pre-kill %.0f ms, peak %.0f ms, recovered in %s",
			pf.Profile, fr.Shards[fr.KilledShard].Departures, s.KillAt, fr.PreKillP95Ms, fr.PeakKillP95Ms, recovery(fr))
	}
	storm, flat := doc.Failover[0].Result.RecoveryMs, doc.Failover[1].Result.RecoveryMs
	switch {
	case storm < 0 && flat >= 0:
		res.Notef("the storm-time kill never recovered within the run; the flat-load kill recovered in %.0f ms", flat)
	case storm >= 0 && flat >= 0:
		res.Notef("recovery: %.0f ms after a storm-time kill vs %.0f ms under flat load", storm, flat)
	case storm >= 0:
		res.Notef("the flat-load kill never recovered within the run; the storm-time kill recovered in %.0f ms", storm)
	default:
		res.Notef("neither kill recovered within the run")
	}
	res.Notef("%d users, roundrobin placement; machine 2 (48 MB, 0.6x) killed at %v of %v, mid-ramp, so its users re-login into the surge",
		s.Users, s.KillAt, s.Span)
	res.Claims = doc.Claims()
	return res, nil
}
