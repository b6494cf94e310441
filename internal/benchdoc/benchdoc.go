// Package benchdoc builds the repo's machine-readable bench trajectory
// documents (BENCH_contention.json, BENCH_shard.json, BENCH_churn.json,
// BENCH_schedule.json, BENCH_control.json, BENCH_speed.json,
// BENCH_paper.json). The cmd/thinbench CLI renders these documents to
// the terminal and serializes them; tests regenerate them in-process and
// golden-diff the numeric fields against the checked-in baselines, so a
// refactor that drifts a single number fails before CI does.
//
// Every builder takes the raw CLI flag strings it was invoked with and
// embeds the exact reproduction command in the document. Command parses
// that record back into the same builder call, which is what makes a
// checked-in baseline its own regeneration recipe.
package benchdoc

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/shard"
	"thinbench/internal/simclock"
	"thinbench/internal/speed"
)

// ContentionDoc is the latency-vs-users grid on one shared server per
// data point.
type ContentionDoc struct {
	Command   string            `json:"command"`
	Seed      uint64            `json:"seed"`
	SpanSec   float64           `json:"span_sec"`
	Users     []int             `json:"users"`
	Scenarios []server.Scenario `json:"scenarios"`
}

// Contention sweeps user counts over one shared server per data point.
func Contention(users, protos, scheds string, quick bool, seed uint64, workers int) (ContentionDoc, error) {
	counts, err := parseCounts(users)
	if err != nil {
		return ContentionDoc{}, err
	}
	base := server.DefaultConfig()
	base.Span = 10 * simclock.Second
	if quick {
		base.Span = 3 * simclock.Second
	}
	protoList := SplitList(protos)
	schedList := SplitList(scheds)
	// An empty axis would legally produce an empty grid; at the CLI that
	// is always a mistyped flag, so fail instead of printing zero rows.
	if len(protoList) == 0 {
		return ContentionDoc{}, fmt.Errorf("empty -proto list")
	}
	if len(schedList) == 0 {
		return ContentionDoc{}, fmt.Errorf("empty -sched list")
	}
	grid, err := server.Grid(base, protoList, schedList, counts, workers, seed)
	if err != nil {
		return ContentionDoc{}, err
	}
	return ContentionDoc{
		Command: fmt.Sprintf("thinbench -run contention -users %s -proto %s -sched %s -seed %d -quick=%v",
			users, protos, scheds, seed, quick),
		Seed:      seed,
		SpanSec:   base.Span.Seconds(),
		Users:     counts,
		Scenarios: grid,
	}, nil
}

// ShardDoc is the fleet-level p95 versus total population, per placement
// policy.
type ShardDoc struct {
	Command  string          `json:"command"`
	Seed     uint64          `json:"seed"`
	SpanSec  float64         `json:"span_sec"`
	Machines []shard.Machine `json:"machines"`
	Users    []int           `json:"users"`
	Policies []PolicySeries  `json:"policies"`
}

// PolicySeries is one placement policy's fleet results across a sweep.
type PolicySeries struct {
	Policy string              `json:"policy"`
	Points []shard.FleetResult `json:"points"`
}

// Shard sweeps total population over a heterogeneous fleet per placement
// policy.
func Shard(users, policies string, machines int, quick bool, seed uint64, workers int) (ShardDoc, error) {
	counts, err := parseCounts(users)
	if err != nil {
		return ShardDoc{}, err
	}
	policyList := SplitList(policies)
	if len(policyList) == 0 {
		return ShardDoc{}, fmt.Errorf("empty -policy list")
	}
	if machines < 1 {
		return ShardDoc{}, fmt.Errorf("bad -shards count %d (want >= 1)", machines)
	}
	base := server.DefaultConfig()
	base.Span = 10 * simclock.Second
	probeSpan := 2 * simclock.Second
	if quick {
		base.Span = 3 * simclock.Second
		probeSpan = simclock.Second
	}
	fleet := shard.DefaultFleet(machines)
	doc := ShardDoc{
		Command: fmt.Sprintf("thinbench -run shard -shards %d -policy %s -users %s -seed %d -quick=%v",
			machines, policies, users, seed, quick),
		Seed:     seed,
		SpanSec:  base.Span.Seconds(),
		Machines: fleet,
		Users:    counts,
	}
	for _, policy := range policyList {
		ps := PolicySeries{Policy: policy}
		for _, n := range counts {
			fr, err := shard.Run(shard.Config{
				Base:      base,
				Machines:  fleet,
				Users:     n,
				Policy:    policy,
				ProbeSpan: probeSpan,
				Workers:   workers,
				Seed:      seed,
			})
			if err != nil {
				return ShardDoc{}, err
			}
			ps.Points = append(ps.Points, fr)
		}
		doc.Policies = append(doc.Policies, ps)
	}
	return doc, nil
}

// ChurnDoc is the dynamic-fleet result: the turnover grid plus the
// failover runs.
type ChurnDoc struct {
	Command    string          `json:"command"`
	Seed       uint64          `json:"seed"`
	SpanSec    float64         `json:"span_sec"`
	Machines   []shard.Machine `json:"machines"`
	Users      int             `json:"users"`
	ChurnRates []float64       `json:"churn_rates"`
	Policies   []PolicySeries  `json:"policies"`
	Failover   []PolicyFail    `json:"failover,omitempty"`
}

// PolicyFail is one policy's machine-kill failover run.
type PolicyFail struct {
	Policy string            `json:"policy"`
	Result shard.FleetResult `json:"result"`
}

// Churn holds one fleet population, sweeps the session turnover rate per
// policy — schedule.Flat(rate) for every rate above 0, the static fleet
// at 0 — then (unless killShard is negative) kills a machine and
// measures the failover excursion per policy.
func Churn(users, policies, churnRates string, machines, killShard int, killAtSec float64,
	quick bool, seed uint64, workers int) (ChurnDoc, error) {
	counts, err := parseCounts(users)
	if err != nil {
		return ChurnDoc{}, err
	}
	if len(counts) != 1 {
		return ChurnDoc{}, fmt.Errorf("churn mode holds one population; give a single -users count, not %v", counts)
	}
	n := counts[0]
	var rates []float64
	for _, f := range SplitList(churnRates) {
		r, err := strconv.ParseFloat(f, 64)
		if err != nil || !(r >= 0) {
			return ChurnDoc{}, fmt.Errorf("bad -churn rate %q", f)
		}
		if r > 0 {
			if err := schedule.Flat(r).Validate(); err != nil {
				return ChurnDoc{}, fmt.Errorf("bad -churn rate %q: %v", f, err)
			}
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return ChurnDoc{}, fmt.Errorf("empty -churn list")
	}
	policyList := SplitList(policies)
	if len(policyList) == 0 {
		return ChurnDoc{}, fmt.Errorf("empty -policy list")
	}
	if machines < 1 {
		return ChurnDoc{}, fmt.Errorf("bad -shards count %d (want >= 1)", machines)
	}
	base := server.DefaultConfig()
	base.Span = 10 * simclock.Second
	probeSpan := 2 * simclock.Second
	if quick {
		base.Span = 4 * simclock.Second
		probeSpan = simclock.Second
	}
	killAt := simclock.Duration(killAtSec * 1e6)
	if killShard >= 0 && killAt <= 0 {
		return ChurnDoc{}, fmt.Errorf("-killat %g: the failover kill needs a positive time (or -kill -1 to disable)", killAtSec)
	}
	if killShard >= 0 && killAt >= base.Span {
		return ChurnDoc{}, fmt.Errorf("-killat %g: the kill must land before the %v span", killAtSec, base.Span)
	}
	fleet := shard.DefaultFleet(machines)
	mk := func(policy string) shard.Config {
		return shard.Config{
			Base:      base,
			Machines:  fleet,
			Users:     n,
			Policy:    policy,
			ProbeSpan: probeSpan,
			Workers:   workers,
			Seed:      seed,
		}
	}
	doc := ChurnDoc{
		Command: fmt.Sprintf("thinbench -run churn -shards %d -policy %s -users %d -churn %s -kill %d -killat %g -seed %d -quick=%v",
			machines, policies, n, churnRates, killShard, killAtSec, seed, quick),
		Seed:       seed,
		SpanSec:    base.Span.Seconds(),
		Machines:   fleet,
		Users:      n,
		ChurnRates: rates,
	}
	for _, policy := range policyList {
		ps := PolicySeries{Policy: policy}
		for _, rate := range rates {
			cfg := mk(policy)
			if rate > 0 {
				flat := schedule.Flat(rate)
				cfg.Schedule = &flat
			}
			fr, err := shard.Run(cfg)
			if err != nil {
				return ChurnDoc{}, err
			}
			ps.Points = append(ps.Points, fr)
		}
		doc.Policies = append(doc.Policies, ps)
	}
	if killShard >= 0 {
		for _, policy := range policyList {
			cfg := mk(policy)
			cfg.KillShard = killShard
			cfg.KillAt = killAt
			fr, err := shard.Run(cfg)
			if err != nil {
				return ChurnDoc{}, err
			}
			doc.Failover = append(doc.Failover, PolicyFail{Policy: policy, Result: fr})
		}
	}
	return doc, nil
}

// ScheduleDoc is the trace-shaped arrival result: per-profile,
// per-policy fleet runs plus the mid-ramp machine-kill failover runs.
// Each profile's text definition rides along, so a checked-in baseline
// records exactly the day it measured.
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

// ResolveProfile turns a -profile entry into a schedule: a built-in name
// (flat, officeday, shiftchange) or @path to a file in the schedule text
// format.
func ResolveProfile(spec string) (schedule.Profile, error) {
	if path, ok := strings.CutPrefix(spec, "@"); ok {
		text, err := os.ReadFile(path)
		if err != nil {
			return schedule.Profile{}, err
		}
		return schedule.Parse(string(text))
	}
	p, ok := schedule.Builtin(spec)
	if !ok {
		return schedule.Profile{}, fmt.Errorf("unknown profile %q (built-ins: %s; or @file)",
			spec, strings.Join(schedule.Builtins(), ", "))
	}
	return p, nil
}

// Schedule holds one fleet population and drives it from each arrival
// profile per placement policy, then (unless killShard is negative)
// repeats each run with a machine kill at killAtSec — by default placed
// inside the morning ramp, the failover-under-surge measurement this
// whole layer exists for.
func Schedule(users, profiles, policies string, machines, killShard int, killAtSec float64,
	quick bool, seed uint64, workers int) (ScheduleDoc, error) {
	counts, err := parseCounts(users)
	if err != nil {
		return ScheduleDoc{}, err
	}
	if len(counts) != 1 {
		return ScheduleDoc{}, fmt.Errorf("schedule mode holds one population; give a single -users count, not %v", counts)
	}
	n := counts[0]
	profileList := SplitList(profiles)
	if len(profileList) == 0 {
		return ScheduleDoc{}, fmt.Errorf("empty -profile list")
	}
	policyList := SplitList(policies)
	if len(policyList) == 0 {
		return ScheduleDoc{}, fmt.Errorf("empty -policy list")
	}
	if machines < 1 {
		return ScheduleDoc{}, fmt.Errorf("bad -shards count %d (want >= 1)", machines)
	}
	base := server.DefaultConfig()
	base.Span = 10 * simclock.Second
	probeSpan := 2 * simclock.Second
	if quick {
		base.Span = 6 * simclock.Second
		probeSpan = simclock.Second
	}
	killAt := simclock.Duration(killAtSec * 1e6)
	if killShard >= 0 && killAt <= 0 {
		return ScheduleDoc{}, fmt.Errorf("-killat %g: the failover kill needs a positive time (or -kill -1 to disable)", killAtSec)
	}
	if killShard >= 0 && killAt >= base.Span {
		return ScheduleDoc{}, fmt.Errorf("-killat %g: the kill must land before the %v span", killAtSec, base.Span)
	}
	fleet := shard.DefaultFleet(machines)
	doc := ScheduleDoc{
		Command: fmt.Sprintf("thinbench -run schedule -shards %d -policy %s -users %d -profile %s -kill %d -killat %g -seed %d -quick=%v",
			machines, policies, n, profiles, killShard, killAtSec, seed, quick),
		Seed:     seed,
		SpanSec:  base.Span.Seconds(),
		Machines: fleet,
		Users:    n,
	}
	if killShard >= 0 {
		doc.KillAt = killAt.Seconds()
	}
	for _, spec := range profileList {
		prof, err := ResolveProfile(spec)
		if err != nil {
			return ScheduleDoc{}, err
		}
		pr := ProfileRuns{Profile: prof.Name, Definition: schedule.Format(prof)}
		for _, policy := range policyList {
			prof := prof
			fr, err := shard.Run(shard.Config{
				Base:      base,
				Machines:  fleet,
				Users:     n,
				Policy:    policy,
				Schedule:  &prof,
				ProbeSpan: probeSpan,
				Workers:   workers,
				Seed:      seed,
			})
			if err != nil {
				return ScheduleDoc{}, err
			}
			pr.Policies = append(pr.Policies, PolicyResult{Policy: policy, Result: fr})
		}
		doc.Profiles = append(doc.Profiles, pr)
		if killShard >= 0 {
			for _, policy := range policyList {
				prof := prof
				fr, err := shard.Run(shard.Config{
					Base:      base,
					Machines:  fleet,
					Users:     n,
					Policy:    policy,
					Schedule:  &prof,
					KillShard: killShard,
					KillAt:    killAt,
					ProbeSpan: probeSpan,
					Workers:   workers,
					Seed:      seed,
				})
				if err != nil {
					return ScheduleDoc{}, err
				}
				doc.Failover = append(doc.Failover, ProfileFail{Profile: prof.Name, Policy: policy, Result: fr})
			}
		}
	}
	return doc, nil
}

// SpeedDoc is the simulator-speed trajectory (BENCH_speed.json): the
// canonical workloads' event counts, which are deterministic and
// golden-diffed, and their allocation counts, which are ratcheted.
type SpeedDoc struct {
	Command   string         `json:"command"`
	Seed      uint64         `json:"seed"`
	Workers   int            `json:"workers"`
	Workloads []speed.Report `json:"workloads"`
}

// Speed measures the canonical speed workloads. Allocation counts are
// exact only at workers=1 with no concurrent activity in the process; the
// checked-in baseline is always regenerated that way.
func Speed(quick bool, seed uint64, workers int) (SpeedDoc, error) {
	doc := SpeedDoc{
		Command: fmt.Sprintf("thinbench -run speed -parallel %d -seed %d -quick=%v", workers, seed, quick),
		Seed:    seed,
		Workers: workers,
	}
	for _, w := range speed.Workloads(quick) {
		r, err := speed.Measure(w, seed, workers)
		if err != nil {
			return SpeedDoc{}, err
		}
		doc.Workloads = append(doc.Workloads, r)
	}
	return doc, nil
}

// parseCounts accepts "A..B" ranges and comma lists of user counts.
func parseCounts(s string) ([]int, error) {
	if lo, hi, ok := strings.Cut(s, ".."); ok {
		a, err1 := strconv.Atoi(strings.TrimSpace(lo))
		b, err2 := strconv.Atoi(strings.TrimSpace(hi))
		if err1 != nil || err2 != nil || a < 1 || b < a {
			return nil, fmt.Errorf("bad -users range %q (want e.g. 1..16)", s)
		}
		// Wide ranges step so the sweep stays a handful of points per
		// scenario; narrow ranges probe every count.
		step := 1
		if n := b - a + 1; n > 8 {
			step = (n + 7) / 8
		}
		var out []int
		for c := a; c <= b; c += step {
			out = append(out, c)
		}
		if out[len(out)-1] != b {
			out = append(out, b)
		}
		return out, nil
	}
	var out []int
	for _, f := range SplitList(s) {
		c, err := strconv.Atoi(f)
		if err != nil || c < 1 {
			return nil, fmt.Errorf("bad -users entry %q", f)
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -users list")
	}
	return out, nil
}

// SplitList splits a comma list, dropping empty entries.
func SplitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
