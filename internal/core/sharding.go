package core

import (
	"math"

	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/shard"
	"thinbench/internal/simclock"
)

func init() {
	register(Experiment{
		ID:    "shard1",
		Title: "Fleet sharding: placement policy versus fleet-level p95 latency",
		Paper: "Beyond the paper: it sizes one multi-user machine; a fleet of them serving one population turns sizing into placement. Round-robin, memory-aware (the §5.1.1 division per machine), and latency-aware (probe the paper's own metric) placement over a heterogeneous fleet.",
		Run:   runShard1,
	})
}

// Fleet is the scenario the shard, churn and schedule families share:
// the heterogeneous fleet shard.DefaultFleet(Machines) run under each
// placement policy, each run a set of complete shared servers fanned out
// across the farm. The families differ only in the axis they sweep. A
// positive KillAt adds the churn and schedule families' failover runs,
// which fail machine KillShard at that instant; the shard family runs
// none.
type Fleet struct {
	Machines        int
	Policies        []string
	Span, ProbeSpan simclock.Duration
	KillShard       int
	KillAt          simclock.Duration
}

// config is one fleet run of users seats under policy, driven by prof
// when it is non-nil and failing machine KillShard when kill is set.
func (f Fleet) config(users int, policy string, prof *schedule.Profile, kill bool, seed uint64, workers int) shard.Config {
	base := server.DefaultConfig()
	base.Span = f.Span
	cfg := shard.Config{
		Base:      base,
		Machines:  shard.DefaultFleet(f.Machines),
		Users:     users,
		Policy:    policy,
		Schedule:  prof,
		ProbeSpan: f.ProbeSpan,
		Workers:   workers,
		Seed:      seed,
	}
	if kill {
		cfg.KillShard, cfg.KillAt = f.KillShard, f.KillAt
	}
	return cfg
}

// Shard sweeps total population over the fleet per placement policy.
type Shard struct {
	Fleet
	Users []int
}

// ShardDoc is the fleet-level p95 versus total population, per placement
// policy (BENCH_shard.json).
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

// Build runs every (policy, population) fleet.
func (s Shard) Build(seed uint64, workers int) (ShardDoc, error) {
	doc := ShardDoc{Seed: seed, SpanSec: s.Span.Seconds(), Machines: shard.DefaultFleet(s.Machines), Users: s.Users}
	for _, policy := range s.Policies {
		ps := PolicySeries{Policy: policy}
		for _, n := range s.Users {
			fr, err := shard.Run(s.config(n, policy, nil, false, seed, workers))
			if err != nil {
				return ShardDoc{}, err
			}
			ps.Points = append(ps.Points, fr)
		}
		doc.Policies = append(doc.Policies, ps)
	}
	return doc, nil
}

// Claims: no policy's fleet p95 falls as the population grows, and
// latency-aware placement is no worse than round-robin at any
// population.
func (d ShardDoc) Claims() []Claim {
	if len(d.Policies) == 0 {
		return nil
	}
	dip := 0.0
	for _, ps := range d.Policies {
		dip = max(dip, largestDip(p95s(ps.Points)))
	}
	out := []Claim{{ID: "shard.p95_dip", Statement: "the largest fall of any policy's fleet p95 as the population grows",
		Value: dip, Unit: "ms", Band: atMost(dipTolMs)}}
	rr, lat := policyPoints(d.Policies, shard.PolicyRoundRobin), policyPoints(d.Policies, shard.PolicyLatAware)
	if rr != nil && lat != nil {
		worst := math.Inf(-1)
		for i := range rr {
			worst = max(worst, lat[i].EchoP95Ms-rr[i].EchoP95Ms)
		}
		out = append(out, Claim{ID: "shard.lataware_vs_roundrobin", Statement: "lataware's fleet p95 minus roundrobin's at the population worst for lataware",
			Value: worst, Unit: "ms", Band: atMost(0)})
	}
	return out
}

// policyPoints is the named policy's series, nil when the sweep has none.
func policyPoints(series []PolicySeries, policy string) []shard.FleetResult {
	for _, ps := range series {
		if ps.Policy == policy {
			return ps.Points
		}
	}
	return nil
}

func p95s(points []shard.FleetResult) []float64 {
	ys := make([]float64, len(points))
	for i, fr := range points {
		ys[i] = fr.EchoP95Ms
	}
	return ys
}

// recoveryMs is a failover's recovery time with "never within the run"
// (-1) read as forever.
func recoveryMs(fr shard.FleetResult) float64 {
	if fr.RecoveryMs < 0 {
		return math.Inf(1)
	}
	return fr.RecoveryMs
}

// canonicalFleet is the registry's fleet: the heterogeneous three-machine
// fleet under every placement policy.
func canonicalFleet(span, probeSpan simclock.Duration) Fleet {
	return Fleet{Machines: 3, Policies: shard.Policies(), Span: span, ProbeSpan: probeSpan}
}

// runShard1 sweeps total population across the canonical fleet: one
// series per policy, fleet-level p95 versus total users.
func runShard1(cfg Config) (*Result, error) {
	s := Shard{Fleet: canonicalFleet(6*simclock.Second, 2*simclock.Second), Users: []int{6, 12, 18, 24, 30}}
	if cfg.Quick {
		s.Span, s.ProbeSpan, s.Users = 2*simclock.Second, simclock.Second, []int{4, 10, 16, 22}
	}
	doc, err := s.Build(cfg.Seed, 0)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "shard1", Title: "Fleet-level p95 echo latency vs total users, by placement policy"}
	for _, ps := range doc.Policies {
		res.Series = append(res.Series, fleetSweep(ps.Policy, "total fleet users", doc.Users, ps.Points))
		last := ps.Points[len(ps.Points)-1]
		res.Notef("%s places %d users as %v (per-shard p95 max %.0f ms)",
			ps.Policy, last.Users, last.Placement, last.MaxShardP95Ms)
	}
	res.Notef("fleet: %d machines cycling big (128 MB, 1.5x CPU) / base (%d MB) / weak (48 MB, 0.6x CPU); each point runs every shard as a complete shared server",
		len(doc.Machines), server.DefaultConfig().PhysicalKB/1024)
	res.Notef("fleet p95 comes from merged per-shard latency histograms (%gms buckets): percentiles of separate machines cannot be combined after the fact", shard.HistBucketMs)
	res.Claims = doc.Claims()
	return res, nil
}

const fleetP95 = "fleet p95 echo latency (ms)"

// fleetSweep is one policy's fleet p95 series over a sweep axis.
func fleetSweep[X int | float64](label, xLabel string, x []X, points []shard.FleetResult) Series {
	s := Series{Label: label, XLabel: xLabel, YLabel: fleetP95}
	for i, fr := range points {
		s.X = append(s.X, float64(x[i]))
		s.Y = append(s.Y, fr.EchoP95Ms)
	}
	return s
}

// timeline is one fleet run's per-slice p95 series.
func timeline(label string, fr shard.FleetResult) Series {
	s := Series{Label: label, XLabel: "time (s, slice end)", YLabel: fleetP95}
	for i, p95 := range fr.P95TimelineMs {
		s.X = append(s.X, float64(i+1))
		s.Y = append(s.Y, p95)
	}
	return s
}

// recovery renders a failover run's recovery time.
func recovery(fr shard.FleetResult) string {
	if fr.RecoveryMs < 0 {
		return "never within the run"
	}
	return simclock.Millis(fr.RecoveryMs).String()
}
