package core

import (
	"thinbench/internal/schedule"
	"thinbench/internal/shard"
	"thinbench/internal/simclock"
)

func init() {
	register(Experiment{
		ID:    "churn1",
		Title: "Session churn: fleet p95 latency versus login/logout turnover rate",
		Paper: "Beyond the paper's steady state: it prices session setup (tab4's handshake bytes) and login memory (§5.1.1) but measures populations that log in once. Here every departure is replaced by a fresh login that pays both costs on the live fleet, swept over turnover rates per placement policy.",
		Run:   runChurn1,
	})
	register(Experiment{
		ID:    "fail1",
		Title: "Shard failover: fleet p95 excursion and recovery after a machine dies",
		Paper: "Beyond the paper: kill the weak machine of the heterogeneous fleet mid-span; its users' interactions censor at the kill and they re-login elsewhere through the live placement policy, paying full session setup. Measured as the per-second fleet p95 timeline around the kill, per policy.",
		Run:   runFail1,
	})
}

// Churn holds one fleet population and sweeps the session turnover rate
// per policy: schedule.Flat(rate) for every rate above 0, the static
// fleet at 0. With a kill it then measures the failover excursion per
// policy on the static fleet.
type Churn struct {
	Fleet
	Users int
	Rates []float64
}

// ChurnDoc is the dynamic-fleet result: the turnover grid plus the
// failover runs (BENCH_churn.json).
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

// Build runs the turnover grid, then the failover runs.
func (s Churn) Build(seed uint64, workers int) (ChurnDoc, error) {
	doc := ChurnDoc{Seed: seed, SpanSec: s.Span.Seconds(), Machines: shard.DefaultFleet(s.Machines), Users: s.Users, ChurnRates: s.Rates}
	for _, policy := range s.Policies {
		ps := PolicySeries{Policy: policy}
		for _, rate := range s.Rates {
			var prof *schedule.Profile
			if rate > 0 {
				flat := schedule.Flat(rate)
				prof = &flat
			}
			fr, err := shard.Run(s.config(s.Users, policy, prof, false, seed, workers))
			if err != nil {
				return ChurnDoc{}, err
			}
			ps.Points = append(ps.Points, fr)
		}
		doc.Policies = append(doc.Policies, ps)
	}
	if s.KillAt <= 0 {
		return doc, nil
	}
	for _, policy := range s.Policies {
		fr, err := shard.Run(s.config(s.Users, policy, nil, true, seed, workers))
		if err != nil {
			return ChurnDoc{}, err
		}
		doc.Failover = append(doc.Failover, PolicyFail{Policy: policy, Result: fr})
	}
	return doc, nil
}

// Claims: turnover costs latency under every policy, and after the
// machine kill lataware shows an excursion, recovers, and recovers no
// slower than roundrobin.
func (d ChurnDoc) Claims() []Claim {
	var out []Claim
	drop, swept := 0.0, false
	for _, ps := range d.Policies {
		for _, pt := range ps.Points {
			drop, swept = max(drop, ps.Points[0].EchoP95Ms-pt.EchoP95Ms), true
		}
	}
	if swept {
		out = append(out, Claim{ID: "churn.below_static", Statement: "the largest fall of a churned fleet p95 below its policy's static p95",
			Value: drop, Unit: "ms", Band: atMost(dipTolMs)})
	}
	var lat, rr *shard.FleetResult
	for i, f := range d.Failover {
		switch f.Policy {
		case shard.PolicyLatAware:
			lat = &d.Failover[i].Result
		case shard.PolicyRoundRobin:
			rr = &d.Failover[i].Result
		}
	}
	if lat == nil || rr == nil {
		return out
	}
	return append(out,
		Claim{ID: "churn.kill_excursion", Statement: "lataware's peak fleet p95 after the kill minus its pre-kill p95",
			Value: lat.PeakKillP95Ms - lat.PreKillP95Ms, Unit: "ms", Band: above(0)},
		Claim{ID: "churn.kill_recovery", Statement: "lataware recovers from the kill within the run (-1: never)",
			Value: lat.RecoveryMs, Unit: "ms", Band: atLeast(0)},
		Claim{ID: "churn.recovery_vs_roundrobin", Statement: "lataware's recovery minus roundrobin's (roundrobin never recovering: forever)",
			Value: lat.RecoveryMs - recoveryMs(*rr), Unit: "ms", Band: atMost(0)})
}

// runChurn1 sweeps the turnover rate at a fixed population: one series
// per placement policy, fleet p95 versus churn rate. Rate zero is the
// static fleet every earlier experiment measured, and each step up makes
// replacement logins — session-setup bytes on the contended links, login
// page-ins, process-creation CPU — a larger share of the offered load.
func runChurn1(cfg Config) (*Result, error) {
	s := Churn{Fleet: canonicalFleet(6*simclock.Second, 2*simclock.Second), Users: 18, Rates: []float64{0, 0.1, 0.25, 0.5}}
	if cfg.Quick {
		s.Span, s.ProbeSpan, s.Rates = 3*simclock.Second, simclock.Second, []float64{0, 0.25}
	}
	doc, err := s.Build(cfg.Seed, 0)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "churn1", Title: "Fleet p95 echo latency vs session churn rate, by placement policy"}
	for _, ps := range doc.Policies {
		res.Series = append(res.Series, fleetSweep(ps.Policy, "per-session logout rate (1/s)", doc.ChurnRates, ps.Points))
		last := ps.Points[len(ps.Points)-1]
		res.Notef("%s at %.2f/s turnover: %d arrivals, %d departures, slowest login %.0f ms",
			ps.Policy, doc.ChurnRates[len(doc.ChurnRates)-1], last.Arrivals, last.Departures, last.LoginMaxMs)
	}
	res.Notef("%d users held constant; every departure is replaced through the live policy, so placement reflects the fleet's churn history, not the initial plan", doc.Users)
	res.Notef("arrivals pay tab4 session-setup bytes on the shard's contended link, full-manifest page-ins, and login process creation before their first echo counts")
	res.Claims = doc.Claims()
	return res, nil
}

// runFail1 kills the canonical fleet's weak machine mid-span and traces
// the fleet p95 timeline through the failure: the excursion as the
// displaced users' interactions censor and their re-login storm hits the
// survivors, then the recovery as the storm drains. It sweeps no rate:
// one failover series per policy, the recovery numbers in the notes.
func runFail1(cfg Config) (*Result, error) {
	s := Churn{Fleet: canonicalFleet(8*simclock.Second, 2*simclock.Second), Users: 22}
	s.KillShard, s.KillAt = 2, 4*simclock.Second // the weak 48 MB, 0.6x machine
	if cfg.Quick {
		s.Span, s.ProbeSpan, s.KillAt = 4*simclock.Second, simclock.Second, 2*simclock.Second
	}
	doc, err := s.Build(cfg.Seed, 0)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fail1", Title: "Fleet p95 timeline through a machine kill, by placement policy"}
	for _, pf := range doc.Failover {
		fr := pf.Result
		res.Series = append(res.Series, timeline(pf.Policy, fr))
		res.Notef("%s: placed %v, kill displaced %d users; p95 pre-kill %.0f ms, peak %.0f ms, recovered in %s",
			pf.Policy, fr.Placement, fr.Shards[fr.KilledShard].Departures, fr.PreKillP95Ms, fr.PeakKillP95Ms, recovery(fr))
	}
	res.Notef("machine 2 (48 MB, 0.6x) killed at %v of %v; its users re-login through the live policy at the kill instant — a reconnect storm of full session setups against the survivors",
		s.KillAt, s.Span)
	res.Claims = doc.Claims()
	return res, nil
}
