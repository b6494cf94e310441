package core

import (
	"thinbench/internal/schedule"
	"thinbench/internal/server"
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

// churnFleet is the canonical heterogeneous three-machine fleet both
// dynamic experiments run on.
func churnFleet(cfg Config) shard.Config {
	base := server.DefaultConfig()
	base.Span = 6 * simclock.Second
	probeSpan := 2 * simclock.Second
	if cfg.Quick {
		base.Span = 3 * simclock.Second
		probeSpan = simclock.Second
	}
	return shard.Config{
		Base:      base,
		Machines:  shard.DefaultFleet(3),
		ProbeSpan: probeSpan,
		Seed:      cfg.Seed,
	}
}

// churn1 sweeps the per-session turnover rate at a fixed population: one
// series per placement policy, fleet p95 versus churn rate. Rate zero is
// the static fleet every earlier experiment measured; every rate above it
// runs schedule.Flat(rate), and each step up makes replacement logins —
// session-setup bytes on the contended links, login page-ins,
// process-creation CPU — a larger share of the offered load.
func runChurn1(cfg Config) (*Result, error) {
	res := &Result{ID: "churn1", Title: "Fleet p95 echo latency vs session churn rate, by placement policy"}
	fleet := churnFleet(cfg)
	const users = 18
	rates := []float64{0, 0.1, 0.25, 0.5}
	if cfg.Quick {
		rates = []float64{0, 0.25}
	}

	x := make([]float64, len(rates))
	for i, r := range rates {
		x[i] = r
	}
	for _, policy := range shard.Policies() {
		s := Series{
			Label:  policy,
			XLabel: "per-session logout rate (1/s)",
			YLabel: "fleet p95 echo latency (ms)",
			X:      x,
		}
		var last shard.FleetResult
		for _, rate := range rates {
			fc := fleet
			fc.Users = users
			fc.Policy = policy
			if rate > 0 {
				flat := schedule.Flat(rate)
				fc.Schedule = &flat
			}
			fr, err := shard.Run(fc)
			if err != nil {
				return nil, err
			}
			s.Y = append(s.Y, fr.EchoP95Ms)
			last = fr
		}
		res.Series = append(res.Series, s)
		res.Notef("%s at %.2f/s turnover: %d arrivals, %d departures, slowest login %.0f ms",
			policy, rates[len(rates)-1], last.Arrivals, last.Departures, last.LoginMaxMs)
	}
	res.Notef("%d users held constant; every departure is replaced through the live policy, so placement reflects the fleet's churn history, not the initial plan", users)
	res.Notef("arrivals pay tab4 session-setup bytes on the shard's contended link, full-manifest page-ins, and login process creation before their first echo counts")
	return res, nil
}

// fail1 kills the heterogeneous fleet's weak machine mid-span and traces
// the fleet p95 timeline through the failure: the excursion as the
// displaced users' interactions censor and their re-login storm hits the
// survivors, then the recovery as the storm drains. One series per
// policy; the recovery numbers land in the notes.
func runFail1(cfg Config) (*Result, error) {
	res := &Result{ID: "fail1", Title: "Fleet p95 timeline through a machine kill, by placement policy"}
	fleet := churnFleet(cfg)
	fleet.Base.Span = 8 * simclock.Second
	killAt := 4 * simclock.Second
	users := 22
	if cfg.Quick {
		fleet.Base.Span = 4 * simclock.Second
		killAt = 2 * simclock.Second
	}

	for _, policy := range shard.Policies() {
		fc := fleet
		fc.Users = users
		fc.Policy = policy
		fc.KillShard = 2 // the weak 48 MB, 0.6x machine
		fc.KillAt = killAt
		fr, err := shard.Run(fc)
		if err != nil {
			return nil, err
		}
		s := Series{
			Label:  policy,
			XLabel: "time (s, slice end)",
			YLabel: "fleet p95 echo latency (ms)",
		}
		for i, p95 := range fr.P95TimelineMs {
			s.X = append(s.X, float64(i+1))
			s.Y = append(s.Y, p95)
		}
		res.Series = append(res.Series, s)
		recovery := "never within the run"
		if fr.RecoveryMs >= 0 {
			recovery = simclock.Millis(fr.RecoveryMs).String()
		}
		res.Notef("%s: placed %v, kill displaced %d users; p95 pre-kill %.0f ms, peak %.0f ms, recovered in %s",
			policy, fr.Placement, fr.Shards[2].Departures, fr.PreKillP95Ms, fr.PeakKillP95Ms, recovery)
	}
	res.Notef("machine 2 (48 MB, 0.6x) killed at %v of %v; its users re-login through the live policy at the kill instant — a reconnect storm of full session setups against the survivors",
		killAt, fleet.Base.Span)
	return res, nil
}
