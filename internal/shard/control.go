package shard

import (
	"thinbench/internal/server"
	"thinbench/internal/simclock"
)

// This file is the shard layer's control surface: the hook points a live
// controller (internal/control) plugs into the deterministic population
// walk, and the fleet view it steers through. The hooks run inside
// buildPlans — bookkeeping, not simulation — so every control decision
// depends only on occupancy counts and cached probe estimates, and a
// controlled fleet stays bit-identical at any worker count exactly like
// an uncontrolled one.

// AdmitDecision is a controller's verdict on one arrival. The zero value
// admits it immediately.
type AdmitDecision struct {
	// Defer, when positive, queues the arrival: it re-presents to the
	// controller that much later (each retry decides afresh, so a queue
	// is a sequence of deferrals). An arrival deferred past the span —
	// or past its own episode's logout — is rejected instead: the user's
	// shift ended at the login screen.
	Defer simclock.Duration
	// Reject drops the arrival outright; the seat never logs in.
	Reject bool
}

// ControlHooks are the live controller hooks the population walk
// consults. Any field may be nil; a nil hook is the uncontrolled
// behavior. Hooks run single-threaded in event order and may steer the
// fleet through the FleetView they receive (set degradation tiers, power
// standby machines on, drain machines) — they must be deterministic
// functions of that view, never of wall clock or external state.
type ControlHooks struct {
	// Admit is consulted before every schedule episode's arrival is
	// placed, the time-zero overnight population included. planned is the
	// episode's Login, its originally scheduled instant; now is the
	// decision time, later than planned when the arrival has been queued
	// — so now-planned is the queueing delay the user has already
	// absorbed. Failover re-logins bypass Admit: a reconnect of a user
	// already admitted is not a new admission.
	Admit func(now, planned simclock.Time, v *FleetView) AdmitDecision
	// Placed and Released fire after every occupancy change with the
	// shard that changed — the feedback signal a shedder or autoscaler
	// reacts to. Occupancy only changes at arrivals and departures, so
	// these two hooks see every point where an estimate can move.
	Placed   func(now simclock.Time, v *FleetView, j int)
	Released func(now simclock.Time, v *FleetView, j int)
}

// ControlStats is the walk's record of what the controllers did,
// surfaced on FleetResult for controlled runs.
type ControlStats struct {
	// PeakUsers is the largest concurrently admitted population across
	// the whole fleet — the walk sees every login and logout instant, so
	// this is exact, unlike a sum of per-shard peaks.
	PeakUsers int
	// DeferredLogins counts arrivals that were queued at least once;
	// RejectedLogins counts arrivals that never got in (explicit
	// rejections plus deferrals past their deadline).
	DeferredLogins int
	RejectedLogins int
	// Queue-wait statistics over admitted-late arrivals, in milliseconds.
	QueueWaitMeanMs float64
	QueueWaitMaxMs  float64
	// TierChanges counts shedder tier transitions; Activations and
	// Drains count autoscaler machine power-ons and closures.
	TierChanges int
	Activations int
	Drains      int
}

// FleetView is the live fleet state a controller sees and steers:
// per-shard occupancy and liveness, the shared marginal-p95 estimator,
// and the mutators that express control actions (degradation tiers,
// standby power-on, draining). It is valid only during the plan walk
// that created it.
type FleetView struct {
	cfg *Config
	pk  *picker
	// tiers accumulates each shard's scheduled degradation changes; cur
	// mirrors the latest tier per shard so hysteresis reads its own
	// state instead of replaying the plan.
	tiers [][]server.TierChange
	cur   []int
	// memo caches §5.1.1 memory divisions (-1 = not yet computed).
	memo []int

	stats    ControlStats
	curUsers int
	waitN    int
	waitSum  float64
}

func newFleetView(cfg *Config, pk *picker) *FleetView {
	m := len(cfg.Machines)
	memo := make([]int, m)
	for j := range memo {
		memo[j] = -1
	}
	return &FleetView{
		cfg:   cfg,
		pk:    pk,
		tiers: make([][]server.TierChange, m),
		cur:   make([]int, m),
		memo:  memo,
	}
}

// Machines reports the fleet size, standby spares included.
func (v *FleetView) Machines() int { return len(v.cfg.Machines) }

// Occupancy reports shard j's current session count.
func (v *FleetView) Occupancy(j int) int { return v.pk.occ[j] }

// TotalOccupancy reports the fleet's current concurrent population.
func (v *FleetView) TotalOccupancy() int { return v.curUsers }

// Alive reports whether shard j has not been killed.
func (v *FleetView) Alive(j int) bool { return !v.pk.dead[j] }

// Placeable reports whether shard j can take an arrival at now: alive,
// powered on, and not draining.
func (v *FleetView) Placeable(j int, now simclock.Time) bool { return v.pk.placeable(j, now) }

// Draining reports whether a controller has closed shard j to arrivals.
func (v *FleetView) Draining(j int) bool { return v.pk.draining[j] }

// MemoryCapacity is shard j's §5.1.1 memory division — how many sessions
// fit in physical memory behind the system baseline — the cheap static
// capacity an autoscaler provisions against.
func (v *FleetView) MemoryCapacity(j int) int {
	if v.memo[j] < 0 {
		v.memo[j] = v.cfg.memoryCapacity(j)
	}
	return v.memo[j]
}

// MarginalP95 estimates shard j's p95 echo latency if it took one more
// session — the lataware probe at population occ+1, cached per
// (shard, population).
func (v *FleetView) MarginalP95(j int) (float64, error) {
	return v.pk.prober().p95(j, v.pk.occ[j]+1)
}

// ShardP95 estimates shard j's p95 echo latency at its current
// population (0 when empty — an idle machine has no latency).
func (v *FleetView) ShardP95(j int) (float64, error) {
	if v.pk.occ[j] == 0 {
		return 0, nil
	}
	return v.pk.prober().p95(j, v.pk.occ[j])
}

// BestMarginalP95 is the lowest marginal-p95 estimate over every shard
// placeable at now — the latency cost of admitting the next arrival,
// were it placed greedily. ok is false when no machine can take it.
func (v *FleetView) BestMarginalP95(now simclock.Time) (best float64, ok bool, err error) {
	for j := 0; j < len(v.cfg.Machines); j++ {
		if !v.pk.placeable(j, now) {
			continue
		}
		p, err := v.MarginalP95(j)
		if err != nil {
			return 0, false, err
		}
		if !ok || p < best {
			best, ok = p, true
		}
	}
	return best, ok, nil
}

// Tier reports shard j's current degradation tier (0 = full quality).
func (v *FleetView) Tier(j int) int { return v.cur[j] }

// SetTier schedules shard j onto degradation tier t at now, machine-wide
// (every session on it, current and future — see server.DegradeTiers).
// Setting the tier it already runs at is a no-op.
func (v *FleetView) SetTier(now simclock.Time, j, t int) {
	if t < 0 {
		t = 0
	}
	if max := len(server.DegradeTiers) - 1; t > max {
		t = max
	}
	if v.cur[j] == t {
		return
	}
	v.cur[j] = t
	v.tiers[j] = append(v.tiers[j], server.TierChange{At: now, Tier: t})
	v.stats.TierChanges++
}

// PowerOn brings standby machine j online at the given instant (now plus
// the controller's provisioning delay). It reports whether the machine
// was in fact powered off; a machine already on (or already scheduled to
// come on) is left alone.
func (v *FleetView) PowerOn(j int, at simclock.Time) bool {
	if v.pk.availAt[j] != farFuture || v.pk.dead[j] {
		return false
	}
	v.pk.availAt[j] = at
	v.stats.Activations++
	return true
}

// Drain closes machine j to new arrivals; sessions already on it stay
// until they depart. It reports whether the machine was open.
func (v *FleetView) Drain(j int) bool {
	if v.pk.draining[j] {
		return false
	}
	v.pk.draining[j] = true
	v.stats.Drains++
	return true
}

// Undrain reopens a draining machine to arrivals.
func (v *FleetView) Undrain(j int) { v.pk.draining[j] = false }

// recordAdmit folds an admitted arrival's queueing delay into the wait
// statistics (no-op for arrivals admitted on schedule).
func (v *FleetView) recordAdmit(now, planned simclock.Time) {
	if now <= planned {
		return
	}
	ms := now.Sub(planned).Milliseconds()
	v.waitN++
	v.waitSum += ms
	if ms > v.stats.QueueWaitMaxMs {
		v.stats.QueueWaitMaxMs = ms
	}
}

// finalize closes out the walk's accumulated statistics.
func (v *FleetView) finalize() ControlStats {
	if v.waitN > 0 {
		v.stats.QueueWaitMeanMs = v.waitSum / float64(v.waitN)
	}
	return v.stats
}
