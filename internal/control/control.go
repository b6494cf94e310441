// Package control is the fleet's online control plane: feedback
// controllers that react to load as it arrives, where the sizing layer's
// capacity oracles decide offline with the whole day's workload in hand.
// Three controllers cooperate over internal/shard's control hooks:
//
//   - Admission queues or rejects logins when the fleet's marginal-p95
//     estimate says the next session would blow the sizing latency budget
//     — the "busy, please hold" gate that trades login-screen queueing
//     for protecting everyone already logged in.
//   - Shedder degrades per-machine session quality (frame rate, ambient
//     traffic, encode effort — see server.DegradeTiers) when a machine's
//     p95 estimate crosses the latency budget, and restores quality with
//     hysteresis once it falls below half of it.
//   - Autoscaler powers standby machines on as occupancy climbs toward
//     the active fleet's memory capacity, and drains machines as it
//     falls — capacity follows the storm instead of being provisioned
//     for it.
//
// Every decision is a deterministic function of the FleetView (occupancy
// counts and cached probe estimates), made inside the single-threaded
// population walk, so a controlled run is bit-identical at any worker
// count. Controllers fail open: on the first probe error the gate admits
// everything and the actuators stop acting, and Run surfaces the error.
package control

import (
	"fmt"

	"thinbench/internal/server"
	"thinbench/internal/shard"
	"thinbench/internal/simclock"
	"thinbench/internal/sizing"
)

// Admission gates logins on the marginal-p95 estimate: what would the
// best placeable machine's p95 become if it took one more session? At or
// under sizing.DefaultLatencyBudget the arrival is admitted; over it, the
// arrival is queued until it is admitted or its shift ends at the login
// screen (see shard.AdmitDecision).
type Admission struct {
	// Retry is the deferral quantum: a gated arrival re-presents this
	// much later and is decided afresh. 0 means 2 s.
	Retry simclock.Duration
}

func (a Admission) retry() simclock.Duration {
	if a.Retry > 0 {
		return a.Retry
	}
	return 2 * simclock.Second
}

// Shedder degrades a machine's quality tier when its p95 estimate
// crosses sizing.DefaultLatencyBudget and restores one tier once it falls
// below half the budget, down to the last rung of server.DegradeTiers.
// The gap between the two marks is the hysteresis band that keeps the
// tier from flapping on every arrival. It has no settings: a non-nil
// Shedder in Config switches it on.
type Shedder struct{}

// Autoscaler sizes the powered-on fleet to occupancy: when the admitted
// population climbs past UpFrac of the active machines' summed memory
// capacity it powers on the next standby spare (available after
// ProvisionDelay), and when it falls below DownFrac it drains the
// highest-numbered machine — closed to arrivals, sessions riding out.
type Autoscaler struct {
	// UpFrac and DownFrac are occupancy thresholds as fractions of the
	// active fleet's §5.1.1 memory capacity. Defaults 0.85 and 0.5.
	UpFrac   float64
	DownFrac float64
	// ProvisionDelay is how long a powered-on machine takes to boot and
	// join. 0 means 30 s — racks don't boot instantly.
	ProvisionDelay simclock.Duration
}

func (as Autoscaler) upFrac() float64 {
	if as.UpFrac > 0 {
		return as.UpFrac
	}
	return 0.85
}

func (as Autoscaler) downFrac() float64 {
	if as.DownFrac > 0 {
		return as.DownFrac
	}
	return 0.5
}

func (as Autoscaler) delay() simclock.Duration {
	if as.ProvisionDelay > 0 {
		return as.ProvisionDelay
	}
	return 30 * simclock.Second
}

// Config selects which controllers run; a nil field leaves that control
// axis uncontrolled.
type Config struct {
	Admission  *Admission
	Shedder    *Shedder
	Autoscaler *Autoscaler
}

// runner is one run's controller state: the fail-open error latch and
// the autoscaler's record of which machines it has started.
type runner struct {
	cfg Config
	err error
	// started marks machines powered on or provisioning — the
	// autoscaler's own bookkeeping, since a provisioning machine is not
	// yet placeable but must count as capacity on the way.
	started []bool
}

// fail latches the first controller error; every controller checks the
// latch and stands down once it is set (fail open: an estimator that
// breaks must not keep gating users out).
func (r *runner) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *runner) admit(now simclock.Time, v *shard.FleetView) shard.AdmitDecision {
	a := r.cfg.Admission
	if a == nil || r.err != nil {
		return shard.AdmitDecision{}
	}
	best, ok, err := v.BestMarginalP95(now)
	if err != nil {
		r.fail(err)
		return shard.AdmitDecision{}
	}
	if ok && best <= sizing.DefaultLatencyBudget.Milliseconds() {
		return shard.AdmitDecision{}
	}
	// Over budget (or nowhere to place at all): queue.
	return shard.AdmitDecision{Defer: a.retry()}
}

// moved reacts to an occupancy change on machine j, a login or a logout.
func (r *runner) moved(now simclock.Time, v *shard.FleetView, j int) {
	if r.err != nil {
		return
	}
	r.shed(now, v, j)
	r.scale(now, v)
}

// shed moves machine j one rung down the quality ladder when its p95
// estimate is over the latency budget, one rung up when under half of
// it. One rung per occupancy change bounds the reaction rate; the gap
// between the marks keeps it from oscillating between them.
func (r *runner) shed(now simclock.Time, v *shard.FleetView, j int) {
	if r.cfg.Shedder == nil {
		return
	}
	p, err := v.ShardP95(j)
	if err != nil {
		r.fail(err)
		return
	}
	high := sizing.DefaultLatencyBudget.Milliseconds()
	t := v.Tier(j)
	switch {
	case p > high && t < len(server.DegradeTiers)-1:
		v.SetTier(now, j, t+1)
	case p < high/2 && t > 0:
		v.SetTier(now, j, t-1)
	}
}

// scale compares the admitted population against the active fleet's
// memory capacity. Growing pressure first reopens draining machines
// (instant), then powers on the next standby spare (after the
// provisioning delay); slack pressure drains the highest-numbered open
// machine, always leaving at least one.
func (r *runner) scale(now simclock.Time, v *shard.FleetView) {
	as := r.cfg.Autoscaler
	if as == nil {
		return
	}
	m := v.Machines()
	if r.started == nil {
		r.started = make([]bool, m)
		for j := 0; j < m; j++ {
			r.started[j] = v.Placeable(j, now) || v.Draining(j)
		}
	}
	capacity, open := 0, 0
	for j := 0; j < m; j++ {
		if !r.started[j] || !v.Alive(j) || v.Draining(j) {
			continue
		}
		capacity += v.MemoryCapacity(j)
		open++
	}
	users := v.TotalOccupancy()
	if capacity == 0 || float64(users) > as.upFrac()*float64(capacity) {
		// Reopen a draining machine first — it is already warm.
		for j := 0; j < m; j++ {
			if r.started[j] && v.Alive(j) && v.Draining(j) {
				v.Undrain(j)
				return
			}
		}
		for j := 0; j < m; j++ {
			if !r.started[j] && v.Alive(j) {
				if v.PowerOn(j, now.Add(as.delay())) {
					r.started[j] = true
				}
				return
			}
		}
		return
	}
	if open > 1 && float64(users) < as.downFrac()*float64(capacity) {
		for j := m - 1; j >= 0; j-- {
			if r.started[j] && v.Alive(j) && !v.Draining(j) {
				// Keep the drain only if the remaining capacity still
				// clears the high-water mark; otherwise the fleet would
				// flap between draining and reopening the same machine.
				rest := capacity - v.MemoryCapacity(j)
				if rest > 0 && float64(users) <= as.upFrac()*float64(rest) {
					v.Drain(j)
				}
				return
			}
		}
	}
}

// Run executes a fleet run under the configured controllers and surfaces
// the first controller error alongside the result. The controllers run
// as shard control hooks inside the deterministic plan walk, so the
// result is bit-identical at any fleet.Workers.
func Run(fleet shard.Config, c Config) (shard.FleetResult, error) {
	if c.Admission == nil && c.Shedder == nil && c.Autoscaler == nil {
		return shard.FleetResult{}, fmt.Errorf("control: no controller configured")
	}
	r := &runner{cfg: c}
	fleet.Control = &shard.ControlHooks{}
	if c.Admission != nil {
		fleet.Control.Admit = r.admit
	}
	if c.Shedder != nil || c.Autoscaler != nil {
		fleet.Control.Moved = r.moved
	}
	res, err := shard.Run(fleet)
	if err != nil {
		return res, err
	}
	return res, r.err
}
