// Package shard scales the shared-server contention model out to a
// fleet. One server.Server is one machine — its users contend on one
// clock, one CPU, one memory pool, one link — and the paper sizes exactly
// that machine. The north star is millions of users, which no single
// machine serves: a fleet of M servers does, and the operative question
// becomes placement — which machine gets the next user — especially once
// machines differ in memory and CPU speed.
//
// A Config names a base machine, a fleet of per-shard hardware overrides,
// a total population, and a placement policy:
//
//   - roundrobin deals users out in machine order, the policy of a fleet
//     that knows nothing about its machines;
//   - memaware greedily bin-packs against each machine's §5.1.1 memory
//     division (session.Capacity over the session manifest), the policy of
//     a fleet that reads /proc/meminfo;
//   - lataware probes: each user lands on the shard whose marginal p95
//     echo latency — measured by a short sizing.EvaluateConfig run of that
//     shard at its would-be population — is lowest, the policy of a fleet
//     that measures what the paper says to measure.
//
// A static fleet is placed once, at time zero. A dynamic one has a
// Schedule — the fleet's only arrival model, as on one server, so churn
// is schedule.Flat(r) — or a KillAt, or both, and its placement is live:
// every arrival — the time-zero population, an episode logging in
// mid-run, a displaced user re-logging in after its machine dies — routes
// through the same picker, which sees the fleet's current occupancy and
// which machines are still alive. A fleet that has churned for a while is
// therefore placed by its history, not by the initial plan (see
// churn.go).
//
// Shards are independent machines, so whole shards fan out across
// farm.Run; each shard's seed derives from the fleet seed and its index,
// never from worker identity, so a fleet result is bit-for-bit identical
// at any worker count. Per-shard echo-latency histograms (identical
// bucketing fleet-wide) merge into fleet-level percentiles — percentiles
// of separate machines cannot be combined after the fact — and
// FleetCapacity finds the largest N whose fleet p95 stays within the
// latency budget with sizing.Search, the same search that sizes one
// machine: the sizing question asked of the whole fleet instead of one
// box.
package shard

import (
	"fmt"
	"math"

	"thinbench/internal/farm"
	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/session"
	"thinbench/internal/simclock"
	"thinbench/internal/sizing"
)

// Placement policies.
const (
	PolicyRoundRobin = "roundrobin"
	PolicyMemAware   = "memaware"
	PolicyLatAware   = "lataware"
)

// Policies lists every placement policy in canonical order.
func Policies() []string {
	return []string{PolicyRoundRobin, PolicyMemAware, PolicyLatAware}
}

// Machine describes one shard's hardware as overrides of the fleet's base
// configuration. The zero value is exactly the base machine.
type Machine struct {
	// MemoryMB overrides the base machine's physical memory; 0 keeps it.
	MemoryMB int `json:"memory_mb"`
	// CPUSpeed scales the processor relative to the base machine:
	// per-interaction CPU costs and background demand divide by it, so
	// 2.0 is a machine twice as fast and 0.5 one half as fast. 0 means
	// 1.0.
	CPUSpeed float64 `json:"cpu_speed"`
	// Standby marks a machine that starts powered off: it takes no
	// arrivals until a controller powers it on mid-run (see
	// FleetView.PowerOn). A standby machine nobody activates is a spare
	// in the rack — present in every result, hosting no sessions.
	Standby bool `json:"standby,omitempty"`
}

func (m Machine) speed() float64 {
	if m.CPUSpeed <= 0 {
		return 1
	}
	return m.CPUSpeed
}

// DefaultFleet builds an m-machine heterogeneous fleet cycling through
// three hardware classes: a big box (128 MB, 1.5x CPU), the base machine
// unchanged, and a weak leftover (48 MB, 0.6x CPU). Placement policies
// only differentiate when machines differ; this is the canonical
// differing fleet used by the shard1 experiment, the CLI, and the
// walkthrough example.
func DefaultFleet(m int) []Machine {
	if m < 1 {
		m = 1
	}
	classes := []Machine{
		{MemoryMB: 128, CPUSpeed: 1.5},
		{},
		{MemoryMB: 48, CPUSpeed: 0.6},
	}
	out := make([]Machine, m)
	for j := range out {
		out[j] = classes[j%len(classes)]
	}
	return out
}

// Config describes a fleet, its population, and the population's
// dynamics.
type Config struct {
	// Base is the per-machine baseline. Base.Users is ignored (placement
	// decides each shard's population), Base.Seed is ignored (per-shard
	// seeds derive from Seed and the shard index), and Base.Sessions and
	// Base.Schedule are ignored (the fleet layer owns
	// session lifecycles and routes them through the placement policy —
	// set Config.Schedule for a fleet-wide arrival profile).
	Base server.Config
	// Machines is the fleet, one hardware override per shard.
	Machines []Machine
	// Users is the fleet's seat count: without a Schedule, the population
	// placed at time zero; with one, the seats its episodes occupy.
	Users int
	// Policy selects the placement policy; empty means roundrobin.
	Policy string

	// Schedule, when non-nil, drives the fleet's Users seats from an
	// arrival profile, the fleet's only one: every episode's arrival — a
	// churn handover under schedule.Flat(r), the 9 AM storm, the
	// post-lunch return, a shift wave, a ramp in the timeline — routes
	// through the live placement policy at its instant, and pays
	// session-setup bytes and login page-ins wherever it lands. A KillAt
	// during the ramp therefore measures failover under a surge rather
	// than a trickle. Nil keeps the population static, bar a kill's
	// re-logins.
	Schedule *schedule.Profile
	// KillAt, when positive, fails machine KillShard at that instant:
	// every session on it logs out there (in-flight echoes censored at
	// the kill) and immediately re-logs-in elsewhere through the live
	// policy, paying full session setup on the surviving machines. The
	// dead machine takes no further arrivals. A displaced session keeps
	// its episode's logout. KillAt must leave at least one timeline slice
	// before it (the pre-kill baseline) and land before the span ends.
	KillAt    simclock.Duration
	KillShard int

	// Control, when non-nil, installs live controller hooks in the
	// population walk: every schedule episode's arrival consults
	// Control.Admit before it is placed (admission queueing and
	// rejection), and every occupancy change notifies Control.Moved so a
	// shedder or autoscaler can steer the fleet through its FleetView.
	// Control needs a Schedule. The hooks run inside the deterministic
	// single-threaded plan walk, so a controlled run stays bit-identical
	// at any worker count. internal/control builds these; a nil Control
	// is exactly the uncontrolled fleet.
	Control *ControlHooks

	// ProbeSpan is the lataware placement probe window; 0 means 2 s.
	// Probes only rank shards, so they run far shorter than Base.Span.
	// Control hooks estimating marginal p95 share the same window.
	ProbeSpan simclock.Duration
	// Workers bounds the farm pool shards (and placement probes) run on;
	// like everywhere else in the reproduction it never affects results.
	Workers int
	// Seed roots all fleet randomness.
	Seed uint64
}

// dynamic reports whether the population changes mid-run — whether the
// fleet needs a lifecycle plan rather than a one-shot placement.
func (c Config) dynamic() bool {
	return c.KillAt > 0 || c.Schedule != nil
}

func (c Config) validate() error {
	if len(c.Machines) == 0 {
		return fmt.Errorf("shard: fleet has no machines")
	}
	if c.Users < 1 {
		return fmt.Errorf("shard: fleet population %d, need at least one user", c.Users)
	}
	live := 0
	for j, m := range c.Machines {
		if m.MemoryMB < 0 || m.CPUSpeed < 0 {
			return fmt.Errorf("shard: machine %d has negative hardware override %+v", j, m)
		}
		if !m.Standby {
			live++
		}
	}
	if live == 0 {
		return fmt.Errorf("shard: every machine is standby; nothing can take the first arrival")
	}
	if c.Control != nil && c.Schedule == nil {
		return fmt.Errorf("shard: control hooks steer schedule arrivals; a fleet without a Schedule has none to steer")
	}
	if c.Schedule != nil {
		if err := c.Schedule.Validate(); err != nil {
			return err
		}
	}
	if c.KillAt < 0 {
		return fmt.Errorf("shard: negative kill time")
	}
	if c.KillAt > 0 {
		if c.KillShard < 0 || c.KillShard >= len(c.Machines) {
			return fmt.Errorf("shard: kill shard %d outside fleet of %d", c.KillShard, len(c.Machines))
		}
		if len(c.Machines) < 2 {
			return fmt.Errorf("shard: cannot fail over a one-machine fleet")
		}
		if c.KillAt >= c.Base.Span {
			return fmt.Errorf("shard: kill at %v is not before the span %v", c.KillAt, c.Base.Span)
		}
		if c.KillAt < server.TimelineSlice {
			return fmt.Errorf("shard: kill at %v leaves no pre-kill baseline slice", c.KillAt)
		}
	}
	return nil
}

// shardConfig composes shard j's complete server configuration: the base
// machine with j's hardware overrides applied, the given population, and
// the index-derived seed that makes every fleet run worker-count
// invariant (and placement probes consistent with the final run).
func (c Config) shardConfig(j, users int) server.Config {
	sc := c.Base
	m := c.Machines[j]
	if m.MemoryMB > 0 {
		sc.PhysicalKB = m.MemoryMB * 1024
	}
	if speed := m.speed(); speed != 1 {
		sc.EchoCPU = scaleCPU(sc.EchoCPU, speed)
		sc.EncodeCPU = scaleCPU(sc.EncodeCPU, speed)
		sc.BackgroundCPUFrac /= speed
	}
	sc.Users = users
	sc.Sessions = nil
	sc.Schedule = nil
	sc.Seed = simclock.DeriveSeed(c.Seed, uint64(j))
	return sc
}

// scaleCPU divides a per-interaction cost by the machine's speed, keeping
// a nonzero cost nonzero (a faster machine still does the work).
func scaleCPU(d simclock.Duration, speed float64) simclock.Duration {
	if d <= 0 {
		return d
	}
	s := simclock.Duration(float64(d) / speed)
	if s < 1 {
		s = 1
	}
	return s
}

// memoryCapacity is shard j's §5.1.1 memory division: sessions that fit
// in its physical memory behind the system baseline.
func (c Config) memoryCapacity(j int) int {
	sc := c.shardConfig(j, 0)
	return session.Capacity(sc.PhysicalKB, sc.SystemKB, sc.SessionManifest())
}

// farFuture marks a standby machine's availability: never, unless a
// controller powers it on.
const farFuture = simclock.Time(math.MaxInt64)

// probeKey addresses the marginal-p95 cache: one estimate per
// (shard, population) pair.
type probeKey struct{ shard, users int }

// prober is the marginal-p95 estimator behind lataware placement and the
// control plane's admission/shedding decisions: short
// sizing.EvaluateConfig runs of the real shard configuration (same
// protocol, same hardware overrides, same index-derived seed as the final
// run, only the span shortened), cached per (shard, population). Probes
// are deterministic pure functions of the configuration, so a cache
// filled in any order holds the same values — which is what lets the
// lataware prefetch fan out across the farm while control hooks fill the
// same cache single-threaded.
type prober struct {
	cfg   *Config
	span  simclock.Duration
	cache map[probeKey]float64
}

func newProber(cfg *Config) *prober {
	span := cfg.ProbeSpan
	if span <= 0 {
		span = 2 * simclock.Second
	}
	return &prober{cfg: cfg, span: span, cache: map[probeKey]float64{}}
}

func (pr *prober) raw(j, users int) (float64, error) {
	sc := pr.cfg.shardConfig(j, users)
	sc.Span = pr.span
	res, err := sizing.EvaluateConfig(sc)
	if err != nil {
		return 0, err
	}
	if res.Censored >= res.Interactions {
		// Nothing completed: worse than any measured latency.
		return math.Inf(1), nil
	}
	return res.EchoP95Ms, nil
}

// p95 estimates shard j's p95 echo latency at the given population,
// filling the cache on a miss.
func (pr *prober) p95(j, users int) (float64, error) {
	if v, ok := pr.cache[probeKey{j, users}]; ok {
		return v, nil
	}
	v, err := pr.raw(j, users)
	if err != nil {
		return 0, err
	}
	pr.cache[probeKey{j, users}] = v
	return v, nil
}

// prefetchFirsts fills the population-1 estimate for every shard, fanned
// out across the farm — the first lataware placement round needs all M of
// them anyway, and a full placement costs about M+N probes (placing a
// user invalidates exactly one shard's marginal).
func (pr *prober) prefetchFirsts(workers int) error {
	m := len(pr.cfg.Machines)
	firsts, err := farm.Run(farm.Config{Sessions: m, Workers: workers, Seed: pr.cfg.Seed},
		func(s *farm.Session) (float64, error) { return pr.raw(s.Index, 1) })
	if err != nil {
		return err
	}
	for j, v := range firsts {
		pr.cache[probeKey{j, 1}] = v
	}
	return nil
}

// picker routes arrivals onto the fleet one at a time under the live
// placement policy. Unlike the one-shot placement loop it replaced, a
// picker carries the fleet's running state — current occupancy per shard,
// which machines are alive, which are powered on, and which a controller
// is draining — so the same instance places the time-zero population,
// every later arrival, and failover re-logins, each against the fleet as
// it is at that moment.
type picker struct {
	cfg  *Config
	occ  []int
	dead []bool
	// availAt is when each machine becomes placeable: 0 for machines on
	// from the start, farFuture for standby spares until a controller
	// powers them on.
	availAt []simclock.Time
	// draining marks machines a controller has closed to new arrivals;
	// existing sessions stay until they depart.
	draining []bool
	rr       int   // roundrobin cursor
	caps     []int // memaware §5.1.1 divisions
	// pr is the marginal-p95 estimator, built eagerly for lataware
	// placement (with a farm prefetch) and lazily for control hooks.
	pr *prober
}

func newPicker(cfg *Config) (*picker, error) {
	m := len(cfg.Machines)
	p := &picker{
		cfg:      cfg,
		occ:      make([]int, m),
		dead:     make([]bool, m),
		availAt:  make([]simclock.Time, m),
		draining: make([]bool, m),
	}
	for j, mc := range cfg.Machines {
		if mc.Standby {
			p.availAt[j] = farFuture
		}
	}
	switch cfg.Policy {
	case PolicyRoundRobin, "":
	case PolicyMemAware:
		p.caps = make([]int, m)
		for j := range p.caps {
			p.caps[j] = cfg.memoryCapacity(j)
		}
	case PolicyLatAware:
		p.pr = newProber(cfg)
		if err := p.pr.prefetchFirsts(cfg.Workers); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("shard: unknown placement policy %q", cfg.Policy)
	}
	return p, nil
}

// prober returns the picker's marginal estimator, building it on first
// use for policies that do not probe on their own.
func (p *picker) prober() *prober {
	if p.pr == nil {
		p.pr = newProber(p.cfg)
	}
	return p.pr
}

// placeable reports whether shard j can take an arrival at now: alive,
// powered on, and not draining.
func (p *picker) placeable(j int, now simclock.Time) bool {
	return !p.dead[j] && !p.draining[j] && p.availAt[j] <= now
}

// pick places one arrival on the fleet as it stands at now and returns
// its shard. Ties break to the lowest index, so placement is
// deterministic.
func (p *picker) pick(now simclock.Time) (int, error) {
	m := len(p.cfg.Machines)
	best := -1
	switch p.cfg.Policy {
	case PolicyRoundRobin, "":
		for t := 0; t < m; t++ {
			j := (p.rr + t) % m
			if p.placeable(j, now) {
				best = j
				p.rr = (j + 1) % m
				break
			}
		}
	case PolicyMemAware:
		// Greedy bin-pack against each machine's memory division: the
		// next user lands on the machine with the most free session
		// slots; an overcommitted fleet keeps filling the least
		// overcommitted machine.
		for j := 0; j < m; j++ {
			if !p.placeable(j, now) {
				continue
			}
			if best < 0 || p.caps[j]-p.occ[j] > p.caps[best]-p.occ[best] {
				best = j
			}
		}
	case PolicyLatAware:
		bestP95 := 0.0
		for j := 0; j < m; j++ {
			if !p.placeable(j, now) {
				continue
			}
			v, err := p.pr.p95(j, p.occ[j]+1)
			if err != nil {
				return -1, err
			}
			if best < 0 || v < bestP95 {
				best, bestP95 = j, v
			}
		}
	}
	if best < 0 {
		return -1, fmt.Errorf("shard: no machine alive to place a session on")
	}
	p.occ[best]++
	return best, nil
}

// release returns a departed session's seat on shard j. It is guarded:
// a departure that races a failover — its event scheduled before
// KillShard logged everyone out and relocated the seat — can reach a
// shard whose seat was already released, and an unguarded decrement
// would drive occ[j] negative: phantom free capacity that skews every
// later memaware placement toward a machine (possibly a dead one) that
// does not have the room. Out-of-range and already-empty shards are
// therefore no-ops.
func (p *picker) release(j int) {
	if j < 0 || j >= len(p.occ) || p.occ[j] <= 0 {
		return
	}
	p.occ[j]--
}

// kill marks machine j dead: it takes no further arrivals.
func (p *picker) kill(j int) { p.dead[j] = true }

// Place distributes the time-zero population across the fleet under the
// configured policy and returns the per-shard populations. Placement is
// greedy one user at a time through the live picker, which gives every
// policy the prefix property: the placement for N users is a prefix of
// the placement for N+1, so fleet series over growing populations share
// common random numbers per shard and degrade monotonically.
func Place(cfg Config) ([]int, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p, err := newPicker(&cfg)
	if err != nil {
		return nil, err
	}
	for u := 0; u < cfg.Users; u++ {
		if _, err := p.pick(0); err != nil {
			return nil, err
		}
	}
	return p.occ, nil
}
