// Package sizing answers the question the paper's introduction says
// operators actually ask: "the maximum number of concurrent users their
// servers can support given some hardware configuration, and what impact
// on users yields this maximum value."
//
// Every probe instantiates one shared server (internal/server): all
// candidate users contend on one clock, one CPU, one physical memory pool,
// and one link, so the capacity answer reflects cross-resource feedback —
// paging inflates echo latency, display traffic delays input packets —
// rather than three independent arithmetic checks. Capacity itself is
// latency-threshold capacity: the largest population whose p95 echo
// latency stays within DefaultLatencyBudget (150 ms) while staying out of
// paging and under link saturation. The
// memory-only division the paper's §5.1.1 tables support remains available
// as MemoryCapacity, and the latency-threshold answer can only be lower.
//
// Every capacity answer is a probe and a pass rule around Search, which
// sizes one machine (Capacity, ScheduleCapacity) and a fleet
// (shard.FleetCapacity) alike; every machine probe runs through
// EvaluateConfig and returns the server's own Result. Search is a binary
// search that probes one population per round, so an answer depends on
// the probes alone, never on the worker count or GOMAXPROCS of the
// machine that runs it.
package sizing

import (
	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/session"
	"thinbench/internal/simclock"
)

// Profile describes one class of user, the paper's "user behavior" axis.
type Profile struct {
	Name string
	// CPUPerInteraction is the application CPU consumed handling one
	// interaction (echo + render); display encoding costs EncodeCPU more.
	CPUPerInteraction simclock.Duration
	// InteractionsPerSec is the user's interaction rate while active.
	InteractionsPerSec float64
	// BackgroundCPUFrac is non-interactive CPU the user's session burns
	// (compilations, macros) as a fraction of one CPU.
	BackgroundCPUFrac float64
	// SessionKB is the per-session compulsory memory (§5.1.1).
	SessionKB int
	// DisplayBitsPerSec is steady display-channel traffic per user, which
	// depends on protocol and content (Figure 4's numbers are the extreme).
	DisplayBitsPerSec float64
}

// EncodeCPU is the display-encoder cost per interaction, charged on top
// of the profile's application CPU.
const EncodeCPU = 1500 * simclock.Microsecond

// LightAdmin is a forms-and-typing user on an efficient protocol.
func LightAdmin() Profile {
	return Profile{
		Name:               "light-admin",
		CPUPerInteraction:  2 * simclock.Millisecond,
		InteractionsPerSec: 2,
		BackgroundCPUFrac:  0.002,
		SessionKB:          3244 + 1200, // TSE login + one application
		DisplayBitsPerSec:  16_000,
	}
}

// WebBrowser is the paper's animated-page user: the bitmap cache has
// overflowed and the page streams at Figure 4's combined rate.
func WebBrowser() Profile {
	return Profile{
		Name:               "web-browser",
		CPUPerInteraction:  3 * simclock.Millisecond,
		InteractionsPerSec: 1,
		BackgroundCPUFrac:  0.01,
		SessionKB:          3244 + 4096,
		DisplayBitsPerSec:  1_600_000, // Figure 4 combined
	}
}

// Developer mixes typing with background compilation.
func Developer() Profile {
	return Profile{
		Name:               "developer",
		CPUPerInteraction:  2 * simclock.Millisecond,
		InteractionsPerSec: 4,
		BackgroundCPUFrac:  0.08,
		SessionKB:          752 + 2800,
		DisplayBitsPerSec:  40_000,
	}
}

// Server describes the hardware and policy configuration. Every machine
// has server.DefaultConfig's system baseline and link.
type Server struct {
	PhysicalKB int
	// Scheduler selects the CPU policy: "nt", "rr", or "svr4ia".
	Scheduler string
}

// DefaultLatencyBudget is the p95 echo-latency ceiling that defines
// capacity, for every machine and fleet: half again the paper's 100 ms
// perception limit, the operator's "users are complaining" line.
const DefaultLatencyBudget = 150 * simclock.Millisecond

// LoginBudget caps the login-screen wait a capacity answer may impose on
// arrivals: a healthy login (handshake bytes, full-manifest page-in,
// process creation) runs on the order of 1.5 s, so a 3 s ceiling flags a
// machine whose admissions are starving — the overload mode specific to
// churn, where stuck logins can hide in an echo percentile's tail.
const LoginBudget = 3 * simclock.Second

// DefaultServer is the paper's testbed class: 64 MB, 10 Mbps shared
// Ethernet, round-robin scheduling.
func DefaultServer() Server {
	return Server{
		PhysicalKB: 64 * 1024,
		Scheduler:  "rr",
	}
}

// ProbeConfig composes the shared-server instance for one capacity probe,
// the machine-and-workload model Capacity and ScheduleCapacity judge
// populations on; a fleet comparing an online controller against those
// oracles builds its Base from it, so both describe the same machine. The
// size-model codec keeps per-user state tiny, so wide fan-outs stay cheap.
func ProbeConfig(srv Server, p Profile, users int, span simclock.Duration, seed uint64) server.Config {
	def := server.DefaultConfig()
	return server.Config{
		Users:     users,
		Protocol:  "model",
		Scheduler: srv.Scheduler,

		PhysicalKB: srv.PhysicalKB,
		SystemKB:   def.SystemKB,
		Link:       def.Link,

		Manifest: session.Manifest{
			OS:        "profile",
			Variant:   p.Name,
			Processes: []session.ProcessSpec{{Name: "session", PrivateKB: p.SessionKB}},
		},

		InteractionsPerSec:   p.InteractionsPerSec,
		EchoCPU:              p.CPUPerInteraction,
		EncodeCPU:            EncodeCPU,
		BackgroundCPUFrac:    p.BackgroundCPUFrac,
		BackgroundBitsPerSec: p.DisplayBitsPerSec,

		Span: span,
		Seed: seed,
	}
}

// EvaluateConfig builds one machine in storage the pool lends, runs it,
// and gives it back. Every machine probe runs through it — capacity
// searches, fleet placement, the control plane — and so does every fleet
// machine, so a heterogeneous machine is judged by the same measurement
// that sizes a homogeneous one. It returns the run's Result and its
// samples (server.Samples), which stay the caller's. A configuration the
// server cannot build is an error. A nil pool builds from nothing.
func EvaluateConfig(pool *server.Pool, cfg server.Config) (server.Result, [][]float64, error) {
	inst, err := pool.New(cfg)
	if err != nil {
		return server.Result{}, nil, err
	}
	res, err := inst.Run()
	if err != nil {
		return server.Result{}, nil, err
	}
	samples := inst.Samples()
	pool.Put(inst)
	return res, samples, nil
}

// Limit names the resource that capped a capacity search.
type Limit string

// Binding resources.
const (
	LimitCPU     Limit = "cpu"
	LimitMemory  Limit = "memory"
	LimitNetwork Limit = "network"
	LimitNone    Limit = "none"
)

// MemoryCapacity is the §5.1.1 memory-only division: sessions that fit in
// physical memory after the system baseline, ignoring latency entirely.
// The latency-threshold Capacity can never exceed it when memory binds,
// because the first overcommitted user pushes every session into paging.
func MemoryCapacity(srv Server, p Profile) int {
	return session.Capacity(srv.PhysicalKB, server.DefaultConfig().SystemKB, session.Manifest{
		Processes: []session.ProcessSpec{{Name: "session", PrivateKB: p.SessionKB}},
	})
}

// Answer is a capacity search's result: the capacity and the probes that
// bound it, so a degenerate answer is diagnosable, not a bare number.
type Answer[T any] struct {
	// Users is the largest population the rule passes, 0 when even one
	// fails. At is the probe there (the zero value at 0); Over is the
	// probe at Users+1.
	Users    int
	At, Over T
}

// Search is the one capacity search, for a machine and a fleet alike: the
// largest n in [1, maxN] whose probe passes, 0 when n = 1 fails. probe
// must be deterministic in n, and the answer is exact when pass is
// monotone in it. Search probes n = 1, then one midpoint per round of
// the bracket [highest known pass, lowest possible pass], so the probes
// it runs, and hence its answer, depend only on probe and pass: never on
// how many workers the caller has. No population is probed twice, and
// the closing probe at Users+1 always runs. A probe error ends the search
// and is returned as is. Parallelism belongs inside a probe (a fleet run
// fans its machines out), not across them.
func Search[T any](maxN int, probe func(n int) (T, error), pass func(T) bool) (Answer[T], error) {
	if maxN < 1 {
		maxN = 1
	}
	seen := map[int]T{}
	run := func(n int) (T, error) {
		if r, ok := seen[n]; ok {
			return r, nil
		}
		r, err := probe(n)
		seen[n] = r
		return r, err
	}

	first, err := run(1)
	if err != nil {
		return Answer[T]{}, err
	}
	if !pass(first) {
		return Answer[T]{Over: first}, nil
	}
	// The bracket is [lo known-good, hi possibly-good].
	lo, hi := 1, maxN
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		r, err := run(mid)
		if err != nil {
			return Answer[T]{}, err
		}
		if pass(r) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	over, err := run(lo + 1)
	if err != nil {
		return Answer[T]{}, err
	}
	return Answer[T]{Users: lo, At: seen[lo], Over: over}, nil
}

// Capacity finds the latency-threshold capacity: the largest user count
// whose p95 echo latency stays within DefaultLatencyBudget, out of paging,
// and under 80% link utilization. The Limit names the resource that binds
// one user past it.
func Capacity(srv Server, p Profile, maxUsers int, span simclock.Duration, seed uint64) (Answer[server.Result], Limit, error) {
	return search(maxUsers, violation, func(users int) server.Config {
		return ProbeConfig(srv, p, users, span, seed)
	})
}

// ScheduleCapacity sizes a machine for the shape of its day rather than
// its steady state: the largest seat count for which, with arrivals
// driven by the schedule profile (the 9 AM storm, the lunch dip, the
// shift wave), the WORST timeline slice's p95 stays within the budget and
// no admission waits at the login screen past LoginBudget. Budgeting the
// worst minute instead of the whole-run percentile is the point — a storm
// is brief by definition, so averaging it away is exactly how a fleet
// ends up under-provisioned at nine o'clock. Churn-aware capacity is
// ScheduleCapacity(schedule.Flat(r)): replacement logins only add load,
// so its answer can only be at or below the static Capacity. The profile
// is validated once, and each probe runs its plan for the probed seats
// (schedule.Compile), compiled from the probe's seed.
func ScheduleCapacity(srv Server, p Profile, prof schedule.Profile, maxUsers int, span simclock.Duration, seed uint64) (Answer[server.Result], Limit, error) {
	compiled, err := schedule.NewCompiled(prof)
	if err != nil {
		return Answer[server.Result]{}, LimitNone, err
	}
	return search(maxUsers, scheduleViolation, func(users int) server.Config {
		cfg := ProbeConfig(srv, p, users, span, seed)
		cfg.Sessions = compiled.Plan(users, span, seed)
		return cfg
	})
}

// search is Search over machine probes built by config and judged by
// rule, returning the rule's verdict on the probe past the capacity. Each
// probe builds its machine in the last one's storage.
func search(maxUsers int, rule func(server.Result) Limit, config func(users int) server.Config) (Answer[server.Result], Limit, error) {
	var pool server.Pool
	ans, err := Search(maxUsers,
		func(users int) (server.Result, error) {
			res, _, err := EvaluateConfig(&pool, config(users))
			return res, err
		},
		func(r server.Result) bool { return rule(r) == LimitNone })
	if err != nil {
		return Answer[server.Result]{}, LimitNone, err
	}
	return ans, rule(ans.Over), nil
}

// violation reports the first constraint the result breaks. Paging and
// link saturation are checked before the latency budget so that a blown
// budget names the scarce resource, not just the symptom. A probe where no
// interaction ever completed (all censored, or a span too short to submit
// any) is a latency violation regardless of the measured percentiles:
// censored samples are ages at run end, which a short span can keep under
// the budget even though every user is still waiting.
func violation(r server.Result) Limit {
	if r.Paging {
		return LimitMemory
	}
	if r.LinkUtilization > 0.8 {
		return LimitNetwork
	}
	if r.Censored >= r.Interactions || r.EchoP95Ms > DefaultLatencyBudget.Milliseconds() ||
		r.LoginMaxMs > LoginBudget.Milliseconds() {
		return LimitCPU
	}
	return LimitNone
}

// scheduleViolation is violation with the latency constraint tightened to
// the worst timeline slice: a machine sized for a schedule must survive
// its storm minute, not just its whole-run percentile. One carve-out from
// the shared rule: a probe that never submitted an interaction at all is
// "no data", not overload — a lone seat can draw a login-dominated
// evening stint from the profile, and reading its empty episode as a
// blown budget would floor every schedule capacity at zero. Paging, link
// saturation, and login starvation still disqualify such a probe.
func scheduleViolation(r server.Result) Limit {
	if r.Interactions == 0 {
		switch {
		case r.Paging:
			return LimitMemory
		case r.LinkUtilization > 0.8:
			return LimitNetwork
		case r.LoginMaxMs > LoginBudget.Milliseconds():
			return LimitCPU
		}
		return LimitNone
	}
	if v := violation(r); v != LimitNone {
		return v
	}
	for _, p := range r.P95TimelineMs {
		if p > DefaultLatencyBudget.Milliseconds() {
			return LimitCPU
		}
	}
	return LimitNone
}
