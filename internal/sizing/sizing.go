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
// latency stays within the server's configurable budget (150 ms by
// default) while staying out of paging and under link saturation. The
// memory-only division the paper's §5.1.1 tables support remains available
// as MemoryCapacity, and the latency-threshold answer can only be lower.
package sizing

import (
	"thinbench/internal/farm"
	"thinbench/internal/netsim"
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

// Server describes the hardware and policy configuration.
type Server struct {
	PhysicalKB int
	SystemKB   int
	LinkMbps   float64
	// Scheduler selects the CPU policy: "nt", "rr", or "svr4ia".
	Scheduler string
	// LatencyBudget is the p95 echo-latency ceiling that defines
	// capacity; zero means the 150 ms default.
	LatencyBudget simclock.Duration
}

// DefaultLatencyBudget is the capacity threshold when a Server leaves
// LatencyBudget zero: half again the paper's 100 ms perception limit, the
// operator's "users are complaining" line.
const DefaultLatencyBudget = 150 * simclock.Millisecond

// LoginBudget caps the login-screen wait a capacity answer may impose on
// arrivals: a healthy login (handshake bytes, full-manifest page-in,
// process creation) runs on the order of 1.5 s, so a 3 s ceiling flags a
// machine whose admissions are starving — the overload mode specific to
// churn, where stuck logins can hide in an echo percentile's tail.
const LoginBudget = 3 * simclock.Second

// DefaultServer is the paper's testbed class: 64 MB, 10 Mbps shared
// Ethernet, round-robin scheduling, 150 ms p95 budget.
func DefaultServer() Server {
	return Server{
		PhysicalKB: 64 * 1024,
		SystemKB:   18 * 1024,
		LinkMbps:   10,
		Scheduler:  "rr",
	}
}

func (s Server) budget() simclock.Duration {
	if s.LatencyBudget > 0 {
		return s.LatencyBudget
	}
	return DefaultLatencyBudget
}

// probeConfig composes the shared-server instance for one capacity probe.
// The size-model codec keeps per-user state tiny, so wide candidate
// fan-outs stay cheap; protocol-faithful byte streams live in the
// contention experiments.
func probeConfig(srv Server, p Profile, users int, span simclock.Duration, seed uint64) server.Config {
	link := netsim.DefaultLinkConfig()
	link.RateMbps = srv.LinkMbps
	return server.Config{
		Users:     users,
		Protocol:  "model",
		Scheduler: srv.Scheduler,

		PhysicalKB: srv.PhysicalKB,
		SystemKB:   srv.SystemKB,
		Link:       link,

		Manifest: session.Manifest{
			OS:        "profile",
			Variant:   p.Name,
			Processes: []session.ProcessSpec{{Name: "session", PrivateKB: p.SessionKB}},
		},
		WorkingSetKB: 64,

		InteractionsPerSec:   p.InteractionsPerSec,
		EchoCPU:              p.CPUPerInteraction,
		EncodeCPU:            EncodeCPU,
		BackgroundCPUFrac:    p.BackgroundCPUFrac,
		BackgroundBitsPerSec: p.DisplayBitsPerSec,

		InputBytes: 64,
		EchoBytes:  200,
		// The model codec's session-setup handshake, paid on the link by
		// every churn replacement login (tab4-scale, X-handshake class),
		// and the process-creation compute each replacement charges the
		// shared CPU.
		SetupBytes: 16 * 1024,
		LoginCPU:   server.DefaultLoginCPU,

		Span: span,
		Seed: seed,
	}
}

// ProbeConfig exposes the capacity probes' server composition: the exact
// machine-and-workload model Capacity, ChurnCapacity, and ScheduleCapacity
// judge populations on. A fleet experiment comparing an online controller
// against one of those offline oracles builds its Base from this, so the
// two answers describe the same machine rather than coincidentally
// similar ones.
func ProbeConfig(srv Server, p Profile, users int, span simclock.Duration, seed uint64) server.Config {
	return probeConfig(srv, p, users, span, seed)
}

// Estimate is the impact of a given population on one shared server.
type Estimate struct {
	Users int
	// Echo latency percentiles over every user's every interaction
	// (right-censored at run end, so overload reads as high latency).
	MeanEchoMs float64
	P95EchoMs  float64
	MaxEchoMs  float64
	// CPUUtilization and LinkUtilization are measured over the span.
	CPUUtilization  float64
	LinkUtilization float64
	// MemoryKB is committed session memory plus the system baseline;
	// Paging reports that the population overcommitted physical memory
	// and paid page-in latency.
	MemoryKB int
	Paging   bool
	// Interactions counts submitted probe events; Censored counts the
	// ones that never completed within the span. When every interaction
	// is censored the latency percentiles are lower bounds from ages at
	// run end, so violation treats that case as a blown budget no matter
	// how small the numbers read.
	Interactions int64
	Censored     int64
	// LoginMaxMs is the slowest mid-run admission (0 on a static run);
	// violation checks it against LoginBudget so a churned machine whose
	// arrivals starve at the login screen cannot read as acceptable.
	LoginMaxMs float64
	// WorstSliceP95Ms is the highest per-slice p95 of the run's latency
	// timeline — the worst minute of the day, the number ScheduleCapacity
	// budgets against. A bursty schedule can keep its whole-run p95 inside
	// budget while its storm minute is far outside; this field is what
	// keeps that machine from being declared adequately sized.
	WorstSliceP95Ms float64
}

// Evaluate simulates the population on one shared server for the span and
// measures every user's echo latency under full contention.
func Evaluate(srv Server, p Profile, users int, span simclock.Duration, seed uint64) Estimate {
	if users < 1 {
		users = 1
	}
	est, err := EvaluateConfig(probeConfig(srv, p, users, span, seed))
	if err != nil {
		// Profiles and servers are validated values; a bad scheduler name
		// is a programming error.
		panic(err)
	}
	return est
}

// EvaluateConfig measures an explicit server.Config the same way Evaluate
// measures a profile-derived one. Fleet placement policies probe candidate
// shards through this entry point, so a heterogeneous machine (overridden
// memory, scaled CPU costs) is judged by the same latency estimate that
// sizes a homogeneous one.
func EvaluateConfig(cfg server.Config) (Estimate, error) {
	inst, err := server.New(cfg)
	if err != nil {
		return Estimate{}, err
	}
	res, err := inst.Run()
	if err != nil {
		return Estimate{}, err
	}
	worst := 0.0
	for _, p := range res.P95TimelineMs {
		if p > worst {
			worst = p
		}
	}
	return Estimate{
		Users:           res.Users,
		MeanEchoMs:      res.EchoMeanMs,
		P95EchoMs:       res.EchoP95Ms,
		MaxEchoMs:       res.EchoMaxMs,
		CPUUtilization:  res.CPUUtilization,
		LinkUtilization: res.LinkUtilization,
		MemoryKB:        res.CommittedKB,
		Paging:          res.Paging,
		Interactions:    res.Interactions,
		Censored:        res.Censored,
		LoginMaxMs:      res.LoginMaxMs,
		WorstSliceP95Ms: worst,
	}, nil
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
	return session.Capacity(srv.PhysicalKB, srv.SystemKB, session.Manifest{
		Processes: []session.ProcessSpec{{Name: "session", PrivateKB: p.SessionKB}},
	})
}

// Capacity finds the latency-threshold capacity: the largest user count
// whose p95 echo latency stays within the server's budget, out of paging,
// and under 80% link utilization. It returns the count, the estimate at
// that count, and which resource binds at count+1. Probes fan out across
// a farm sized to GOMAXPROCS; use CapacityParallel to pick the worker
// count.
func Capacity(srv Server, p Profile, maxUsers int, span simclock.Duration, seed uint64) (int, Estimate, Limit) {
	return CapacityParallel(srv, p, maxUsers, span, seed, 0)
}

// CapacityParallel is Capacity with an explicit probe worker count (<= 0
// means GOMAXPROCS). Instead of sequential binary probing, each round
// evaluates up to `workers` candidate user-counts concurrently — a k-ary
// search over the bracket, each probe a complete shared-server instance.
// Every probe is deterministic in (users, seed) alone, and the three
// constraints are monotone in the user count, so the answer is identical
// under any worker count; fan-out only buys wall-clock time, cutting
// rounds from log2(maxUsers) to log(k+1)(maxUsers).
func CapacityParallel(srv Server, p Profile, maxUsers int, span simclock.Duration, seed uint64, workers int) (int, Estimate, Limit) {
	return capacitySearch(srv, maxUsers, workers, seed,
		func(users int) Estimate { return Evaluate(srv, p, users, span, seed) })
}

// ChurnCapacity is the capacity question asked of a machine that never
// reaches steady state: the largest population whose p95 echo latency
// stays within the budget while sessions churn — each logs out with the
// given per-second hazard and is immediately replaced by a fresh login
// that pays session-setup bytes on the contended link and login page-ins
// on the shared memory. At rate 0 it is exactly CapacityParallel; at any
// positive rate the churn load can only subtract capacity, never add it.
func ChurnCapacity(srv Server, p Profile, ratePerSec float64, maxUsers int, span simclock.Duration, seed uint64, workers int) (int, Estimate, Limit) {
	return capacitySearch(srv, maxUsers, workers, seed, func(users int) Estimate {
		if users < 1 {
			users = 1
		}
		cfg := probeConfig(srv, p, users, span, seed)
		if ratePerSec > 0 {
			flat := schedule.Flat(ratePerSec)
			cfg.Schedule = &flat
		}
		est, err := EvaluateConfig(cfg)
		if err != nil {
			// Profiles and servers are validated values; a bad scheduler
			// name is a programming error.
			panic(err)
		}
		return est
	})
}

// ScheduleCapacity sizes a machine for the shape of its day rather than
// its steady state: the largest seat count for which, with arrivals
// driven by the schedule profile (the 9 AM storm, the lunch dip, the
// shift wave), the WORST timeline slice's p95 stays within the budget and
// no admission waits at the login screen past LoginBudget. Budgeting the
// worst minute instead of the whole-run percentile is the point — a storm
// is brief by definition, so averaging it away is exactly how a fleet
// ends up under-provisioned at nine o'clock. A Flat profile's answer can
// only be at or below ChurnCapacity's at the same rate, since the worst
// slice bounds the whole-run p95 from above.
func ScheduleCapacity(srv Server, p Profile, prof schedule.Profile, maxUsers int, span simclock.Duration, seed uint64, workers int) (int, Estimate, Limit, error) {
	if err := prof.Validate(); err != nil {
		return 0, Estimate{}, LimitNone, err
	}
	users, est, lim := capacitySearchFn(srv, maxUsers, workers, seed, func(users int) Estimate {
		if users < 1 {
			users = 1
		}
		cfg := probeConfig(srv, p, users, span, seed)
		cfg.Schedule = &prof
		est, err := EvaluateConfig(cfg)
		if err != nil {
			// The profile was validated above; anything else is a
			// programming error, as in every other capacity probe.
			panic(err)
		}
		return est
	}, scheduleViolation)
	return users, est, lim, nil
}

// capacitySearch is the k-ary bracket narrowing shared by every capacity
// entry point, under the default steady-state violation rule.
func capacitySearch(srv Server, maxUsers, workers int, seed uint64, eval func(users int) Estimate) (int, Estimate, Limit) {
	return capacitySearchFn(srv, maxUsers, workers, seed, eval, violation)
}

// capacitySearchFn is capacitySearch with an explicit violation rule:
// eval must be deterministic in the user count alone, and the rule's
// constraints monotone in it.
func capacitySearchFn(srv Server, maxUsers, workers int, seed uint64, eval func(users int) Estimate, violation func(Server, Estimate) Limit) (int, Estimate, Limit) {
	if maxUsers < 1 {
		maxUsers = 1
	}
	cache := map[int]Estimate{}
	probe := func(counts []int) {
		fresh := counts[:0]
		for _, c := range counts {
			if _, ok := cache[c]; !ok {
				fresh = append(fresh, c)
			}
		}
		if len(fresh) == 0 {
			return
		}
		// eval never fails, so the farm error is always nil.
		ests, _ := farm.Run(farm.Config{Sessions: len(fresh), Workers: workers, Seed: seed},
			func(s *farm.Session) (Estimate, error) {
				return eval(fresh[s.Index]), nil
			})
		for i, c := range fresh {
			cache[c] = ests[i]
		}
	}

	k := farm.Config{Sessions: maxUsers, Workers: workers}.EffectiveWorkers()
	probe([]int{1})
	if v := violation(srv, cache[1]); v != LimitNone {
		return 0, cache[1], v
	}
	// k-ary bracket narrowing: [lo known-good, hi possibly-good].
	lo, hi := 1, maxUsers
	for lo < hi {
		counts := make([]int, 0, k)
		width := hi - lo
		for j := 1; j <= k; j++ {
			// Probe the k interior cut points dividing (lo, hi] into k+1
			// segments; k=1 reduces exactly to classic binary search.
			c := lo + (width*j+k)/(k+1)
			if len(counts) == 0 || counts[len(counts)-1] != c {
				counts = append(counts, c)
			}
		}
		probe(counts)
		newLo, newHi := lo, hi
		for _, c := range counts {
			if violation(srv, cache[c]) == LimitNone {
				if c > newLo {
					newLo = c
				}
			} else if c-1 < newHi {
				newHi = c - 1
			}
		}
		lo, hi = newLo, newHi
	}
	probe([]int{lo + 1})
	return lo, cache[lo], violation(srv, cache[lo+1])
}

// violation reports the first constraint the estimate breaks. Paging and
// link saturation are checked before the latency budget so that a blown
// budget names the scarce resource, not just the symptom. A probe where no
// interaction ever completed (all censored, or a span too short to submit
// any) is a latency violation regardless of the measured percentiles:
// censored samples are ages at run end, which a short span can keep under
// the budget even though every user is still waiting.
func violation(srv Server, e Estimate) Limit {
	if e.Paging {
		return LimitMemory
	}
	if e.LinkUtilization > 0.8 {
		return LimitNetwork
	}
	if e.Censored >= e.Interactions || e.P95EchoMs > srv.budget().Milliseconds() ||
		e.LoginMaxMs > LoginBudget.Milliseconds() {
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
func scheduleViolation(srv Server, e Estimate) Limit {
	if e.Interactions == 0 {
		switch {
		case e.Paging:
			return LimitMemory
		case e.LinkUtilization > 0.8:
			return LimitNetwork
		case e.LoginMaxMs > LoginBudget.Milliseconds():
			return LimitCPU
		}
		return LimitNone
	}
	if v := violation(srv, e); v != LimitNone {
		return v
	}
	if e.WorstSliceP95Ms > srv.budget().Milliseconds() {
		return LimitCPU
	}
	return LimitNone
}
