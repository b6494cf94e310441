package server

import (
	"cmp"
	"math"
	"reflect"
	"strings"
	"testing"

	"thinbench/internal/proto/protos"
	"thinbench/internal/schedule"
	"thinbench/internal/session"
	"thinbench/internal/simclock"
)

// codecs is the model codec and every protocol.
var codecs = append([]string{"model"}, protos.Names()...)

// sec is s seconds as a simulated instant.
func sec(s float64) simclock.Time { return simclock.Time(s * float64(simclock.Second)) }

// quick returns a short-span configuration for fast tests.
func quick() Config {
	cfg := DefaultConfig()
	cfg.Span = 3 * simclock.Second
	cfg.Seed = 42
	return cfg
}

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunDeterministic(t *testing.T) {
	for _, proto := range []string{"rdp", "x", "model"} {
		cfg := quick()
		cfg.Users = 6
		cfg.Protocol = proto
		a := mustRun(t, cfg)
		b := mustRun(t, cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: identical configs diverged:\n%+v\n%+v", proto, a, b)
		}
	}
}

// TestChurnZeroRateIsStatic pins the lifecycle refactor's compatibility
// contract: a population with no turnover — no plan, or the explicit
// plan of every seat present for the whole run — is the static population
// bit-for-bit, so every pre-churn baseline stays valid.
func TestChurnZeroRateIsStatic(t *testing.T) {
	cfg := quick()
	cfg.Users = 6
	static := mustRun(t, cfg)
	cfg.Sessions = make([]schedule.Session, cfg.Users)
	if got := mustRun(t, cfg); !reflect.DeepEqual(got, static) {
		t.Fatalf("all-present plan diverged from static run:\n%+v\n%+v", got, static)
	}
}

// scheduled is cfg running prof compiled over seats at cfg's span and
// seed, the plan a capacity probe hands its machine.
func scheduled(cfg Config, prof schedule.Profile, seats int) Config {
	plan, err := schedule.Compile(prof, seats, cfg.Span, cfg.Seed)
	if err != nil {
		panic(err)
	}
	cfg.Sessions = plan
	return cfg
}

func TestChurnRunDeterministic(t *testing.T) {
	cfg := quick()
	cfg = scheduled(cfg, schedule.Flat(0.5), 6)
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical churn configs diverged:\n%+v\n%+v", a, b)
	}
	if a.Arrivals == 0 || a.Departures == 0 {
		t.Fatalf("0.5/s churn over 3s produced no turnover: %+v", a)
	}
}

// TestArrivalsPaySessionSetup: a churned population must put more bytes on
// the contended link than the same static population — every replacement
// login pays the protocol's session-setup handshake (tab4's cost, 45 KB
// for RDP) before its first echo counts.
func TestArrivalsPaySessionSetup(t *testing.T) {
	cfg := quick()
	cfg.Users = 6
	static := mustRun(t, cfg)
	churned := mustRun(t, scheduled(cfg, schedule.Flat(0.5), cfg.Users))
	if churned.LinkUtilization <= static.LinkUtilization {
		t.Fatalf("churned link load %.4f not above static %.4f despite %d setup handshakes",
			churned.LinkUtilization, static.LinkUtilization, churned.Arrivals)
	}
	if churned.PeakUsers != cfg.Users {
		t.Fatalf("replacement churn peaked at %d concurrent users, want the offered %d",
			churned.PeakUsers, cfg.Users)
	}
}

// TestDepartureRelaxesMemoryPressure: on an overcommitted machine, a
// departure wave must free memory mid-run — fewer demand faults and a
// smaller resident set than the same population staying to the end.
func TestDepartureRelaxesMemoryPressure(t *testing.T) {
	base := quick()
	base.Users = 16 // past the ~13-session memory division
	base.BackgroundCPUFrac = 0
	base.InteractionsPerSec = 10
	stay := mustRun(t, base)

	half := base
	half.Sessions = make([]schedule.Session, 16)
	for i := 8; i < 16; i++ {
		half.Sessions[i].Logout = simclock.Time(base.Span / 2)
	}
	leave := mustRun(t, half)

	if !stay.Paging {
		t.Fatalf("16 sessions did not overcommit the 64 MB machine: %+v", stay)
	}
	if leave.Departures != 8 {
		t.Fatalf("%d departures, want 8", leave.Departures)
	}
	if leave.FaultsAfterLogin >= stay.FaultsAfterLogin {
		t.Fatalf("departures did not relax eviction pressure: %d faults with churn, %d static",
			leave.FaultsAfterLogin, stay.FaultsAfterLogin)
	}
	if leave.ResidentKB >= stay.ResidentKB {
		t.Fatalf("departed sessions still resident: %d KB vs %d KB static",
			leave.ResidentKB, stay.ResidentKB)
	}
}

// TestExplicitLifecyclePlan drives one arrival and one departure through
// the full admission path: setup bytes, login page-ins, typing, logout.
func TestExplicitLifecyclePlan(t *testing.T) {
	cfg := quick()
	cfg.Sessions = []schedule.Session{
		{},                                       // present throughout
		{Logout: simclock.Time(simclock.Second)}, // departs at 1s
		{Login: simclock.Time(simclock.Second)},  // arrives at 1s
		{Login: simclock.Time(cfg.Span), Logout: 0}, // dropped: arrives at span
	}
	res := mustRun(t, cfg)
	if res.Users != 2 || res.Arrivals != 1 || res.Departures != 1 {
		t.Fatalf("lifecycle accounting: users=%d arrivals=%d departures=%d, want 2/1/1",
			res.Users, res.Arrivals, res.Departures)
	}
	if res.PeakUsers != 2 {
		t.Fatalf("peak %d, want 2 (the arrival's handshake lands after the departure)", res.PeakUsers)
	}
	if len(res.P95TimelineMs) != TimelineSlices(cfg.Span) {
		t.Fatalf("timeline has %d slices, want %d", len(res.P95TimelineMs), TimelineSlices(cfg.Span))
	}
	if res.P95TimelineMs[0] <= 0 {
		t.Fatal("first slice of an active run has no samples")
	}
	if res.EchoSamples != res.Interactions {
		t.Fatalf("samples %d != interactions %d: lifecycle censoring leak",
			res.EchoSamples, res.Interactions)
	}
}

// TestLogoutMidHandshakeAborts: a session whose logout fires before its
// setup handshake completes must never attach — the connection died.
func TestLogoutMidHandshakeAborts(t *testing.T) {
	cfg := quick()
	cfg.Sessions = []schedule.Session{
		{},
		{Login: simclock.Time(simclock.Second), Logout: simclock.Time(simclock.Second + simclock.Millisecond)},
	}
	res := mustRun(t, cfg) // RDP setup is 45 KB: far more than 1 ms of link time
	if res.Arrivals != 0 || res.Departures != 0 {
		t.Fatalf("aborted handshake still counted: arrivals=%d departures=%d",
			res.Arrivals, res.Departures)
	}
	if res.PeakUsers != 1 {
		t.Fatalf("aborted session attached anyway: peak %d", res.PeakUsers)
	}
}

// TestSharedClockReplayWorkerInvariant is the multi-user replay
// determinism proof: many users share one clock inside each server, whole
// servers fan out across the farm, and the same seed must produce
// bit-for-bit identical event interleavings — hence identical results — at
// any worker count.
func TestSharedClockReplayWorkerInvariant(t *testing.T) {
	base := quick()
	base.Span = 2 * simclock.Second
	run := func(workers int) []Scenario {
		grid, err := Grid(base, []string{"rdp", "x"}, []string{"rr", "nt"}, []int{1, 4, 8}, workers, 7)
		if err != nil {
			t.Fatal(err)
		}
		return grid
	}
	ref := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d diverged from sequential grid", workers)
		}
	}
}

func TestLatencyDegradesWithUsers(t *testing.T) {
	counts := []int{1, 2, 4, 8, 12, 16, 20}
	var prevMean, prevP95 float64
	for i, n := range counts {
		cfg := DefaultConfig()
		cfg.Users = n
		cfg.Seed = 1999
		res := mustRun(t, cfg)
		// Epsilon absorbs sub-10µs jitter between adjacent small counts.
		const eps = 0.01
		if i > 0 && res.EchoMeanMs+eps < prevMean {
			t.Fatalf("mean latency improved with more users: %d users %.3fms after %.3fms",
				n, res.EchoMeanMs, prevMean)
		}
		if i > 0 && res.EchoP95Ms+eps < prevP95 {
			t.Fatalf("p95 latency improved with more users: %d users %.3fms after %.3fms",
				n, res.EchoP95Ms, prevP95)
		}
		prevMean, prevP95 = res.EchoMeanMs, res.EchoP95Ms
	}
	if prevMean < 100 {
		t.Fatalf("20 users on a 64MB box should be far past perception, mean=%.1fms", prevMean)
	}
}

func TestPagingFeedsBackIntoLatency(t *testing.T) {
	over := quick()
	over.Users = 16 // (65536-18432)/3552 ≈ 13 sessions fit
	// Keep CPU demand well under saturation so the memory axis is isolated.
	over.BackgroundCPUFrac = 0
	over.InteractionsPerSec = 10
	crowded := mustRun(t, over)
	ample := over
	ample.PhysicalKB = 512 * 1024
	roomy := mustRun(t, ample)

	if !crowded.Paging || crowded.FaultsAfterLogin == 0 {
		t.Fatalf("overcommitted population did not page: %+v", crowded)
	}
	if roomy.Paging {
		t.Fatalf("ample memory paged anyway: %+v", roomy)
	}
	if crowded.EchoP95Ms < 10*roomy.EchoP95Ms {
		t.Fatalf("paging feedback too weak: crowded p95 %.1fms vs roomy %.1fms",
			crowded.EchoP95Ms, roomy.EchoP95Ms)
	}
	if crowded.PageInMs <= 0 {
		t.Fatal("paging population reported zero page-in time")
	}
}

func TestSVR4ClassProtectsInteractiveWork(t *testing.T) {
	cfg := quick()
	cfg.Users = 6
	cfg.BackgroundCPUFrac = 0.12 // heavy non-interactive competition
	rr := mustRun(t, cfg)
	cfg.Scheduler = "svr4ia"
	ia := mustRun(t, cfg)
	if ia.EchoP95Ms >= rr.EchoP95Ms {
		t.Fatalf("interactive class did not help: svr4ia p95 %.2fms vs rr %.2fms",
			ia.EchoP95Ms, rr.EchoP95Ms)
	}
}

func TestSharedLinkCarriesAllSessions(t *testing.T) {
	cfg := quick()
	cfg.Users = 1
	one := mustRun(t, cfg)
	cfg.Users = 10
	ten := mustRun(t, cfg)
	if ten.LinkUtilization < 5*one.LinkUtilization {
		t.Fatalf("link load did not scale with users: %f -> %f",
			one.LinkUtilization, ten.LinkUtilization)
	}
	if ten.LinkUtilization > 1.0 {
		t.Fatalf("implausible link utilization %f", ten.LinkUtilization)
	}
}

func TestCensoringCoversEveryInteraction(t *testing.T) {
	cfg := quick()
	cfg.Users = 24 // far past every limit: most echoes never complete
	res := mustRun(t, cfg)
	if res.EchoSamples != res.Interactions {
		t.Fatalf("samples %d != interactions %d: censoring leak",
			res.EchoSamples, res.Interactions)
	}
	if res.Censored == 0 {
		t.Fatal("a 24-user overload should censor some interactions")
	}
}

func TestModelProtocolMatchesPipelineShape(t *testing.T) {
	cfg := quick()
	cfg.Users = 4
	cfg.Protocol = ""
	res := mustRun(t, cfg)
	if res.Protocol != "model" {
		t.Fatalf("protocol name = %q, want model", res.Protocol)
	}
	if res.EchoSamples == 0 || res.EchoMeanMs <= 0 {
		t.Fatalf("model pipeline produced no latency: %+v", res)
	}
}

// TestEmptyGridIsExplicitNoOp pins the empty-sweep contract: an empty
// configuration list, or a grid with any empty axis, returns an empty
// non-nil slice and no error instead of falling into a zero-session farm
// run.
func TestEmptyGridIsExplicitNoOp(t *testing.T) {
	res, err := Sweep(nil, 4, 7)
	if err != nil || res == nil || len(res) != 0 {
		t.Fatalf("empty sweep: results=%v err=%v, want empty slice and nil error", res, err)
	}
	base := quick()
	for _, axes := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		protos := []string{"rdp"}[:axes[0]]
		scheds := []string{"rr"}[:axes[1]]
		users := []int{1}[:axes[2]]
		grid, err := Grid(base, protos, scheds, users, 4, 7)
		if err != nil || grid == nil || len(grid) != 0 {
			t.Fatalf("grid axes %v: scenarios=%v err=%v, want empty slice and nil error",
				axes, grid, err)
		}
	}
}

// TestEchoHistogramMatchesScalars: the mergeable histogram form must agree
// with Result's scalar summary — same sample count, and bucket-granular
// percentiles bounding the exact ones from above by at most one bucket.
func TestEchoHistogramMatchesScalars(t *testing.T) {
	cfg := quick()
	cfg.Users = 6
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	h := srv.EchoHistogram(1, 4096)
	if h.N() != res.EchoSamples {
		t.Fatalf("histogram N = %d, want %d echo samples", h.N(), res.EchoSamples)
	}
	for _, p := range []float64{50, 95} {
		exact := res.EchoP50Ms
		if p == 95 {
			exact = res.EchoP95Ms
		}
		got := h.Percentile(p)
		if got < exact || got > exact+1 {
			t.Fatalf("histogram p%v = %v, want within one 1ms bucket above exact %v", p, got, exact)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := quick()
	cfg.Protocol = "telnet"
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	// With no session present at time zero, nothing is logged in before
	// Run, and New must still refuse the protocol.
	cfg.Sessions = []schedule.Session{{Login: sec(1)}}
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown protocol accepted with no time-zero session")
	}
	// The check reads the registry's names; it builds no codec pair.
	for _, proto := range codecs {
		cfg := quick()
		cfg.Protocol = proto
		if allocs := testing.AllocsPerRun(10, func() {
			if err := cfg.validate(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("validating a %s configuration made %v allocations, want 0", proto, allocs)
		}
	}
	cfg = quick()
	cfg.Scheduler = "cfs"
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	cfg = quick()
	cfg.Users = 0
	if res := mustRun(t, cfg); res.Users != 1 {
		t.Fatalf("zero users clamped to %d, want 1", res.Users)
	}
}

// TestResultNamesThePolicyThatRan: Result.Scheduler names the CPU policy
// the machine ran, the round-robin one when the configuration names none.
func TestResultNamesThePolicyThatRan(t *testing.T) {
	for _, name := range []string{"", "rr", "nt", "svr4ia"} {
		cfg := quick()
		cfg.Scheduler = name
		if got, want := mustRun(t, cfg).Scheduler, cmp.Or(name, "rr"); got != want {
			t.Fatalf("scheduler %q reported as %q, want %q", name, got, want)
		}
	}
}

// TestNewRejectsUnbuildableMachine: a machine the memory manager cannot
// size, an input rate with no positive whole-microsecond period, a span
// that is not positive, a link with no positive rate and a session
// manifest with no page of memory or a process of negative size are each
// refused by New with a server: error, before anything is built, instead
// of panicking inside New or Run (a session with no memory has no working
// set to touch), reporting NaN utilizations for an empty span, or, for an
// infinite rate, scheduling keystrokes until memory runs out.
func TestNewRejectsUnbuildableMachine(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"no physical memory", func(c *Config) { c.PhysicalKB = 0 }},
		{"physical memory under one page", func(c *Config) { c.PhysicalKB = 3 }},
		{"system baseline fills memory", func(c *Config) { c.SystemKB = c.PhysicalKB }},
		{"system baseline rounds up to all of memory", func(c *Config) { c.SystemKB = c.PhysicalKB - 2 }},
		{"system baseline over memory", func(c *Config) { c.SystemKB = c.PhysicalKB + 100 }},
		{"negative system baseline", func(c *Config) { c.SystemKB = -1024 }},
		{"zero input rate", func(c *Config) { c.InteractionsPerSec = 0 }},
		{"negative input rate", func(c *Config) { c.InteractionsPerSec = -4 }},
		{"NaN input rate", func(c *Config) { c.InteractionsPerSec = math.NaN() }},
		{"input rate past one per microsecond", func(c *Config) { c.InteractionsPerSec = math.Inf(1) }},
		{"negative span", func(c *Config) { c.Span = -simclock.Second }},
		{"zero span", func(c *Config) { c.Span = 0 }},
		{"zero link rate", func(c *Config) { c.Link.RateMbps = 0 }},
		{"negative link rate", func(c *Config) { c.Link.RateMbps = -10 }},
		{"NaN link rate", func(c *Config) { c.Link.RateMbps = math.NaN() }},
		{"empty session manifest", func(c *Config) { c.Manifest.Processes = nil }},
		{"session manifest of no memory", func(c *Config) {
			c.Manifest.Processes = []session.ProcessSpec{{Name: "shell"}, {Name: "app"}}
		}},
		{"manifest process of negative size", func(c *Config) {
			c.Manifest.Processes = []session.ProcessSpec{{Name: "shell", PrivateKB: -8}, {Name: "app", PrivateKB: 2800}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quick()
			cfg.Users = 2
			cfg.Protocol = "model"
			tc.set(&cfg)
			if _, err := New(cfg); err == nil || !strings.HasPrefix(err.Error(), "server: ") {
				t.Fatalf("New error = %v, want a server: error", err)
			}
		})
	}
}

// stormPlan is a login storm on the default 64 MB machine's 3 s span: three
// sessions present from time zero, fifteen arrivals inside the first
// quarter second whose handshakes (45 KB each on rdp) fill the link queue,
// and every session gone by 2.7 s.
func stormPlan() []schedule.Session {
	storm := make([]schedule.Session, 18)
	for i := range storm {
		storm[i].Logout = sec(1.5 + 1.2*float64(i)/17)
		if i >= 3 {
			storm[i].Login = sec(float64(i-2) / 15 * 0.25)
		}
	}
	return storm
}

// TestMemoryReturnsOnLogout: once every session has logged out, the
// machine's resident memory is the page-rounded system baseline again and
// the memory manager's accounting holds, for the model codec and every
// protocol. One plan mixes present-from-start sessions, mid-run arrivals
// and an arrival that leaves 1 µs after it arrives, mid-handshake under
// every codec, so only the other two arrivals log in; another holds 18
// overlapping sessions on the default 64 MB machine, past its ~13-session
// memory division, so the clock pages while they stay. The storm plan's
// arrivals overflow the link queue, at its default size and at one
// packet: the refused packets must delay their sessions' messages, never
// lose or reorder them, or a codec's client falls out of step with its
// server (rdp's glyph cache first) and an interaction goes unaccounted.
func TestMemoryReturnsOnLogout(t *testing.T) {
	mixed := []schedule.Session{
		{Logout: sec(1)},
		{Logout: sec(2.5)},
		{Login: sec(0.5), Logout: sec(2)},
		{Login: sec(1), Logout: sec(1) + 1}, // leaves mid-handshake
		{Login: sec(1.2), Logout: sec(2.8)},
	}
	crowd := make([]schedule.Session, 18)
	for i := range crowd {
		crowd[i] = schedule.Session{Logout: sec(1.5 + 0.075*float64(i))}
	}
	for _, proto := range codecs {
		for _, plan := range []struct {
			name   string
			lcs    []schedule.Session
			paging bool
			queue  int // link queue in packets; 0 keeps the default
		}{
			{"mixed", mixed, false, 0},
			{"crowd", crowd, true, 0},
			{"storm", stormPlan(), false, 0},
			{"storm-queue1", stormPlan(), false, 1},
		} {
			t.Run(proto+"/"+plan.name, func(t *testing.T) {
				cfg := quick()
				cfg.Protocol = proto
				cfg.Sessions = plan.lcs
				if plan.queue > 0 {
					cfg.Link.QueuePackets = plan.queue
				}
				cfg.SystemKB++ // off a page boundary, so the reservation rounds up
				srv, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := srv.Run()
				if err != nil {
					t.Fatal(err)
				}
				pageKB := srv.mem.Config().PageKB
				if want := (cfg.SystemKB + pageKB - 1) / pageKB * pageKB; res.ResidentKB != want {
					t.Fatalf("%d KB resident after every logout, want the %d KB system baseline", res.ResidentKB, want)
				}
				if err := srv.mem.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if plan.paging && !res.Paging {
					t.Fatalf("%d sessions on %d KB never paged: %+v", len(plan.lcs), cfg.PhysicalKB, res)
				}
				if res.EchoSamples != res.Interactions {
					t.Fatalf("samples %d != interactions %d: an interaction went unaccounted", res.EchoSamples, res.Interactions)
				}
				if plan.name == "mixed" && res.Arrivals != 2 {
					t.Fatalf("%d arrivals logged in, want 2: the one leaving mid-handshake must not", res.Arrivals)
				}
				// The storm must keep exercising a refusal: every codec's
				// traffic overflows a one-packet queue, and rdp's handshakes
				// overflow the default one.
				if strings.HasPrefix(plan.name, "storm") && (plan.queue == 1 || proto == "rdp") && res.LinkDrops == 0 {
					t.Fatalf("the link refused no packet: %+v", res)
				}
			})
		}
	}
}

// TestTypingProbeHoldsFewPendingEvents guards the engine's pending set on
// the bench's echo_steady machine, 13 static rdp users on rr over 120 s.
// Each session's typing probe reserves its keystrokes at login and queues
// each one only when the one before it fires, so it holds one pending
// event and the machine a few per session at time zero and at 60 s;
// scheduling every keystroke of the span at login would hold 31,200 at
// time zero.
func TestTypingProbeHoldsFewPendingEvents(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users, cfg.Protocol, cfg.Scheduler = 13, "rdp", "rr"
	cfg.Span, cfg.Seed = 120*simclock.Second, 1999
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Test-only events, scheduled before Run: the one at time zero fires
	// ahead of everything Run schedules there, after start has armed every
	// session.
	atZero, atMid := -1, -1
	srv.eng.At(0, func(simclock.Time, int, int) { atZero = srv.eng.Pending() }, 0, 0)
	srv.eng.At(sec(60), func(simclock.Time, int, int) { atMid = srv.eng.Pending() }, 0, 0)
	if _, err := srv.Run(); err != nil {
		t.Fatal(err)
	}
	limit := 4 * cfg.Users
	if atZero < 0 || atZero > limit || atMid < 0 || atMid > limit {
		t.Fatalf("pending events: %d at time zero, %d at 60 s; want at most %d (4 per session)", atZero, atMid, limit)
	}
}
