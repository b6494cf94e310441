package sizing

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/simclock"
)

const testSpan = 10 * simclock.Second

// evaluate runs one profile probe, failing the test if it cannot be built.
func evaluate(t *testing.T, srv Server, p Profile, users int, span simclock.Duration, seed uint64) server.Result {
	t.Helper()
	r, _, err := EvaluateConfig(nil, ProbeConfig(srv, p, users, span, seed))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// capacity runs Capacity, failing the test on a probe error.
func capacity(t *testing.T, srv Server, p Profile, maxUsers int, span simclock.Duration, seed uint64) (Answer[server.Result], Limit) {
	t.Helper()
	ans, limit, err := Capacity(srv, p, maxUsers, span, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ans, limit
}

// worstSlice is the highest per-slice p95 of a run's latency timeline, the
// number ScheduleCapacity budgets against.
func worstSlice(r server.Result) float64 {
	worst := 0.0
	for _, p := range r.P95TimelineMs {
		worst = max(worst, p)
	}
	return worst
}

func TestLatencyGrowsWithUsers(t *testing.T) {
	srv := DefaultServer()
	srv.PhysicalKB = 512 * 1024 // isolate the CPU axis
	p := Developer()
	few := evaluate(t, srv, p, 2, testSpan, 1)
	many := evaluate(t, srv, p, 40, testSpan, 1)
	if many.EchoP95Ms <= few.EchoP95Ms {
		t.Fatalf("p95 did not grow under contention: %v -> %v", few.EchoP95Ms, many.EchoP95Ms)
	}
	if few.EchoP95Ms > DefaultLatencyBudget.Milliseconds() {
		t.Fatalf("2 developers already over budget: %.1f ms", few.EchoP95Ms)
	}
}

func TestWebBrowsersAreNetworkBound(t *testing.T) {
	// The paper's Figure 4 conclusion: ~5 animated-page users saturate
	// 10 Mbps Ethernet, long before CPU or memory matter.
	ans, limit := capacity(t, DefaultServer(), WebBrowser(), 100, testSpan, 1)
	if limit != LimitNetwork {
		t.Fatalf("web browsers limited by %s, want network", limit)
	}
	if ans.Users < 3 || ans.Users > 7 {
		t.Fatalf("capacity = %d users, paper says ~5 saturate the link", ans.Users)
	}
	if ans.At.LinkUtilization > 0.8 {
		t.Fatalf("returned result already violates the link bound: %v", ans.At.LinkUtilization)
	}
}

func TestLightAdminsAreMemoryBound(t *testing.T) {
	// Cheap interactions, tiny traffic: the 64 MB of RAM runs out first.
	ans, limit := capacity(t, DefaultServer(), LightAdmin(), 100, testSpan, 1)
	if limit != LimitMemory {
		t.Fatalf("light admins limited by %s, want memory", limit)
	}
	// (65536-18432)/4444 = 10 sessions.
	if ans.Users != 10 {
		t.Fatalf("capacity = %d, want 10 memory-bound sessions", ans.Users)
	}
}

// TestLatencyCapacityNeverExceedsMemoryCapacity pins the contention
// model's key property: because the first overcommitted user drags every
// session into paging and page-in latency lands on the echo path, the
// latency-threshold capacity cannot exceed the §5.1.1 memory division.
func TestLatencyCapacityNeverExceedsMemoryCapacity(t *testing.T) {
	srv := DefaultServer()
	for _, p := range []Profile{LightAdmin(), Developer(), WebBrowser()} {
		ans, _ := capacity(t, srv, p, 100, testSpan, 1)
		if memN := MemoryCapacity(srv, p); ans.Users > memN {
			t.Fatalf("%s: latency capacity %d exceeds memory-only capacity %d",
				p.Name, ans.Users, memN)
		}
	}
}

func TestDevelopersAreCPUBound(t *testing.T) {
	srv := DefaultServer()
	srv.PhysicalKB = 512 * 1024 // plenty of memory
	ans, limit := capacity(t, srv, Developer(), 120, testSpan, 1)
	if limit != LimitCPU {
		t.Fatalf("developers limited by %s, want cpu", limit)
	}
	if ans.Users < 5 || ans.Users > 100 {
		t.Fatalf("implausible developer capacity %d", ans.Users)
	}
	if ans.At.EchoP95Ms > DefaultLatencyBudget.Milliseconds() {
		t.Fatal("returned result already over the latency budget")
	}
}

func TestSVR4SchedulerRaisesCPUCapacity(t *testing.T) {
	srv := DefaultServer()
	srv.PhysicalKB = 512 * 1024
	rr, _ := capacity(t, srv, Developer(), 120, testSpan, 1)
	srv.Scheduler = "svr4ia"
	ia, _ := capacity(t, srv, Developer(), 120, testSpan, 1)
	if ia.Users <= rr.Users {
		t.Fatalf("interactive scheduler capacity %d not above round-robin %d", ia.Users, rr.Users)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	a := evaluate(t, DefaultServer(), Developer(), 10, testSpan, 42)
	b := evaluate(t, DefaultServer(), Developer(), 10, testSpan, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical seeds diverged: %+v vs %+v", a, b)
	}
}

func TestZeroAndNegativeUsersClamp(t *testing.T) {
	r := evaluate(t, DefaultServer(), LightAdmin(), 0, testSpan, 1)
	if r.Users != 1 {
		t.Fatalf("users clamped to %d, want 1", r.Users)
	}
	ans, _ := capacity(t, DefaultServer(), LightAdmin(), 0, testSpan, 1)
	if ans.Users < 0 {
		t.Fatal("negative capacity")
	}
}

// TestAllCensoredIsLatencyViolation pins the censoring fix: a span too
// short for any echo to complete yields censored-only samples whose ages
// can sit far under the budget, and such a result must never read as
// acceptable capacity.
func TestAllCensoredIsLatencyViolation(t *testing.T) {
	r := server.Result{Interactions: 40, Censored: 40, EchoP95Ms: 3}
	if v := violation(r); v != LimitCPU {
		t.Fatalf("all-censored result violated %s, want cpu (latency)", v)
	}
	// No interactions at all — a zero-length window — is equally "no echo
	// ever completed" and must not pass either.
	if v := violation(server.Result{}); v != LimitCPU {
		t.Fatalf("zero-interaction result violated %s, want cpu (latency)", v)
	}
	// A healthy result with some (but not all) censoring still judges on
	// its percentiles.
	ok := server.Result{Interactions: 40, Censored: 2, EchoP95Ms: 30}
	if v := violation(ok); v != LimitNone {
		t.Fatalf("partially censored healthy result violated %s", v)
	}
}

// TestUnbuildableProbeIsAnError: a probe the server cannot build — an
// unknown scheduler, a machine with no memory — must come back as an
// error from every entry point.
func TestUnbuildableProbeIsAnError(t *testing.T) {
	span := 3 * simclock.Second
	for _, tc := range []struct {
		set  func(*Server)
		want string
	}{
		{func(s *Server) { s.Scheduler = "cfs" }, `unknown scheduler "cfs"`},
		{func(s *Server) { s.PhysicalKB = 0 }, "server: vm: 0 KB of physical memory"},
	} {
		srv := DefaultServer()
		tc.set(&srv)
		if _, _, err := EvaluateConfig(nil, ProbeConfig(srv, Developer(), 6, span, 42)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("EvaluateConfig error = %v, want %s", err, tc.want)
		}
		if _, _, err := Capacity(srv, Developer(), 30, span, 42); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Capacity error = %v, want %s", err, tc.want)
		}
		if _, _, err := ScheduleCapacity(srv, Developer(), schedule.OfficeDay(), 30, span, 42); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("ScheduleCapacity error = %v, want %s", err, tc.want)
		}
	}
}

// TestSearchMatchesLinearScan pins the binary search to the brute-force
// frontier over synthetic monotone rules: every maxN in 1..40, every
// threshold in 0..maxN. The probe returns its population, so At and Over
// name the populations they were measured at. A probe that fails
// anywhere on the search's path — the first probe, a midpoint, the
// closing probe — ends the search with that probe's own error; a failure
// off the path is never reached.
func TestSearchMatchesLinearScan(t *testing.T) {
	boom := errors.New("probe failed")
	for maxN := 1; maxN <= 40; maxN++ {
		for threshold := 0; threshold <= maxN; threshold++ {
			pass := func(n int) bool { return n <= threshold }
			want := 0
			for n := 1; n <= maxN && pass(n); n++ {
				want = n
			}
			probed := map[int]int{}
			ans, err := Search(maxN, func(n int) (int, error) {
				probed[n]++
				return n, nil
			}, pass)
			if err != nil {
				t.Fatal(err)
			}
			if ans.Users != want {
				t.Fatalf("maxN=%d threshold=%d: capacity %d, linear scan says %d", maxN, threshold, ans.Users, want)
			}
			// At capacity 0 no population passed, so At is the zero
			// value; no real probe returns 0.
			if ans.At != want || ans.Over != want+1 {
				t.Fatalf("maxN=%d threshold=%d: At=%d Over=%d, want %d and %d",
					maxN, threshold, ans.At, ans.Over, want, want+1)
			}
			for n, times := range probed {
				if times != 1 {
					t.Fatalf("maxN=%d threshold=%d: population %d probed %d times", maxN, threshold, n, times)
				}
				if n < 1 || n > maxN+1 {
					t.Fatalf("maxN=%d: probed population %d outside [1, %d]", maxN, n, maxN+1)
				}
			}
			if maxN%13 != 1 || threshold%3 != 0 {
				continue // fail every population only on a spread of shapes
			}
			for failAt := 1; failAt <= maxN+1; failAt++ {
				got, err := Search(maxN, func(n int) (int, error) {
					if n == failAt {
						return 0, boom
					}
					return n, nil
				}, pass)
				onPath := probed[failAt] > 0
				if onPath && (err != boom || got != Answer[int]{}) || !onPath && (err != nil || got != ans) {
					t.Fatalf("maxN=%d threshold=%d: failure at %d (on path %v) returned (%+v, %v)",
						maxN, threshold, failAt, onPath, got, err)
				}
			}
		}
	}
}

// TestSearchNonMonotonePinned: when a pass is not monotone in n, Search
// answers by its one probe sequence, whatever machine runs it. The
// patterns are ctrl1's officeday probe scan at seed 4242 (fail at 1-3,
// pass at 4-5, fail from 6) and two with gaps: the answers and the
// probed populations are pinned.
func TestSearchNonMonotonePinned(t *testing.T) {
	for _, tc := range []struct {
		maxN   int
		passes []int
		want   int
		probes []int
	}{
		{maxN: 24, passes: []int{4, 5}, want: 0, probes: []int{1}},
		{maxN: 24, passes: []int{1, 2, 3, 7, 8, 13, 14, 15, 16}, want: 16, probes: []int{1, 13, 16, 17, 19}},
		{maxN: 16, passes: []int{1, 9, 10, 11}, want: 11, probes: []int{1, 9, 11, 12, 13}},
	} {
		var probes []int
		ans, err := Search(tc.maxN, func(n int) (int, error) {
			probes = append(probes, n)
			return n, nil
		}, func(n int) bool { return slices.Contains(tc.passes, n) })
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(probes)
		if ans.Users != tc.want || !slices.Equal(probes, tc.probes) {
			t.Errorf("passes %v over [1, %d]: answer %d after probing %v, want %d after %v",
				tc.passes, tc.maxN, ans.Users, probes, tc.want, tc.probes)
		}
	}
}

// linearCapacity is the brute-force reference: walk user counts upward
// until the first violation.
func linearCapacity(t *testing.T, srv Server, p Profile, maxUsers int, span simclock.Duration, seed uint64) (int, Limit) {
	for n := 1; n <= maxUsers; n++ {
		if v := violation(evaluate(t, srv, p, n, span, seed)); v != LimitNone {
			return n - 1, v
		}
	}
	return maxUsers, violation(evaluate(t, srv, p, maxUsers+1, span, seed))
}

// TestParallelCapacityMatchesLinearScan pins the capacity search to the
// brute-force frontier on a quick workload.
func TestParallelCapacityMatchesLinearScan(t *testing.T) {
	span := 3 * simclock.Second
	srv := DefaultServer()
	for _, p := range []Profile{LightAdmin(), WebBrowser()} {
		wantN, wantLimit := linearCapacity(t, srv, p, 30, span, 1)
		ans, limit := capacity(t, srv, p, 30, span, 1)
		if ans.Users != wantN || limit != wantLimit {
			t.Fatalf("%s: capacity=%d limit=%s, linear scan says %d/%s",
				p.Name, ans.Users, limit, wantN, wantLimit)
		}
		if ans.Users > 0 && ans.At.Users != ans.Users {
			t.Fatalf("%s: result for %d users returned at capacity %d", p.Name, ans.At.Users, ans.Users)
		}
		if ans.Over.Users != ans.Users+1 {
			t.Fatalf("%s: over probe ran %d users at capacity %d", p.Name, ans.Over.Users, ans.Users)
		}
	}
}

// TestChurnCapacityNeverExceedsStatic: churn-aware capacity is
// ScheduleCapacity under schedule.Flat. Turnover only adds load — setup
// bytes on the link, login page-ins on the memory, cold arrivals on the
// CPU — and the worst slice bounds the whole-run p95 from above, so the
// answer can never exceed steady-state capacity, and under a heavy rate
// it should strictly shrink.
func TestChurnCapacityNeverExceedsStatic(t *testing.T) {
	span := 5 * simclock.Second
	srv := DefaultServer()
	srv.PhysicalKB = 512 * 1024 // keep memory slack so churn load, not the division, binds
	p := Developer()
	static, _ := capacity(t, srv, p, 60, span, 1)
	for _, rate := range []float64{0.1, 0.5, 1.0} {
		churned, _, err := ScheduleCapacity(srv, p, schedule.Flat(rate), 60, span, 1)
		if err != nil {
			t.Fatal(err)
		}
		if churned.Users > static.Users {
			t.Fatalf("rate %.1f/s: churn capacity %d above static %d", rate, churned.Users, static.Users)
		}
		if rate == 1.0 && churned.Users >= static.Users {
			t.Fatalf("1/s churn (mean stay 1s) capacity %d not below static %d", churned.Users, static.Users)
		}
	}
}

// TestScheduleCapacityFlatNeverExceedsChurn: ScheduleCapacity under Flat
// is the churn process judged by a stricter rule (the worst slice instead
// of the whole-run p95), so on the same probes its answer can never exceed
// Search's under the whole-run rule, and at capacity the worst slice stays
// in budget.
func TestScheduleCapacityFlatNeverExceedsChurn(t *testing.T) {
	span := 4 * simclock.Second
	srv := DefaultServer()
	p := Developer()
	prof := schedule.Flat(0.3)
	wholeRun, err := Search(40, func(users int) (server.Result, error) {
		cfg := ProbeConfig(srv, p, users, span, 1)
		plan, err := schedule.Compile(prof, users, span, 1)
		if err != nil {
			return server.Result{}, err
		}
		cfg.Sessions = plan
		res, _, err := EvaluateConfig(nil, cfg)
		return res, err
	}, func(r server.Result) bool { return violation(r) == LimitNone })
	if err != nil {
		t.Fatal(err)
	}
	n, limit, err := ScheduleCapacity(srv, p, prof, 40, span, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n.Users > wholeRun.Users {
		t.Fatalf("worst-slice capacity %d above whole-run churn capacity %d", n.Users, wholeRun.Users)
	}
	if worst := worstSlice(n.At); worst > DefaultLatencyBudget.Milliseconds() {
		t.Fatalf("capacity %d has worst slice %.0f ms past the budget (limit %s)",
			n.Users, worst, limit)
	}
}

// TestScheduleCapacityOfficeDay: a machine sized for OfficeDay must hold
// its budget through the 9 AM ramp; the search answers and the result's
// worst slice reflects the storm, not the quiet mean.
func TestScheduleCapacityOfficeDay(t *testing.T) {
	span := 5 * simclock.Second
	srv := DefaultServer()
	srv.PhysicalKB = 512 * 1024 // let the storm's CPU/link load bind, not the division
	ans, limit, err := ScheduleCapacity(srv, Developer(), schedule.OfficeDay(), 60, span, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Users < 1 {
		t.Fatalf("no seats fit under OfficeDay: limit %s, over %+v", limit, ans.Over)
	}
	worst := worstSlice(ans.At)
	if worst <= 0 {
		t.Fatal("capacity result carries no worst-slice latency")
	}
	if worst < ans.At.EchoP95Ms {
		t.Fatalf("worst slice %.1f ms below whole-run p95 %.1f ms", worst, ans.At.EchoP95Ms)
	}
}

func TestScheduleCapacityRejectsMalformedProfile(t *testing.T) {
	bad := schedule.OfficeDay()
	bad.Timeline[0].Rate = -1
	if _, _, err := ScheduleCapacity(DefaultServer(), Developer(), bad, 10, simclock.Second, 1); err == nil {
		t.Fatal("malformed profile accepted")
	}
}
