package core

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"thinbench/internal/metrics"
	"thinbench/internal/sched"
	"thinbench/internal/simclock"
)

var quickCfg = Config{Seed: 1999, Quick: true}

func mustRun(t *testing.T, id string, cfg Config) *Result {
	t.Helper()
	exp, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	r, err := exp.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if r.ID != id {
		t.Fatalf("result ID %q, want %q", r.ID, id)
	}
	return r
}

// claimsHold fails the test unless r carries every named claim and every
// claim r carries holds.
func claimsHold(t *testing.T, r *Result, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if !slices.ContainsFunc(r.Claims, func(c Claim) bool { return c.ID == id }) {
			t.Errorf("%s carries no claim %s", r.ID, id)
		}
	}
	if err := Check(r.ID, r.Claims); err != nil {
		t.Error(err)
	}
}

func seriesByLabel(t *testing.T, r *Result, label string) Series {
	t.Helper()
	for _, s := range r.Series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("%s: no series %q", r.ID, label)
	return Series{}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"abl1", "abl2", "abl3", "abl4", "abl5",
		"cap1", "churn1", "cont1", "ctrl1", "day1", "fail1",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"shard1", "storm1",
		"tab1", "tab2", "tab3", "tab4", "tab5", "tab6",
	}
	got := make([]string, 0, len(want))
	for _, e := range Experiments() {
		got = append(got, e.ID)
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %s missing metadata", e.ID)
		}
	}
	if !sort.StringsAreSorted(got) {
		t.Error("Experiments() not sorted")
	}
	if len(got) != len(want) {
		t.Fatalf("registry has %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry has %v, want %v", got, want)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup of unknown ID succeeded")
	}
}

func TestFig1IdleOrdering(t *testing.T) {
	claimsHold(t, mustRun(t, "fig1", quickCfg), "fig1.nt_over_linux", "fig1.tse_over_nt")
}

// TestFig1SecondsSumToBusy checks that fig1's trace loses and double
// counts nothing: each system's ten per-second busy times, in whole
// microseconds, sum to the CPU's Busy at 10 s.
func TestFig1SecondsSumToBusy(t *testing.T) {
	span := 10 * simclock.Second
	for _, s := range idleSystems() {
		util, cpu := idleTrace(s.mk(), s.profile, span)
		if len(util) != 10 {
			t.Fatalf("%s: %d seconds traced, want 10", s.sys, len(util))
		}
		var sum simclock.Duration
		for _, u := range util {
			sum += simclock.Duration(math.Round(u * float64(simclock.Second)))
		}
		if busy := cpu.Busy(); sum != busy || busy == 0 {
			t.Fatalf("%s: the seconds sum to %v busy, the CPU counts %v", s.sys, sum, busy)
		}
	}
}

func TestFig2CumulativeRatios(t *testing.T) {
	claimsHold(t, mustRun(t, "fig2", quickCfg),
		"fig2.tse_over_nt", "fig2.tse_over_linux", "fig2.tse_long_events", "fig2.nt_short_events")
}

func TestFig3Shapes(t *testing.T) {
	claimsHold(t, mustRun(t, "fig3", quickCfg),
		"fig3.idle_stall", "fig3.tse_at_10", "fig3.tse_over_linux", "fig3.linux_growth", "fig3.linux_at_50")
}

// TestStallPipelineBatches drives fig3's TSE pipeline by hand, with no
// sinks. The GUI-boosted editor preempts the encoder, so the encoder can
// hold a started encode when an echo completes. Each encode's completion
// is a display message. Keystrokes at 0, 0.3, 0.6 and 3 ms:
//
//   - the one at 0.3 ms finds the first echo running and starts a second;
//   - the one at 0.6 ms finds that second echo waiting and joins it, +150 µs;
//   - the second echo completes with the first encode still waiting, so it
//     joins that encode, +200 µs;
//   - the one at 3 ms preempts the running encode, and its echo completes
//     with that encode started, so it starts a second encode.
func TestStallPipelineBatches(t *testing.T) {
	eng := simclock.NewEngine()
	p := newStallPipeline(eng, stallConfig{kind: pipeTSE, stretch: tseStretch})
	type item struct {
		cpu  simclock.Duration
		done simclock.Time
	}
	var echoes, encodes []item
	p.cpu.OnItemDone = func(r sched.ItemRecord) {
		switch r.Thread {
		case p.editor:
			echoes = append(echoes, item{r.CPU, r.Done})
		case p.encoder:
			encodes = append(encodes, item{r.CPU, r.Done})
		}
	}
	for _, at := range []simclock.Time{0, 300, 600, 3000} {
		eng.At(at, p.keystroke, 0, 0)
	}
	eng.RunFor(10 * simclock.Millisecond)

	wantEchoes := []item{{1200, 1200}, {1350, 2550}, {1200, 4200}}
	wantEncodes := []item{{1700, 5450}, {1500, 6950}}
	if !slices.Equal(echoes, wantEchoes) || !slices.Equal(encodes, wantEncodes) {
		t.Fatalf("echoes (CPU µs, done µs) %v, want %v; encodes %v, want %v", echoes, wantEchoes, encodes, wantEncodes)
	}
}

// stallsAt feeds a fresh pipeline display updates at the given
// milliseconds and returns its stall summary.
func stallsAt(ms ...int64) *metrics.Summary {
	var p stallPipeline
	for _, m := range ms {
		p.encodeDone(simclock.Time(m)*simclock.Time(simclock.Millisecond), 0, 0)
	}
	return &p.stalls
}

// TestStallPipelineNoStallsAtNominalCadence: updates every 50 ms from the
// start stall nothing.
func TestStallPipelineNoStallsAtNominalCadence(t *testing.T) {
	var ms []int64
	for i := int64(1); i <= 20; i++ {
		ms = append(ms, 50*i)
	}
	if s := stallsAt(ms...); s.N() != 20 || s.Mean() != 0 {
		t.Fatalf("%d stalls averaging %v ms, want 20 averaging 0", s.N(), s.Mean())
	}
}

// TestStallPipelineMeasuresGaps: one 200 ms gap among 50 ms ones is one
// 150 ms stall. Four stalls of mean 37.5 ms and variance 4,218.75 ms² sum
// to 150 ms and their squares to 150², which non-negative stalls reach
// only as one 150 ms stall and three of 0.
func TestStallPipelineMeasuresGaps(t *testing.T) {
	s := stallsAt(50, 100, 300, 350)
	if s.N() != 4 || s.Mean() != 37.5 || s.Variance() != 4218.75 {
		t.Fatalf("%d stalls, mean %v ms, variance %v ms²; want 4, 37.5 and 4218.75", s.N(), s.Mean(), s.Variance())
	}
}

// TestStallPipelineEarlyUpdatesClampToZero: an update sooner than the
// cadence stalls 0, not a negative time.
func TestStallPipelineEarlyUpdatesClampToZero(t *testing.T) {
	if s := stallsAt(20); s.N() != 1 || s.Mean() != 0 {
		t.Fatalf("an early update gave %d stalls averaging %v ms, want 1 averaging 0", s.N(), s.Mean())
	}
}

func TestAbl2InteractiveSchedulerFlat(t *testing.T) {
	claimsHold(t, mustRun(t, "abl2", quickCfg), "abl2.svr4_flat")
}

func TestTab3PagingShape(t *testing.T) {
	claimsHold(t, mustRun(t, "tab3", quickCfg), "tab3.linux_avg", "tab3.tse_avg", "tab3.min", "tab3.spread", "tab3.low_demand")
}

func TestTab3TSEWorseThanLinux(t *testing.T) {
	claimsHold(t, mustRun(t, "tab3", quickCfg), "tab3.tse_over_linux")
}

func TestTab5Orderings(t *testing.T) {
	claimsHold(t, mustRun(t, "tab5", quickCfg), "tab5.byte_order", "tab5.x_over_rdp")
}

func TestTab4SetupBytes(t *testing.T) {
	claimsHold(t, mustRun(t, "tab4", quickCfg), "tab4.rdp_setup", "tab4.x_setup")
}

func TestFig7Cliff(t *testing.T) {
	// Long enough for several loops of a 60-frame animation at 5 fps.
	span := 45 * simclock.Second
	below, err := fig7Point(1, 60, 0, span)
	if err != nil {
		t.Fatal(err)
	}
	above, err := fig7Point(1, 70, 0, span)
	if err != nil {
		t.Fatal(err)
	}
	if below > 0.05 {
		t.Errorf("below cliff: %.3f Mbps, want ~0.01 (cache absorbs loop)", below)
	}
	if above < 0.5 {
		t.Errorf("above cliff: %.3f Mbps, want ~0.9 (every frame misses)", above)
	}
}

func TestFig6RatioDecays(t *testing.T) {
	r := mustRun(t, "fig6", quickCfg)
	if ratio := seriesByLabel(t, r, "cache hit ratio"); len(ratio.Y) < 5 {
		t.Fatal("fig6 ratio series too short")
	}
	claimsHold(t, r, "fig6.start_ratio", "fig6.decay")
}

func TestFig8Fig9Shapes(t *testing.T) {
	claimsHold(t, mustRun(t, "fig8", quickCfg), "fig8.idle_rtt", "fig8.saturated_rtt")
	claimsHold(t, mustRun(t, "fig9", quickCfg), "fig9.jitter_growth")
}

// TestBandContains pins the band edges a claim is judged by: closed
// ends hold, an open lower end does not, infinite ends bound nothing,
// and NaN never holds.
func TestBandContains(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		band Band
		text string
		in   []float64
		out  []float64
	}{
		{within(2.4, 3.6), "[2.4, 3.6]", []float64{2.4, 3, 3.6}, []float64{2.39, 3.61, nan}},
		{above(0), "> 0", []float64{1e-9, inf}, []float64{0, -1, nan}},
		{atLeast(1), ">= 1", []float64{1, inf}, []float64{0.99, nan}},
		{atMost(0.01), "<= 0.01", []float64{0.01, -inf}, []float64{0.011, inf, nan}},
		{exactly(50), "= 50", []float64{50}, []float64{49.999, 50.001, nan}},
		{unbanded, "none", []float64{0, -inf, inf}, []float64{nan}},
	} {
		if got := tc.band.String(); got != tc.text {
			t.Errorf("band %+v renders %q, want %q", tc.band, got, tc.text)
		}
		for _, v := range tc.in {
			if !tc.band.Contains(v) {
				t.Errorf("%s excludes %v", tc.text, v)
			}
		}
		for _, v := range tc.out {
			if tc.band.Contains(v) {
				t.Errorf("%s includes %v", tc.text, v)
			}
		}
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run in -short mode")
	}
	results, err := RunAll(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(Experiments()) {
		t.Fatalf("RunAll returned %d results for %d experiments", len(results), len(Experiments()))
	}
	for _, r := range results {
		if len(r.Tables) == 0 && len(r.Series) == 0 {
			t.Errorf("%s produced neither tables nor series", r.ID)
		}
		if out := r.Render(); !strings.Contains(out, r.ID) {
			t.Errorf("%s render missing ID header", r.ID)
		}
		if err := Check(r.ID, r.Claims); err != nil {
			t.Error(err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := mustRun(t, "fig8", quickCfg).Render()
	b := mustRun(t, "fig8", quickCfg).Render()
	if a != b {
		t.Fatal("identical seeds produced different fig8 results")
	}
}

func TestResultRender(t *testing.T) {
	r := &Result{ID: "x", Title: "t"}
	r.Notef("hello %d", 7)
	out := r.Render()
	if !strings.Contains(out, "hello 7") || !strings.Contains(out, "== x: t ==") {
		t.Fatalf("render output wrong:\n%s", out)
	}
}

// TestRunAllParallelMatchesSequential: the farm-backed parallel registry
// run must render every result identically to the sequential run — worker
// count buys wall-clock only.
func TestRunAllParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry comparison in -short mode")
	}
	seq, err := RunAll(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunAllParallel(quickCfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(seq) {
		t.Fatalf("parallel returned %d results, sequential %d", len(par), len(seq))
	}
	for i := range seq {
		if par[i].Render() != seq[i].Render() {
			t.Errorf("%s renders differently under parallel execution", seq[i].ID)
		}
	}
}

func BenchmarkRunAllSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunAll(quickCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAllParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunAllParallel(quickCfg, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestShard1PoliciesMonotoneAndOrdered: every placement policy's fleet
// p95 series must degrade (never improve) as the total population grows —
// common random numbers per shard plus the prefix property of greedy
// placement guarantee it — and latency-aware placement must not lose to
// blind round-robin.
func TestShard1PoliciesMonotoneAndOrdered(t *testing.T) {
	r := mustRun(t, "shard1", quickCfg)
	if len(r.Series) != 3 {
		t.Fatalf("shard1 produced %d series, want one per placement policy", len(r.Series))
	}
	claimsHold(t, r, "shard.p95_dip", "shard.lataware_vs_roundrobin")
}

// TestChurn1TurnoverCostsLatency: every policy's fleet p95 at a nonzero
// churn rate must be no better than its static (rate 0) p95 — arrivals
// pay session setup, login page-ins, and process creation on the shared
// substrates.
func TestChurn1TurnoverCostsLatency(t *testing.T) {
	r := mustRun(t, "churn1", quickCfg)
	if len(r.Series) != 3 {
		t.Fatalf("churn1 produced %d series, want one per placement policy", len(r.Series))
	}
	for _, s := range r.Series {
		if s.X[0] != 0 {
			t.Fatalf("%s: first point is rate %v, want the static baseline", s.Label, s.X[0])
		}
	}
	claimsHold(t, r, "churn.below_static")
}

// TestFail1TimelineShowsExcursion: the failover experiment must produce a
// full timeline per policy, report the kill's excursion in its notes, and
// show lataware's excursion and recovery.
func TestFail1TimelineShowsExcursion(t *testing.T) {
	r := mustRun(t, "fail1", quickCfg)
	if len(r.Series) != 3 {
		t.Fatalf("fail1 produced %d series, want one per placement policy", len(r.Series))
	}
	for _, s := range r.Series {
		if len(s.X) == 0 || len(s.X) != len(s.Y) {
			t.Fatalf("%s: malformed timeline: %d x, %d y", s.Label, len(s.X), len(s.Y))
		}
	}
	if len(r.Notes) < 4 {
		t.Fatalf("fail1 notes missing per-policy recovery summaries: %v", r.Notes)
	}
	claimsHold(t, r, "churn.kill_excursion", "churn.kill_recovery", "churn.recovery_vs_roundrobin")
}

// TestDay1TimelineFollowsTheDay: the office-day experiment reports the
// offered arrivals alongside per-policy latency timelines, and the day
// actually churns — arrivals land, sessions leave, logins cost.
func TestDay1TimelineFollowsTheDay(t *testing.T) {
	r := mustRun(t, "day1", quickCfg)
	if len(r.Series) != 3 {
		t.Fatalf("day1 produced %d series, want arrivals + one per policy", len(r.Series))
	}
	arrivals := seriesByLabel(t, r, "arrivals")
	for _, label := range []string{"roundrobin", "lataware"} {
		s := seriesByLabel(t, r, label)
		if len(s.X) != len(arrivals.X) || len(s.X) != len(s.Y) {
			t.Fatalf("%s: timeline length %d/%d does not match the arrival series %d",
				label, len(s.X), len(s.Y), len(arrivals.X))
		}
	}
	claimsHold(t, r, "day1.arrivals", "schedule.ramp_peak")
}

// TestStorm1KillDuringRampIsWorse pins the acceptance ordering: the fleet
// p95 timeline peaks during the 9 AM ramp, and a kill in the middle of
// the storm recovers no faster — at the canonical seed, strictly slower —
// than the same kill under flat load. The claims read storm1's schedule
// document: the timelines alone cannot reconstruct RecoveryMs, whose
// tolerance is against one p95 over every pre-kill sample, not the
// slices' p95s.
func TestStorm1KillDuringRampIsWorse(t *testing.T) {
	r := mustRun(t, "storm1", quickCfg)
	var labels []string
	for _, s := range r.Series {
		labels = append(labels, s.Label)
	}
	if want := []string{"officeday", "officeday+kill", "flat+kill"}; !slices.Equal(labels, want) {
		t.Fatalf("storm1 series %v, want %v: officeday and flat with a kill each", labels, want)
	}
	claimsHold(t, r, "schedule.ramp_peak", "schedule.flat_kill_recovery", "schedule.storm_vs_flat_recovery")
}

// TestCtrl1GateTracksOracle pins ctrl1's acceptance claims on both
// arrival profiles of its control document: the oracle fits seats, the
// gate actually gates (some logins deferred or rejected), it never makes
// the admitted population worse than the open fleet, and the gated peak
// lands within the stated margin of the offline oracle's fleet seats in
// either direction.
func TestCtrl1GateTracksOracle(t *testing.T) {
	r := mustRun(t, "ctrl1", quickCfg)
	if len(r.Series) != 4 {
		t.Fatalf("ctrl1 produced %d series, want open and gated for the office day and the shift handover", len(r.Series))
	}
	claimsHold(t, r, "control.oracle_seats", "control.gate_held", "control.gated_vs_open", "control.peak_vs_oracle")
}

// TestCont1LatencyDegradesMonotonically: every protocol x scheduler series
// of the shared-server grid must degrade (never improve) as users grow.
func TestCont1LatencyDegradesMonotonically(t *testing.T) {
	r := mustRun(t, "cont1", quickCfg)
	if len(r.Series) != 6 {
		t.Fatalf("cont1 produced %d series, want 3 protocols x 2 schedulers", len(r.Series))
	}
	claimsHold(t, r, "contention.p95_dip", "contention.degradation")
}
