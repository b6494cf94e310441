package core

import (
	"sort"
	"strings"
	"testing"

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
	r := mustRun(t, "fig1", quickCfg)
	mean := func(label string) float64 {
		s := seriesByLabel(t, r, label)
		var sum float64
		for _, v := range s.Y {
			sum += v
		}
		return sum / float64(len(s.Y))
	}
	linux, nt, tse := mean("Linux/X"), mean("NT Workstation"), mean("NT TSE")
	if !(linux < nt && nt < tse) {
		t.Fatalf("idle activity ordering: linux=%.4f nt=%.4f tse=%.4f", linux, nt, tse)
	}
}

func TestFig2CumulativeRatios(t *testing.T) {
	r := mustRun(t, "fig2", quickCfg)
	total := func(label string) float64 {
		s := seriesByLabel(t, r, label)
		return s.Y[len(s.Y)-1]
	}
	nt, tse, linux := total("NT Workstation"), total("NT TSE"), total("Linux/X")
	if ratio := tse / nt; ratio < 2.4 || ratio > 3.6 {
		t.Errorf("TSE/NT = %.2f, paper reports ~3", ratio)
	}
	if ratio := tse / linux; ratio < 5 || ratio > 9 {
		t.Errorf("TSE/Linux = %.2f, paper reports ~7", ratio)
	}
	// TSE must show contribution above 200 ms (the 250/400 ms events).
	tseSeries := seriesByLabel(t, r, "NT TSE")
	var at200, at450 float64
	for i, x := range tseSeries.X {
		if x == 200 {
			at200 = tseSeries.Y[i]
		}
		if x == 450 {
			at450 = tseSeries.Y[i]
		}
	}
	if at450 <= at200 {
		t.Error("TSE curve flat past 200ms; Terminal Service events missing")
	}
	// NT must not (all events <= 100 ms).
	ntSeries := seriesByLabel(t, r, "NT Workstation")
	var n100, nEnd float64
	for i, x := range ntSeries.X {
		if x == 110 {
			n100 = ntSeries.Y[i]
		}
	}
	nEnd = ntSeries.Y[len(ntSeries.Y)-1]
	if nEnd > n100*1.001 {
		t.Error("NT Workstation has idle events beyond 100ms")
	}
}

func TestFig3Shapes(t *testing.T) {
	r := mustRun(t, "fig3", quickCfg)
	tse := seriesByLabel(t, r, "TSE")
	linux := seriesByLabel(t, r, "Linux/X")
	at := func(s Series, x float64) float64 {
		for i := range s.X {
			if s.X[i] == x {
				return s.Y[i]
			}
		}
		t.Fatalf("series %s has no x=%v", s.Label, x)
		return 0
	}
	// No load: nominal 50ms cadence, no stalls.
	if at(tse, 0) > 5 || at(linux, 0) > 5 {
		t.Errorf("stalls at zero load: tse=%.1f linux=%.1f", at(tse, 0), at(linux, 0))
	}
	// TSE collapses near 10; Linux degrades gently.
	if at(tse, 10) < 400 {
		t.Errorf("TSE at load 10 = %.0f ms, want collapse (paper ~800)", at(tse, 10))
	}
	if at(tse, 10) < 5*at(linux, 10) {
		t.Errorf("TSE (%.0f) not dramatically worse than Linux (%.0f) at load 10", at(tse, 10), at(linux, 10))
	}
	// Linux roughly linear: value at 50 within 3x of 5x value at 10.
	l10, l50 := at(linux, 10), at(linux, 50)
	if l50 < 2*l10 {
		t.Errorf("Linux not growing with load: %.0f at 10, %.0f at 50", l10, l50)
	}
	if l50 > 900 {
		t.Errorf("Linux at 50 = %.0f ms, out of the paper's chart range", l50)
	}
}

func TestAbl2InteractiveSchedulerFlat(t *testing.T) {
	r := mustRun(t, "abl2", quickCfg)
	if len(r.Tables) == 0 {
		t.Fatal("abl2 produced no table")
	}
	out := r.Tables[0].String()
	if !strings.Contains(out, "SVR4-IA") {
		t.Fatalf("table missing SVR4 column:\n%s", out)
	}
}

func TestTab3PagingShape(t *testing.T) {
	// Run the scenarios directly for numeric assertions.
	for sys, sc := range pagingScenarios() {
		runs := sc.RunN(10, 1999)
		mn, av, mx := summarizeRuns(runs)
		if mn < 100 {
			t.Errorf("%s: min %.0fms below perception threshold; paging too cheap", sys, mn)
		}
		if mx <= mn {
			t.Errorf("%s: no spread (min=%.0f max=%.0f)", sys, mn, mx)
		}
		switch sys {
		case SystemLinuxX:
			if av < 700 || av > 1700 {
				t.Errorf("Linux avg = %.0fms, paper reports 1,170", av)
			}
		case SystemTSE:
			if av < 2800 || av > 5500 {
				t.Errorf("TSE avg = %.0fms, paper reports 4,026", av)
			}
		}
		// Low demand: flat 50ms.
		low := sc
		low.HogFactor = 0.35
		low.RandomizeKeystroke = false
		for _, res := range low.RunN(3, 7) {
			if res.Latency.Milliseconds() != 50 {
				t.Errorf("%s low demand latency = %v, want 50ms", sys, res.Latency)
			}
		}
	}
}

func TestTab3TSEWorseThanLinux(t *testing.T) {
	scs := pagingScenarios()
	_, linuxAvg, _ := summarizeRuns(scs[SystemLinuxX].RunN(10, 1999))
	_, tseAvg, _ := summarizeRuns(scs[SystemTSE].RunN(10, 1999))
	if ratio := tseAvg / linuxAvg; ratio < 2 || ratio > 6 {
		t.Errorf("TSE/Linux paging ratio = %.2f, paper reports ~3.4", ratio)
	}
}

func TestTab5Orderings(t *testing.T) {
	runs, err := captureOffice(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	rdpB, xB, lbxB := runs[0].Total().Bytes, runs[1].Total().Bytes, runs[2].Total().Bytes
	if !(rdpB < lbxB && lbxB < xB) {
		t.Fatalf("byte ordering violated: RDP %d, LBX %d, X %d", rdpB, lbxB, xB)
	}
	// RDP must win by a wide margin even on the reduced quick workload.
	if ratio := float64(xB) / float64(rdpB); ratio < 3 {
		t.Errorf("X/RDP = %.1f, want a decisive RDP win (paper 7.0)", ratio)
	}
}

func TestTab4SetupBytes(t *testing.T) {
	r := mustRun(t, "tab4", quickCfg)
	out := r.Tables[0].String()
	if !strings.Contains(out, "45,328") || !strings.Contains(out, "16,312") {
		t.Fatalf("setup table missing paper values:\n%s", out)
	}
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
	ratio := seriesByLabel(t, r, "cache hit ratio")
	if len(ratio.Y) < 5 {
		t.Fatal("fig6 ratio series too short")
	}
	start, end := ratio.Y[0], ratio.Y[len(ratio.Y)-1]
	if start < 40 {
		t.Errorf("starting hit ratio %.0f%%, want UI-dominated start (paper ~70%%)", start)
	}
	if end > start/1.5 {
		t.Errorf("hit ratio did not decay: %.0f%% -> %.0f%%", start, end)
	}
}

func TestFig8Fig9Shapes(t *testing.T) {
	r8 := mustRun(t, "fig8", quickCfg)
	s := r8.Series[0]
	if s.Y[0] > 1 {
		t.Errorf("idle RTT = %.2f ms, want sub-millisecond", s.Y[0])
	}
	last := s.Y[len(s.Y)-1]
	if last < 15 || last > 150 {
		t.Errorf("near-saturation RTT = %.1f ms, want tens of ms (paper ~55)", last)
	}
	r9 := mustRun(t, "fig9", quickCfg)
	v := r9.Series[0]
	if v.Y[len(v.Y)-1] < 20*v.Y[1] {
		t.Errorf("jitter did not explode near saturation: %v", v.Y)
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
// placement guarantee it — and at the heaviest population the
// latency-aware policy must not lose to blind round-robin.
func TestShard1PoliciesMonotoneAndOrdered(t *testing.T) {
	r := mustRun(t, "shard1", quickCfg)
	if len(r.Series) != 3 {
		t.Fatalf("shard1 produced %d series, want one per placement policy", len(r.Series))
	}
	byPolicy := map[string]Series{}
	for _, s := range r.Series {
		byPolicy[s.Label] = s
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i]+0.01 < s.Y[i-1] {
				t.Fatalf("%s: fleet p95 improved with more users: %v", s.Label, s.Y)
			}
		}
	}
	rr, lat := byPolicy["roundrobin"], byPolicy["lataware"]
	if len(rr.Y) == 0 || len(lat.Y) == 0 {
		t.Fatalf("missing policy series: %v", byPolicy)
	}
	if last := len(rr.Y) - 1; lat.Y[last] > rr.Y[last] {
		t.Fatalf("lataware fleet p95 %.2fms above roundrobin %.2fms at the heaviest population",
			lat.Y[last], rr.Y[last])
	}
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
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i]+0.01 < s.Y[0] {
				t.Fatalf("%s: churned fleet p95 %v below static %v", s.Label, s.Y[i], s.Y[0])
			}
		}
	}
}

// TestFail1TimelineShowsExcursion: the failover experiment must produce a
// full timeline per policy and report the kill's excursion in its notes.
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
	total := 0.0
	for _, y := range arrivals.Y {
		total += y
	}
	if total < 10 {
		t.Fatalf("office day offered only %.0f mid-run logins", total)
	}
	for _, label := range []string{"roundrobin", "lataware"} {
		s := seriesByLabel(t, r, label)
		if len(s.X) != len(arrivals.X) || len(s.X) != len(s.Y) {
			t.Fatalf("%s: timeline length %d/%d does not match the arrival series %d",
				label, len(s.X), len(s.Y), len(arrivals.X))
		}
	}
}

// TestStorm1KillDuringRampIsWorse pins the acceptance ordering: the fleet
// p95 timeline peaks during the 9 AM ramp, and a kill in the middle of
// the storm recovers no faster — at the canonical seed, strictly slower —
// than the same kill under flat load. It reads storm1's schedule
// document: the timelines alone cannot reconstruct RecoveryMs, whose
// tolerance is against one p95 over every pre-kill sample, not the
// slices' p95s.
func TestStorm1KillDuringRampIsWorse(t *testing.T) {
	doc, err := storm1(quickCfg).Build(quickCfg.Seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Profiles) != 2 || doc.Profiles[0].Profile != "officeday" || len(doc.Failover) != 2 {
		t.Fatalf("storm1 ran %d profiles and %d kills, want officeday and flat with a kill each", len(doc.Profiles), len(doc.Failover))
	}
	base := doc.Profiles[0].Policies[0].Result.P95TimelineMs
	peak := 0
	for i, v := range base {
		if v > base[peak] {
			peak = i
		}
	}
	// The storm window ends at 0.19 of the span and its logins land
	// within a couple of slices; the peak must sit there, not in the
	// afternoon.
	rampEnd := int(0.19*float64(len(base))) + 3
	if peak < 1 || peak > rampEnd {
		t.Fatalf("no-kill p95 timeline peaked in slice %d of %v, want the ramp slices [1, %d]",
			peak, base, rampEnd)
	}

	// A negative recovery is "never within the run".
	recoveryMs := map[string]float64{}
	for _, pf := range doc.Failover {
		recoveryMs[pf.Profile] = pf.Result.RecoveryMs
	}
	stormRec, flatRec := recoveryMs["officeday"], recoveryMs["flat"]
	if flatRec < 0 {
		t.Fatalf("flat-load kill never recovered: recoveries %v", recoveryMs)
	}
	if stormRec >= 0 && stormRec < flatRec {
		t.Fatalf("storm-time kill recovered in %.0f ms, faster than flat load's %.0f ms", stormRec, flatRec)
	}
}

// TestCtrl1GateTracksOracle pins ctrl1's acceptance claims on both
// arrival profiles of its control document: the gate actually gates
// (some logins deferred or rejected), it never makes the admitted
// population worse than the open fleet, and the gated peak lands within
// the stated margin of the offline oracle's fleet seats in either
// direction.
func TestCtrl1GateTracksOracle(t *testing.T) {
	doc, err := ctrl1(quickCfg).Build(quickCfg.Seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Profiles) != 2 {
		t.Fatalf("ctrl1 ran %d profiles, want the office day and the shift handover", len(doc.Profiles))
	}
	for _, cp := range doc.Profiles {
		open, gated := cp.Open, cp.Admission
		if cp.OracleSeats < 1 {
			t.Fatalf("%s: oracle fits no seats at all", cp.Profile)
		}
		if gated.DeferredLogins+gated.RejectedLogins == 0 {
			t.Fatalf("%s: 1.5x the oracle's seats arrived and the gate held nobody", cp.Profile)
		}
		if gated.EchoP95Ms > open.EchoP95Ms {
			t.Fatalf("%s: gated p95 %.0f ms above open %.0f ms — admission made the admitted worse",
				cp.Profile, gated.EchoP95Ms, open.EchoP95Ms)
		}
		ratio := float64(gated.PeakUsers) / float64(cp.FleetSeats)
		if ratio < 1/ctrl1Margin || ratio > ctrl1Margin {
			t.Fatalf("%s: gated peak %d is %.2fx the oracle's %d fleet seats, outside the stated %.1fx margin",
				cp.Profile, gated.PeakUsers, ratio, cp.FleetSeats, ctrl1Margin)
		}
	}
}

// TestCont1LatencyDegradesMonotonically: every protocol x scheduler series
// of the shared-server grid must degrade (never improve) as users grow.
func TestCont1LatencyDegradesMonotonically(t *testing.T) {
	r := mustRun(t, "cont1", quickCfg)
	if len(r.Series) != 6 {
		t.Fatalf("cont1 produced %d series, want 3 protocols x 2 schedulers", len(r.Series))
	}
	for _, s := range r.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i]+0.01 < s.Y[i-1] {
				t.Fatalf("%s: p95 improved with more users: %v", s.Label, s.Y)
			}
		}
		if last := s.Y[len(s.Y)-1]; last < s.Y[0]*2 {
			t.Fatalf("%s: no meaningful degradation across the sweep: %v", s.Label, s.Y)
		}
	}
}
