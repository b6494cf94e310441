package thinbench_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"thinbench/internal/benchdoc"
	"thinbench/internal/core"
	"thinbench/internal/shard"
	"thinbench/internal/speed"
)

// workers, when set, regenerates every baseline at that -parallel count
// instead of the one its command records. Results are identical at any
// worker count, so CI runs the golden test at -workers 1 and -workers 8:
// both matching the checked-in files is the worker-invariance check.
var workers = flag.Int("workers", 0, "regenerate every baseline at this -parallel count instead of its recorded one (0 keeps the record)")

// ratchetTol is the allowed relative regression on ratcheted fields.
// speed.Measure reports the minimum of three counted runs held at
// GOMAXPROCS 1, which reads the same raw count on every run of a given
// binary (a single GC-fenced run jitters by up to 0.6%, past this band);
// the band is headroom for runtime and toolchain differences between
// machines, tight enough that a real allocation regression fails.
const ratchetTol = 0.005

// TestBenchBaselinesBitIdentical regenerates every checked-in BENCH_*.json
// in-process from the command line the file records, golden-diffs the
// result against the file, and checks the claims the baseline exists to
// show. Every field present in the baseline must be byte-for-byte
// unchanged, the recorded command included, so each record reproduces
// itself; only BENCH_speed's allocation counts are ratcheted instead (see
// newDiffer). This is the proof that a refactor (like the event queue's
// 4-ary heap) preserved every number it inherited.
//
// A new baseline needs no entry here: the test finds it by its file
// name. The diff tolerates fields ADDED by newer code, so a PR that
// extends a result type regenerates the baselines, checks them in, and
// the old fields must still match.
func TestBenchBaselinesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("bench regeneration in -short mode")
	}
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json baselines to regenerate")
	}
	var override []string
	if *workers > 0 {
		override = []string{"-parallel", strconv.Itoa(*workers)}
	}
	d := newDiffer()
	for _, path := range paths {
		path := path
		t.Run(path, func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var rec struct {
				Command string `json:"command"`
			}
			if err := json.Unmarshal(raw, &rec); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			cmd, err := benchdoc.ParseCommand(rec.Command, override...)
			if err != nil {
				t.Fatal(err)
			}
			if cmd.Run != "speed" {
				// The speed baseline counts allocations through the
				// process-global MemStats, so it runs inline, before any
				// parallel sibling starts.
				t.Parallel()
			}
			doc, err := cmd.Build()
			if err != nil {
				t.Fatal(err)
			}
			assertGoldenSubset(t, d, path, raw, doc)
			if check := claims[cmd.Run]; check != nil {
				check(t, doc)
			}
		})
	}
}

// newDiffer classifies BENCH_speed's machine-dependent fields: allocation
// counts and bytes are ratcheted. They are exact only without the race
// detector and at one worker, so any other run ignores them, and a run at
// more workers also ignores the command and worker count the override
// rewrites.
func newDiffer() differ {
	var volatile []string
	ratchet := []string{"allocs_per_event", "allocs", "alloc_bytes"}
	if speed.RaceEnabled || *workers > 1 {
		volatile = append(volatile, ratchet...)
		ratchet = nil
	}
	if *workers > 1 {
		volatile = append(volatile, "command", "workers")
	}
	return differ{volatile: toSet(volatile), ratchet: toSet(ratchet)}
}

// assertGoldenSubset checks that every field of the checked-in JSON
// baseline appears, with an identical value, in the regenerated document.
// Numbers compare by their JSON token text, so a drift of one ulp fails.
// Fields present only in the regenerated document are allowed (they are
// what a future PR checks in); fields missing from it are not.
func assertGoldenSubset(t *testing.T, d differ, path string, raw []byte, doc any) {
	t.Helper()
	fresh, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := decodeNumbers(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if err := decodeNumbers(fresh, &got); err != nil {
		t.Fatal(err)
	}
	if diff := d.subsetDiff("", want, got); diff != "" {
		t.Fatalf("%s drifted from the checked-in baseline:\n%s", path, diff)
	}
}

func toSet(fields []string) map[string]bool {
	if len(fields) == 0 {
		return nil
	}
	m := make(map[string]bool, len(fields))
	for _, f := range fields {
		m[f] = true
	}
	return m
}

func decodeNumbers(data []byte, v *any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	return dec.Decode(v)
}

// differ walks baseline and regenerated trees in lockstep. Field-name
// classification applies at any depth, so "allocs" is ratcheted wherever
// a workload entry nests.
type differ struct {
	volatile map[string]bool
	ratchet  map[string]bool
}

// subsetDiff reports the first place the baseline's fields are missing or
// changed in the regenerated tree; empty means the baseline is a subset.
func (d differ) subsetDiff(at string, want, got any) string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return fmt.Sprintf("%s: baseline has an object, regenerated has %T", at, got)
		}
		for k, wv := range w {
			gv, ok := g[k]
			if !ok {
				return fmt.Sprintf("%s.%s: present in baseline, missing from regenerated", at, k)
			}
			if d.volatile[k] {
				continue
			}
			if d.ratchet[k] {
				if diff := ratchetDiff(at+"."+k, wv, gv); diff != "" {
					return diff
				}
				continue
			}
			if diff := d.subsetDiff(at+"."+k, wv, gv); diff != "" {
				return diff
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok {
			return fmt.Sprintf("%s: baseline has an array, regenerated has %T", at, got)
		}
		if len(w) != len(g) {
			return fmt.Sprintf("%s: baseline array has %d elements, regenerated %d", at, len(w), len(g))
		}
		for i := range w {
			if diff := d.subsetDiff(fmt.Sprintf("%s[%d]", at, i), w[i], g[i]); diff != "" {
				return diff
			}
		}
	case json.Number:
		g, ok := got.(json.Number)
		if !ok || w.String() != g.String() {
			return fmt.Sprintf("%s: baseline %v, regenerated %v", at, want, got)
		}
	default:
		if want != got {
			return fmt.Sprintf("%s: baseline %v, regenerated %v", at, want, got)
		}
	}
	return ""
}

// ratchetDiff gates a numeric field against regression: the regenerated
// value may exceed the baseline by at most ratchetTol (relatively). A
// lower value passes — improvements are checked in by regenerating the
// baseline.
func ratchetDiff(at string, want, got any) string {
	wn, wok := want.(json.Number)
	gn, gok := got.(json.Number)
	if !wok || !gok {
		return fmt.Sprintf("%s: ratchet field is not numeric (baseline %T, regenerated %T)", at, want, got)
	}
	wf, err1 := wn.Float64()
	gf, err2 := gn.Float64()
	if err1 != nil || err2 != nil {
		return fmt.Sprintf("%s: ratchet field parse (%v, %v)", at, err1, err2)
	}
	if gf > wf*(1+ratchetTol) {
		return fmt.Sprintf("%s: regression past the ratchet: baseline %v, regenerated %v (tolerance %g%%)",
			at, wn, gn, ratchetTol*100)
	}
	return ""
}

// claims holds, per bench mode, what that mode's baseline exists to show,
// checked on the regenerated document.
var claims = map[string]func(*testing.T, any){
	"contention": contentionClaims,
	"shard":      shardClaims,
	"churn":      churnClaims,
	"schedule":   scheduleClaims,
	"control":    controlClaims,
}

// contentionClaims: every protocol/scheduler series degrades (never
// improves) as users grow, and its last point is at least twice its
// first — the bounds TestCont1LatencyDegradesMonotonically applies to the
// registry's preset of the same family.
func contentionClaims(t *testing.T, doc any) {
	d := doc.(core.ContentionDoc)
	for _, sc := range d.Scenarios {
		pts := sc.Points
		for i := 1; i < len(pts); i++ {
			if pts[i].EchoP95Ms+0.01 < pts[i-1].EchoP95Ms {
				t.Errorf("%s/%s: p95 improved from %v ms at %d users to %v ms at %d", sc.Protocol, sc.Scheduler,
					pts[i-1].EchoP95Ms, pts[i-1].Users, pts[i].EchoP95Ms, pts[i].Users)
			}
		}
		if first, last := pts[0].EchoP95Ms, pts[len(pts)-1].EchoP95Ms; last < 2*first {
			t.Errorf("%s/%s: no meaningful degradation across the sweep: %v ms to %v ms", sc.Protocol, sc.Scheduler, first, last)
		}
	}
}

// shardClaims: latency-aware placement beats round-robin on the
// heterogeneous fleet at every population.
func shardClaims(t *testing.T, doc any) {
	d := doc.(core.ShardDoc)
	rr, lat := policyPoints(t, d.Policies, "roundrobin"), policyPoints(t, d.Policies, "lataware")
	for i, n := range d.Users {
		if lat[i].EchoP95Ms > rr[i].EchoP95Ms {
			t.Errorf("%d users: lataware fleet p95 %v ms above roundrobin %v ms", n, lat[i].EchoP95Ms, rr[i].EchoP95Ms)
		}
	}
}

func policyPoints(t *testing.T, series []core.PolicySeries, policy string) []shard.FleetResult {
	t.Helper()
	for _, ps := range series {
		if ps.Policy == policy {
			return ps.Points
		}
	}
	t.Fatalf("baseline has no %s series", policy)
	return nil
}

// churnClaims: turnover costs latency under every policy, and after the
// machine kill lataware shows an excursion, recovers, and recovers no
// slower than roundrobin.
func churnClaims(t *testing.T, doc any) {
	d := doc.(core.ChurnDoc)
	for _, ps := range d.Policies {
		static := ps.Points[0].EchoP95Ms
		for i, pt := range ps.Points {
			if pt.EchoP95Ms+0.01 < static {
				t.Errorf("%s at %g/s: churned p95 %v ms below static %v ms", ps.Policy, d.ChurnRates[i], pt.EchoP95Ms, static)
			}
		}
	}
	fail := map[string]shard.FleetResult{}
	for _, f := range d.Failover {
		fail[f.Policy] = f.Result
	}
	lat, okLat := fail["lataware"]
	rr, okRR := fail["roundrobin"]
	if !okLat || !okRR {
		t.Fatal("baseline lacks the lataware and roundrobin failover runs")
	}
	if lat.PeakKillP95Ms <= lat.PreKillP95Ms {
		t.Errorf("lataware kill shows no excursion: peak %v ms, pre-kill %v ms", lat.PeakKillP95Ms, lat.PreKillP95Ms)
	}
	if lat.RecoveryMs < 0 {
		t.Error("lataware fleet never recovered from the kill")
	}
	if lat.RecoveryMs > recovery(rr) {
		t.Errorf("lataware recovered in %v ms, slower than roundrobin's %v ms", lat.RecoveryMs, rr.RecoveryMs)
	}
}

// recovery reads a failover's recovery time, "never within the run" (-1)
// as forever.
func recovery(fr shard.FleetResult) float64 {
	if fr.RecoveryMs < 0 {
		return math.Inf(1)
	}
	return fr.RecoveryMs
}

// scheduleClaims: under both policies the office day's storm peaks at
// least as high as the flat profile's whole-run p95, and a kill inside
// the storm recovers no faster than the same kill under flat load.
func scheduleClaims(t *testing.T, doc any) {
	d := doc.(core.ScheduleDoc)
	runs := map[[2]string]shard.FleetResult{}
	for _, p := range d.Profiles {
		for _, pp := range p.Policies {
			runs[[2]string{p.Profile, pp.Policy}] = pp.Result
		}
	}
	fail := map[[2]string]shard.FleetResult{}
	for _, f := range d.Failover {
		fail[[2]string{f.Profile, f.Policy}] = f.Result
	}
	run := func(m map[[2]string]shard.FleetResult, profile, policy string) shard.FleetResult {
		t.Helper()
		r, ok := m[[2]string{profile, policy}]
		if !ok {
			t.Fatalf("baseline has no %s/%s run", profile, policy)
		}
		return r
	}
	for _, policy := range []string{"roundrobin", "lataware"} {
		storm, flat := run(runs, "officeday", policy), run(runs, "flat", policy)
		if peak := slices.Max(storm.P95TimelineMs); peak < flat.EchoP95Ms {
			t.Errorf("%s: storm peak slice %v ms below flat whole-run p95 %v ms", policy, peak, flat.EchoP95Ms)
		}
	}
	storm, flat := run(fail, "officeday", "roundrobin"), run(fail, "flat", "roundrobin")
	if flat.RecoveryMs < 0 {
		t.Error("flat-load kill never recovered")
	}
	if recovery(storm) < flat.RecoveryMs {
		t.Errorf("mid-storm kill recovered in %v ms, faster than flat load's %v ms", storm.RecoveryMs, flat.RecoveryMs)
	}
}

// controlClaims: on every profile the open run carries no control
// fields, the gate holds some logins, the admitted fare no worse than on
// the open fleet, and the gated peak lands within 1.5x of the oracle's
// fleet seats either way (ctrl1's stated margin).
func controlClaims(t *testing.T, doc any) {
	d := doc.(core.ControlDoc)
	for _, cp := range d.Profiles {
		open, gated := cp.Open, cp.Admission
		if open.PeakUsers != 0 || open.DeferredLogins != 0 {
			t.Errorf("%s: the uncontrolled run leaked control fields into the baseline", cp.Profile)
		}
		if gated.EchoP95Ms > open.EchoP95Ms {
			t.Errorf("%s: gated p95 %v ms above open %v ms", cp.Profile, gated.EchoP95Ms, open.EchoP95Ms)
		}
		if gated.DeferredLogins+gated.RejectedLogins == 0 {
			t.Errorf("%s: 1.5x the oracle's seats arrived and the gate held nobody", cp.Profile)
		}
		if cp.FleetSeats == 0 {
			t.Errorf("%s: the oracle fits no seats", cp.Profile)
			continue
		}
		if ratio := float64(gated.PeakUsers) / float64(cp.FleetSeats); ratio < 1/1.5 || ratio > 1.5 {
			t.Errorf("%s: gated peak %d is %.2fx the oracle's %d fleet seats", cp.Profile, gated.PeakUsers, ratio, cp.FleetSeats)
		}
	}
}
