package thinbench_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"thinbench/internal/benchdoc"
	"thinbench/internal/core"
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
// result against the file, and checks the claims the document makes
// (core.Check). Every field present in the baseline must be byte-for-byte
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
			if c, ok := doc.(interface{ Claims() []core.Claim }); ok {
				if err := core.Check(path, c.Claims()); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestClaimsSweepRunsTheBaselines ties the claim sweep to the baselines:
// every BENCH file BENCH_claims.json sweeps must record the very command
// the sweep ran for it at the headline seed.
func TestClaimsSweepRunsTheBaselines(t *testing.T) {
	var sweep struct {
		Sources []struct{ Source, Command string }
	}
	readJSON(t, "BENCH_claims.json", &sweep)
	files := 0
	for _, src := range sweep.Sources {
		if filepath.Ext(src.Source) != ".json" {
			continue
		}
		files++
		var rec struct{ Command string }
		readJSON(t, src.Source, &rec)
		if rec.Command != src.Command {
			t.Errorf("%s records %q, but the claim sweep runs %q", src.Source, rec.Command, src.Command)
		}
	}
	if files == 0 {
		t.Fatal("BENCH_claims.json sweeps no baseline file")
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// newDiffer classifies BENCH_speed's machine-dependent fields: allocation
// counts and bytes are ratcheted, in total and per layer. They are exact
// only without the race detector and at one worker, so any other run
// ignores them, and a run at more workers also ignores the command and
// worker count the override rewrites. A race build measures no layers at
// all (speed.Measure), so it ignores the layers too.
func newDiffer() differ {
	var volatile []string
	ratchet := []string{"allocs_per_event", "allocs", "alloc_bytes"}
	if speed.RaceEnabled || *workers > 1 {
		volatile = append(volatile, ratchet...)
		ratchet = nil
	}
	if speed.RaceEnabled {
		volatile = append(volatile, "layers")
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
