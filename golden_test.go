package thinbench_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"thinbench/internal/benchdoc"
	"thinbench/internal/speed"
)

// baseline registers one checked-in BENCH document with the shared golden
// harness: how to regenerate it, which fields are machine-dependent
// (ignored), and which are ratcheted rather than diffed exactly. A future
// PR adding a sixth baseline appends one entry here.
type baseline struct {
	path  string
	build func() (any, error)
	// volatile names leaf fields that vary between machines or runs
	// (wall-clock rates, raw allocation counts): present in the baseline
	// for the record, never diffed.
	volatile []string
	// ratchet names numeric leaf fields gated against regression instead
	// of diffed exactly: the regenerated value may be at most ratchetTol
	// above the baseline (lower always passes — that is an improvement to
	// check in).
	ratchet []string
	// serial marks a baseline whose regeneration must not share the
	// process with concurrent tests (allocation counting reads the
	// process-global MemStats).
	serial bool
}

// ratchetTol is the allowed relative regression on ratcheted fields.
// speed.Measure reports the minimum of three counted runs held at
// GOMAXPROCS 1, which reads the same raw count on every run of a given
// binary (a single GC-fenced run jitters by up to 0.6%, past this band);
// the band is headroom for runtime and toolchain differences between
// machines, tight enough that a real allocation regression fails.
const ratchetTol = 0.005

func baselines() []baseline {
	volatileSpeed := benchdoc.SpeedVolatileFields()
	// Raw allocs ratchet alongside the per-event ratio now that the farm's
	// pooled workers and serial fast path keep the counts stable run to
	// run. The race detector changes allocation counts wholesale; under
	// -race only the event counts stay comparable.
	ratchetSpeed := []string{"allocs_per_event", "allocs"}
	if speed.RaceEnabled {
		volatileSpeed = append(volatileSpeed, "allocs", "allocs_per_event")
		ratchetSpeed = nil
	}
	return []baseline{
		{
			path: "BENCH_contention.json",
			build: func() (any, error) {
				return benchdoc.Contention("1..16", "rdp,x,lbx", "rr,nt", false, 1999, 0)
			},
		},
		{
			path: "BENCH_shard.json",
			build: func() (any, error) {
				return benchdoc.Shard("6..30", "roundrobin,memaware,lataware", 3, false, 1999, 0)
			},
		},
		{
			path: "BENCH_churn.json",
			build: func() (any, error) {
				return benchdoc.Churn("22", "roundrobin,memaware,lataware", "0,0.15,0.3", 3, 2, 4, false, 1999, 0)
			},
		},
		{
			path: "BENCH_schedule.json",
			build: func() (any, error) {
				return benchdoc.Schedule("15", "officeday,flat", "roundrobin,lataware", 3, 2, 2, false, 1999, 0)
			},
		},
		{
			path: "BENCH_control.json",
			build: func() (any, error) {
				return benchdoc.Control("officeday,shiftchange", 2, 0, false, 1999, 0)
			},
		},
		{
			path: "BENCH_speed.json",
			build: func() (any, error) {
				return benchdoc.Speed(false, 1999, 1, "")
			},
			volatile: volatileSpeed,
			ratchet:  ratchetSpeed,
			serial:   true,
		},
	}
}

// TestBenchBaselinesBitIdentical regenerates every checked-in BENCH
// document in-process, with the exact parameters its command line
// records, and golden-diffs the result against the file. Every field
// present in the checked-in baseline must be byte-for-byte unchanged
// (volatile fields excepted, ratcheted fields gated) — this is the
// repo-local version of CI's regenerate-and-diff jobs, and the proof that
// a refactor (like the calendar-queue event scheduler) preserved every
// number it inherited.
//
// The helper tolerates fields ADDED by newer code, so a future PR that
// extends a result type reuses this test unchanged: it regenerates the
// baselines, checks them in, and the old fields must still match.
func TestBenchBaselinesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("bench regeneration in -short mode")
	}
	for _, b := range baselines() {
		b := b
		t.Run(b.path, func(t *testing.T) {
			if !b.serial {
				// Serial entries run to completion inline, before any
				// parallel sibling starts, keeping the process quiet for
				// their allocation counting.
				t.Parallel()
			}
			doc, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			assertGoldenSubset(t, b, doc)
		})
	}
}

// assertGoldenSubset checks that every field of the checked-in JSON
// baseline appears, with an identical value, in the regenerated document.
// Numbers compare by their JSON token text, so a drift of one ulp fails.
// Fields present only in the regenerated document are allowed (they are
// what a future PR checks in); fields missing from it are not.
func assertGoldenSubset(t *testing.T, b baseline, doc any) {
	t.Helper()
	raw, err := os.ReadFile(b.path)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := decodeNumbers(raw, &want); err != nil {
		t.Fatalf("%s: %v", b.path, err)
	}
	if err := decodeNumbers(fresh, &got); err != nil {
		t.Fatal(err)
	}
	d := differ{volatile: toSet(b.volatile), ratchet: toSet(b.ratchet)}
	if diff := d.subsetDiff("", want, got); diff != "" {
		t.Fatalf("%s drifted from the checked-in baseline:\n%s", b.path, diff)
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
// classification applies at any depth, so "wall_ms" is volatile wherever a
// workload entry nests.
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
