package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"thinbench/internal/display"
)

// quickRun runs one child of w at toy sizes in-process and returns its
// report.
func quickRun(t *testing.T, w workload, mode string) childReport {
	t.Helper()
	var out bytes.Buffer
	if err := runChild(w, mode, options{seed: 7, quick: true}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || lines[0] != "ready" {
		t.Fatalf("child printed %q, want ready and a report", out.String())
	}
	var rep childReport
	if err := json.Unmarshal([]byte(lines[1]), &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	return out
}

func sortedKeys(m map[string]metricValue) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// TestQuickWorkloads runs every workload's measuring and traced children
// at toy sizes. Every rep must pass its checks, and every rep of one seed
// must return the same result, traced or not, at 1 or 2 workers.
func TestQuickWorkloads(t *testing.T) {
	t.Chdir(t.TempDir()) // the traced child writes its spans here
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			rep := quickRun(t, w, "measure")
			r := summarize(w, false, []float64{1}, rep.Records, child{report: rep})
			if !r.Correct || r.Failed != 0 || r.Attempted != 1+simSeeds {
				t.Fatalf("measure: correct %v, %d of %d failed", r.Correct, r.Failed, r.Attempted)
			}
			if got, want := sortedKeys(r.Metrics), slices.Sorted(slices.Values(names(endToEnd))); !slices.Equal(got, want) {
				t.Fatalf("end-to-end metrics %v, want %v", got, want)
			}
			for name, v := range r.Metrics {
				if !(v.Value > 0) {
					t.Errorf("%s = %v, want > 0", name, v.Value)
				}
			}

			trace := quickRun(t, w, "trace")
			r = summarize(w, true, nil, append(rep.Records, trace.Records...), child{report: trace})
			if !r.Correct || r.Failed != 0 {
				t.Fatalf("trace: correct %v, %d of %d failed", r.Correct, r.Failed, r.Attempted)
			}
			if got, want := sortedKeys(r.Metrics), slices.Sorted(slices.Values(names(perLayer()))); !slices.Equal(got, want) {
				t.Fatalf("per-layer metrics %v, want %v", got, want)
			}
			workers := map[int]bool{}
			for _, rec := range trace.Records {
				workers[rec.Workers] = true
			}
			if !workers[1] || !workers[2] {
				t.Fatalf("traced run used workers %v, want 1 and 2", workers)
			}
			checkTraceFile(t, filepath.Join(buildDir, "trace_"+w.name+"_7.json"), simSeeds)
		})
	}
}

// checkTraceFile reads a Chrome trace and checks it holds reps rep spans,
// each with at least one child span pointing at it.
func checkTraceFile(t *testing.T, path string, reps int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []traceEvent }
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	repIDs := map[int]bool{}
	children := map[int]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 {
			t.Fatalf("bad event %+v", ev)
		}
		if ev.Name == "rep" {
			repIDs[ev.Args.ID] = true
		} else {
			children[ev.Args.Parent]++
		}
	}
	if len(repIDs) != reps {
		t.Fatalf("%d rep spans, want %d", len(repIDs), reps)
	}
	for id := range repIDs {
		if children[id] == 0 {
			t.Errorf("rep span %d has no children", id)
		}
	}
	for parent := range children {
		if !repIDs[parent] {
			t.Errorf("span parent %d is not a rep", parent)
		}
	}
}

func TestCheckRecordsCountsDigestMismatch(t *testing.T) {
	recs := []repRecord{
		{Seed: 0, Digest: "a"}, {Seed: 1, Digest: "b"},
		{Seed: 0, Digest: "a", Workers: 2}, {Seed: 1, Digest: "c", Workers: 2},
		{Seed: 1, Err: "boom"},
	}
	if got := checkRecords(workload{name: "test"}, recs); got != 2 {
		t.Fatalf("checkRecords = %d failures, want 2", got)
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the program: the same
// workloads and metrics in the same order, with the same units and
// directions, inside the limits the file format allows.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(doc.Paths, []string{"bench"}) || !slices.Equal(doc.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %q, paths %q", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}

	var wls []string
	for _, w := range doc.Workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		wls = append(wls, w.Name)
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if !slices.Equal(wls, want) || len(wls) < 2 || len(wls) > 8 {
		t.Errorf("workloads %v, program runs %v", wls, want)
	}

	compare := func(kind string, got []metric, want []metricDef, limit int, bounded bool) {
		if len(got) != len(want) || len(got) > limit {
			t.Errorf("%s: %d metrics, program prints %d (limit %d)", kind, len(got), len(want), limit)
			return
		}
		for i, m := range got {
			checkName(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q malformed", m.Name, m.Unit)
			}
			if d := want[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s #%d: %+v, program prints %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || bounded && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: bad bound", m.Name)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, 16, true)
	compare("per_layer", doc.PerLayer, perLayer(), 128, false)
	largest := 0.0
	for _, m := range doc.EndToEnd {
		largest = math.Max(largest, *m.Bound)
	}
	if i := slices.IndexFunc(doc.EndToEnd, func(m metric) bool { return m.Name == "setup_s" }); i < 0 || *doc.EndToEnd[i].Bound != largest {
		t.Errorf("setup_s must be listed with the largest bound")
	}
}

// TestProfileAttribution profiles a loop spent in display code and checks
// the samples land on display, and that the self-time shares add up to 1.
func TestProfileAttribution(t *testing.T) {
	a := display.NewBitmap(1024, 1024)
	b := a.Clone()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cannot profile: %v", err)
	}
	equal := 0
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
		if a.Equal(b) {
			equal++
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var at attribution
	at.add(samples)
	if at.samples < 10 {
		t.Skipf("only %d samples", at.samples)
	}
	// Under the race detector most samples land in its runtime hooks, so
	// the test asks only that display lead every other module.
	f := at.fracs()
	for _, m := range append(modules, "other") {
		if m != "display" && f[m+".self_frac"] >= f["display.self_frac"] {
			t.Errorf("%s.self_frac = %.3f, display.self_frac = %.3f over %d samples; want display ahead",
				m, f[m+".self_frac"], f["display.self_frac"], at.samples)
		}
	}
	sum := 0.0
	for name, v := range f {
		if strings.HasSuffix(name, ".self_frac") || strings.HasPrefix(name, "runtime.") {
			sum += v
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("self-time shares sum to %v", sum)
	}
}

// pb appends protobuf fields, enough to build a profile by hand.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(num)<<3), v)
}

func (b pb) bytes(num int, m []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	return append(binary.AppendUvarint(b, uint64(len(m))), m...)
}

// TestParseProfileByHand decodes a profile with an inlined call, packed
// and unpacked repeated fields, and a CPU value that is not the first.
func TestParseProfileByHand(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"thinbench/internal/vm.(*Manager).Touch", "thinbench/internal/server.New",
		"runtime.mallocgc", "runtime.memclrNoHeapPointers"}
	var p pb
	p = p.bytes(1, pb{}.varint(1, 1).varint(2, 2))
	p = p.bytes(1, pb{}.varint(1, 3).varint(2, 4))
	// Sample 1: one location holding Touch inlined into New; packed fields.
	p = p.bytes(2, pb{}.bytes(1, []byte{1}).bytes(2, []byte{1, 10}))
	// Sample 2: allocation under New; unpacked fields.
	p = p.bytes(2, pb{}.varint(1, 2).varint(1, 3).varint(1, 1).varint(2, 3).varint(2, 30))
	p = p.bytes(4, pb{}.varint(1, 1).bytes(4, pb{}.varint(1, 1).varint(2, 7)).bytes(4, pb{}.varint(1, 2)))
	p = p.bytes(4, pb{}.varint(1, 2).bytes(4, pb{}.varint(1, 4)))
	p = p.bytes(4, pb{}.varint(1, 3).bytes(4, pb{}.varint(1, 3)))
	for id, name := range []uint64{5, 6, 7, 8} {
		p = p.bytes(5, pb{}.varint(1, uint64(id+1)).varint(2, name))
	}
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []profSample{
		{1, 10, []string{strs[5], strs[6]}},
		{3, 30, []string{strs[8], strs[7], strs[5], strs[6]}},
	}
	if len(samples) != len(want) {
		t.Fatalf("got %d samples, want %d", len(samples), len(want))
	}
	for i := range want {
		if samples[i].count != want[i].count || samples[i].cpu != want[i].cpu || !slices.Equal(samples[i].frames, want[i].frames) {
			t.Errorf("sample %d = %+v, want %+v", i, samples[i], want[i])
		}
	}
	var at attribution
	at.add(samples)
	f := at.fracs()
	if at.samples != 4 || f["vm.self_frac"] != 0.25 || f["runtime.alloc_frac"] != 0.75 || f["server.setup_frac"] != 1 {
		t.Errorf("attribution %v", f)
	}

	for _, n := range []int{0, 1, len(p) / 2} {
		var bad bytes.Buffer
		zw := gzip.NewWriter(&bad)
		zw.Write(p[:n])
		zw.Write([]byte{0x12, 0x7f})
		zw.Close()
		if _, err := parseProfile(bad.Bytes()); !errors.Is(err, errProfile) {
			t.Errorf("truncated at %d: err %v, want a malformed-profile error", n, err)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"thinbench/internal/proto/rdp.(*Server).Encode":         "proto",
		"thinbench/internal/farm.Run[go.shape.struct {}].func1": "farm",
		"thinbench/internal/bitmapcache.(*Cache).Get":           "other",
		"internal/runtime/maps.(*Map).getWithKey":               "runtime",
		"runtime.memmove": "runtime",
		"sort.Sort":       "other",
		"main.main":       "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
