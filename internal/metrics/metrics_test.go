package metrics

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"thinbench/internal/simclock"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d, want 8", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	if s.Stddev() != 2 {
		t.Fatalf("Stddev = %v, want 2", s.Stddev())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
	if s.Sum() != 40 {
		t.Fatalf("Sum = %v, want 40", s.Sum())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.N() != 0 {
		t.Fatal("empty summary should be all zeros")
	}
}

func TestSummaryMergeEqualsSequential(t *testing.T) {
	f := func(a, b []float64) bool {
		// Bound the inputs to a physically plausible range; Welford merge is
		// not immune to catastrophic cancellation at 1e308 scales.
		ok := func(v float64) bool {
			return !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12
		}
		var all, left, right Summary
		for _, v := range a {
			if !ok(v) {
				return true
			}
			all.Add(v)
			left.Add(v)
		}
		for _, v := range b {
			if !ok(v) {
				return true
			}
			all.Add(v)
			right.Add(v)
		}
		left.Merge(&right)
		if left.N() != all.N() {
			return false
		}
		if all.N() == 0 {
			return true
		}
		closeEnough := func(x, y float64) bool {
			scale := math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
			return math.Abs(x-y) <= 1e-9*scale
		}
		return closeEnough(left.Mean(), all.Mean()) &&
			closeEnough(left.Variance(), all.Variance()) &&
			left.Min() == all.Min() && left.Max() == all.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileOfSorted(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {0, 1}, {100, 100}, {99, 99}} {
		if v := Percentile(sorted, c.p); v != c.want {
			t.Fatalf("p%v = %v, want %v", c.p, v, c.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	for _, p := range []float64{0, 50, 100} {
		if v := Percentile(nil, p); v != 0 {
			t.Fatalf("p%v of no samples = %v, want 0", p, v)
		}
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 5) // buckets [0,10) [10,20) ... [40,50)
	h.Add(5)
	h.Add(15)
	h.Add(15)
	h.Add(999) // clamped into last bucket
	if h.Count(0) != 1 || h.Count(1) != 2 || h.Count(4) != 1 {
		t.Fatalf("bucket counts wrong: %v %v %v", h.Count(0), h.Count(1), h.Count(4))
	}
	if h.Clamped() != 1 {
		t.Fatalf("Clamped = %d, want 1", h.Clamped())
	}
	if h.N() != 4 {
		t.Fatalf("N = %d, want 4", h.N())
	}
	if h.Total() != 5+15+15+999 {
		t.Fatalf("Total = %v", h.Total())
	}
	if h.BucketLow(3) != 30 {
		t.Fatalf("BucketLow(3) = %v, want 30", h.BucketLow(3))
	}
	if h.Buckets() != 5 {
		t.Fatalf("Buckets = %d, want 5", h.Buckets())
	}
	// Negative samples clamp to bucket 0.
	h.Add(-3)
	if h.Count(0) != 2 {
		t.Fatal("negative sample should land in bucket 0")
	}
}

func TestHistogramCumulativeWeighted(t *testing.T) {
	h := NewHistogram(10, 3)
	h.Add(5)  // bucket 0, midpoint 5
	h.Add(15) // bucket 1, midpoint 15
	h.Add(15) // bucket 1
	cum := h.CumulativeWeighted()
	want := []float64{5, 35, 35}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cum = %v, want %v", cum, want)
		}
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram(0,0) did not panic")
		}
	}()
	NewHistogram(0, 0)
}

func TestSeriesAdd(t *testing.T) {
	s := NewSeries(simclock.Millisecond) // 1000us buckets
	s.Add(simclock.Time(500), 250)
	s.Add(simclock.Time(1500), 1000)
	s.Add(simclock.Time(999), 50)
	if v := s.Values(); len(v) != 2 || v[0] != 300 || v[1] != 1000 {
		t.Fatalf("values = %v, want [300 1000]", v)
	}
	if s.At(0) != 300 || s.At(5) != 0 || s.At(-1) != 0 {
		t.Fatal("At() bounds behavior wrong")
	}
}

func TestSeriesMbps(t *testing.T) {
	s := NewSeries(simclock.Second)
	s.Add(0, 125000) // 125 KB in 1s = 1 Mbps
	if got := s.Mbps()[0]; math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("Mbps = %v, want 1.0", got)
	}
}

func TestSeriesMeanOver(t *testing.T) {
	s := NewSeries(simclock.Second)
	for i := 0; i < 10; i++ {
		s.Add(simclock.Time(i)*simclock.Time(simclock.Second), float64(i))
	}
	if got := s.MeanOver(0, 10); got != 4.5 {
		t.Fatalf("MeanOver = %v, want 4.5", got)
	}
	if got := s.MeanOver(5, 100); got != 7 {
		t.Fatalf("MeanOver clamped = %v, want 7", got)
	}
	if got := s.MeanOver(8, 3); got != 0 {
		t.Fatalf("MeanOver inverted = %v, want 0", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Process", "Typical")
	tab.AddRow("in.rshd", "204 KB")
	tab.AddRow("xterm", "372 KB")
	out := tab.String()
	if !strings.Contains(out, "in.rshd") || !strings.Contains(out, "204 KB") {
		t.Fatalf("table missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	// Short rows pad out; long rows truncate to header width.
	tab2 := NewTable("A", "B")
	tab2.AddRow("only")
	tab2.AddRow("x", "y", "dropped")
	out2 := tab2.String()
	if strings.Contains(out2, "dropped") {
		t.Fatal("extra cell should be dropped")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		0:       "0",
		999:     "999",
		1000:    "1,000",
		888239:  "888,239",
		6250888: "6,250,888",
		-5:      "-5",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	whole := NewHistogram(10, 5)
	a := NewHistogram(10, 5)
	b := NewHistogram(10, 5)
	samples := []float64{1, 12, 33, 47, 99, 12, 0, 88}
	for i, v := range samples {
		whole.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(b)
	if a.N() != whole.N() || a.Total() != whole.Total() || a.Clamped() != whole.Clamped() {
		t.Fatalf("merged totals N=%d V=%v C=%d, want N=%d V=%v C=%d",
			a.N(), a.Total(), a.Clamped(), whole.N(), whole.Total(), whole.Clamped())
	}
	for i := 0; i < whole.Buckets(); i++ {
		if a.Count(i) != whole.Count(i) {
			t.Fatalf("bucket %d: merged %d, want %d", i, a.Count(i), whole.Count(i))
		}
	}
	cw, ww := a.CumulativeWeighted(), whole.CumulativeWeighted()
	for i := range ww {
		if cw[i] != ww[i] {
			t.Fatalf("cumulative bucket %d: merged %v, want %v", i, cw[i], ww[i])
		}
	}
}

// TestHistogramMergeRejectsMismatch: the fleet layer leans on Merge to
// combine per-shard latency counts, so silently mixing bucketings would
// corrupt every fleet percentile. Any shape mismatch must panic — a
// different width, a different bucket count, and the trap case where
// width and count differ but cover the identical range (same origin and
// extent, incompatible bucket edges).
func TestHistogramMergeRejectsMismatch(t *testing.T) {
	mustPanic := func(name string, dst, src *Histogram) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: merging mismatched histograms did not panic", name)
			}
		}()
		dst.Merge(src)
	}
	mustPanic("width mismatch", NewHistogram(10, 5), NewHistogram(5, 5))
	mustPanic("count mismatch", NewHistogram(10, 5), NewHistogram(10, 6))
	// Same [0, 50) range either way; the edges still disagree.
	mustPanic("same range, different granularity", NewHistogram(10, 5), NewHistogram(5, 10))

	// The mismatch panic must fire before any state is touched: a failed
	// merge attempt leaves the destination's counts intact.
	dst := NewHistogram(10, 5)
	dst.Add(12)
	func() {
		defer func() { recover() }()
		dst.Merge(NewHistogram(10, 50))
	}()
	if dst.N() != 1 || dst.Count(1) != 1 {
		t.Fatalf("failed merge corrupted destination: N=%d", dst.N())
	}
	// A merge in the legal direction still works afterward, clamped
	// samples included.
	src := NewHistogram(10, 5)
	src.Add(999) // clamps into the last bucket
	dst.Merge(src)
	if dst.N() != 2 || dst.Clamped() != 1 || dst.Count(4) != 1 {
		t.Fatalf("post-panic merge wrong: N=%d clamped=%d", dst.N(), dst.Clamped())
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(10, 10) // buckets [0,10) ... [90,100)
	for i := 1; i <= 100; i++ {
		h.Add(float64(i) - 0.5)
	}
	// Nearest-rank sample 50 (49.5) sits in bucket [40,50): upper edge 50.
	if v := h.Percentile(50); v != 50 {
		t.Fatalf("p50 = %v, want 50", v)
	}
	if v := h.Percentile(0); v != 10 {
		t.Fatalf("p0 = %v, want 10 (first occupied bucket's upper edge)", v)
	}
	if v := h.Percentile(100); v != 100 {
		t.Fatalf("p100 = %v, want 100", v)
	}
	if v := h.Percentile(95); v != 100 {
		t.Fatalf("p95 = %v, want 100", v)
	}
	// Clamped samples count at the last bucket's edge, never beyond it.
	h.Add(1e9)
	if v := h.Percentile(100); v != 100 {
		t.Fatalf("p100 with clamped sample = %v, want 100", v)
	}
}

// TestHistogramPercentileEmpty pins the empty-histogram contract: N == 0
// yields exactly 0 for every percentile, so an all-censored or zero-sample
// window can never leak an undefined value into a latency summary.
func TestHistogramPercentileEmpty(t *testing.T) {
	h := NewHistogram(1, 8)
	for _, p := range []float64{0, 50, 95, 100} {
		if v := h.Percentile(p); v != 0 {
			t.Fatalf("empty histogram p%v = %v, want 0", p, v)
		}
	}
	// Merging empties stays empty and defined.
	h.Merge(NewHistogram(1, 8))
	if v := h.Percentile(95); v != 0 || h.N() != 0 {
		t.Fatalf("merged empty p95 = %v N = %d, want 0/0", v, h.N())
	}
}

// TestMergedPercentile: sorted runs read as their samples sorted together
// would, empty runs and no samples included, and the read allocates
// nothing.
func TestMergedPercentile(t *testing.T) {
	runs := [][]float64{{1, 4, 4, 9}, nil, {2, 4, 30}, {}, {0.5}}
	all := []float64{0.5, 1, 2, 4, 4, 4, 9, 30}
	for _, p := range []float64{math.NaN(), -5, 0, 10, 12.5, 50, 62.5, 63, 95, 100, 250} {
		if got, want := MergedPercentile(runs, p), Percentile(all, p); got != want {
			t.Fatalf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := MergedPercentile([][]float64{nil, {}}, 95); got != 0 {
		t.Fatalf("no samples read %v, want 0", got)
	}
	// The search meets zero at negative zero first; the answer is the
	// zero the runs store.
	if got := MergedPercentile([][]float64{{-1}, {0, 0}}, 75); got != 0 || math.Signbit(got) {
		t.Fatalf("p75 of -1, 0, 0 = %v, want the stored 0", got)
	}
	if a := testing.AllocsPerRun(50, func() { sinkFloat = MergedPercentile(runs, 95) }); a != 0 {
		t.Fatalf("MergedPercentile costs %v allocations, want 0", a)
	}
}

var sinkFloat float64

func TestHistogramOf(t *testing.T) {
	samples := []float64{1, 12, 33, 47, 99, 12, 0, 888}
	h := HistogramOf([][]float64{samples[:3], nil, samples[3:]}, 10, 5)
	if h.N() != int64(len(samples)) {
		t.Fatalf("histogram N = %d, want %d", h.N(), len(samples))
	}
	if h.Count(0) != 2 || h.Count(1) != 2 || h.Count(4) != 3 {
		t.Fatalf("bucket counts wrong: %d %d %d", h.Count(0), h.Count(1), h.Count(4))
	}
	if h.Clamped() != 2 {
		t.Fatalf("Clamped = %d, want 2 (99 and 888)", h.Clamped())
	}
	// Per-machine samples bucketed then merged must equal the whole bucketed.
	ha, hw := HistogramOf([][]float64{{1, 33}}, 10, 5), HistogramOf(nil, 10, 5)
	hw.Merge(ha)
	hw.Merge(HistogramOf([][]float64{{47}}, 10, 5))
	if hw.N() != 3 || hw.Count(3) != 1 || hw.Count(4) != 1 {
		t.Fatalf("merged histogram wrong: N=%d", hw.N())
	}
}

// denseHistogram is the reference Histogram: every one of its n buckets
// is allocated up front, as the fleet histograms were before storage grew
// with the samples. The sparse Histogram must agree with it on every
// query.
type denseHistogram struct {
	width   float64
	counts  []int64
	sums    []float64
	totalN  int64
	totalV  float64
	clamped int64
}

func newDenseHistogram(width float64, n int) *denseHistogram {
	return &denseHistogram{width: width, counts: make([]int64, n), sums: make([]float64, n)}
}

func (h *denseHistogram) Add(v float64) {
	if v < 0 {
		v = 0
	}
	i := int(v / h.width)
	if i >= len(h.counts) {
		i = len(h.counts) - 1
		h.clamped++
	}
	h.counts[i]++
	h.sums[i] += v
	h.totalN++
	h.totalV += v
}

func (h *denseHistogram) Merge(o *denseHistogram) {
	for i := range h.counts {
		h.counts[i] += o.counts[i]
		h.sums[i] += o.sums[i]
	}
	h.totalN += o.totalN
	h.totalV += o.totalV
	h.clamped += o.clamped
}

func (h *denseHistogram) Percentile(p float64) float64 {
	if h.totalN == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(h.totalN)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.totalN {
		rank = h.totalN
	}
	var run int64
	for i, c := range h.counts {
		run += c
		if run >= rank {
			return float64(i+1) * h.width
		}
	}
	return float64(len(h.counts)) * h.width
}

func (h *denseHistogram) CumulativeWeighted() []float64 {
	out := make([]float64, len(h.sums))
	var run float64
	for i, s := range h.sums {
		run += s
		out[i] = run
	}
	return out
}

// agreesWithDense fails the test unless h answers every query exactly as
// the dense reference does.
func agreesWithDense(t *testing.T, what string, h *Histogram, ref *denseHistogram) {
	t.Helper()
	if h.N() != ref.totalN || h.Total() != ref.totalV || h.Clamped() != ref.clamped {
		t.Fatalf("%s: N/Total/Clamped %d/%v/%d, reference %d/%v/%d",
			what, h.N(), h.Total(), h.Clamped(), ref.totalN, ref.totalV, ref.clamped)
	}
	if h.Buckets() != len(ref.counts) {
		t.Fatalf("%s: Buckets %d, reference %d", what, h.Buckets(), len(ref.counts))
	}
	for i, c := range ref.counts {
		if h.Count(i) != c {
			t.Fatalf("%s: Count(%d) = %d, reference %d", what, i, h.Count(i), c)
		}
	}
	for p := 0.0; p <= 100; p += 0.5 {
		if got, want := h.Percentile(p), ref.Percentile(p); got != want {
			t.Fatalf("%s: p%v = %v, reference %v", what, p, got, want)
		}
	}
	cw, rw := h.CumulativeWeighted(), ref.CumulativeWeighted()
	if len(cw) != len(rw) {
		t.Fatalf("%s: CumulativeWeighted has %d points, reference %d", what, len(cw), len(rw))
	}
	for i := range rw {
		if cw[i] != rw[i] {
			t.Fatalf("%s: CumulativeWeighted[%d] = %v, reference %v", what, i, cw[i], rw[i])
		}
	}
}

// TestHistogramMatchesDenseReference: storage that grows with the samples
// must not change a single answer. Randomized samples — negative, on
// bucket edges, inside the range, past it — are bucketed both ways, built
// through Add and through HistogramOf, then folded by a random merge
// tree, and every query is checked against the dense reference. The same
// samples as sorted runs (with empty runs mixed in) must give
// BucketPercentile the reference's percentiles and clamp count.
func TestHistogramMatchesDenseReference(t *testing.T) {
	rng := simclock.NewRand(13)
	for round := 0; round < 300; round++ {
		width := []float64{0.5, 1, 10}[rng.Intn(3)]
		n := 1 + rng.Intn(200)
		span := width * float64(n)
		sample := func() float64 {
			switch rng.Intn(8) {
			case 0:
				return -rng.Float64() * span
			case 1:
				return span * (1 + 3*rng.Float64())
			case 2:
				return float64(rng.Intn(n+1)) * width
			case 3:
				return rng.Float64() * span
			default:
				return rng.Float64() * span / 8
			}
		}

		leaves := 1 + rng.Intn(6)
		sparse := make([]*Histogram, leaves)
		dense := make([]*denseHistogram, leaves)
		runs := [][]float64{nil}
		for i := range sparse {
			dense[i] = newDenseHistogram(width, n)
			var d []float64
			for k := rng.Intn(40); k > 0; k-- {
				v := sample()
				d = append(d, v)
				dense[i].Add(v)
			}
			runs = append(runs, slices.Sorted(slices.Values(d)))
			if rng.Intn(3) == 0 {
				runs = append(runs, []float64{})
			}
			if rng.Intn(2) == 0 {
				sparse[i] = HistogramOf([][]float64{d}, width, n)
			} else {
				sparse[i] = NewHistogram(width, n)
				for _, v := range d {
					sparse[i].Add(v)
				}
			}
			agreesWithDense(t, "leaf", sparse[i], dense[i])
		}

		seq := NewHistogram(width, n)
		all := newDenseHistogram(width, n)
		for i, h := range sparse {
			seq.Merge(h)
			all.Merge(dense[i])
		}
		agreesWithDense(t, "sequential Merge", seq, all)
		for p := 0.0; p <= 100; p += 0.5 {
			got, clamped := BucketPercentile(width, n, p, runs)
			if want := all.Percentile(p); got != want || clamped != all.clamped {
				t.Fatalf("BucketPercentile p%v = %v with %d clamped, reference %v with %d", p, got, clamped, want, all.clamped)
			}
		}

		// A random merge tree reaches the same totals.
		for len(sparse) > 1 {
			i, j := rng.Intn(len(sparse)), rng.Intn(len(sparse)-1)
			if j >= i {
				j++
			}
			sparse[i].Merge(sparse[j])
			dense[i].Merge(dense[j])
			agreesWithDense(t, "merge tree node", sparse[i], dense[i])
			sparse = append(sparse[:j], sparse[j+1:]...)
			dense = append(dense[:j], dense[j+1:]...)
		}
		if sparse[0].N() != all.totalN || sparse[0].Clamped() != all.clamped {
			t.Fatalf("merge tree root N/Clamped %d/%d, want %d/%d",
				sparse[0].N(), sparse[0].Clamped(), all.totalN, all.clamped)
		}
	}
}

var sinkHist *Histogram

// TestHistogramStorageFollowsSamples pins the storage contract: a
// histogram's nominal range is free, and its storage reaches only as far
// as its highest occupied bucket, allocated once when the samples are
// known up front.
func TestHistogramStorageFollowsSamples(t *testing.T) {
	h := NewHistogram(1, 1_000_000)
	h.Add(5)
	if len(h.counts) != 6 || len(h.sums) != 6 {
		t.Fatalf("one sample in bucket 5 stores %d/%d buckets, want 6", len(h.counts), len(h.sums))
	}
	if h.Buckets() != 1_000_000 || h.Count(999_999) != 0 {
		t.Fatalf("nominal range lost: Buckets %d, Count(last) %d", h.Buckets(), h.Count(999_999))
	}
	for _, n := range []int{1, 4096, 1_000_000} {
		if a := testing.AllocsPerRun(50, func() { sinkHist = NewHistogram(1, n) }); a != 1 {
			t.Fatalf("NewHistogram(1, %d) costs %v allocations, want 1", n, a)
		}
	}
	if e := HistogramOf(nil, 1, 1_000_000); e.counts != nil || e.sums != nil {
		t.Fatalf("no samples stored %d buckets", len(e.counts))
	}
	if a := testing.AllocsPerRun(50, func() { sinkHist = HistogramOf(nil, 1, 1_000_000) }); a != 1 {
		t.Fatalf("HistogramOf no samples costs %v allocations, want 1", a)
	}
	// Samples known up front size the storage once: the histogram, its
	// counts, its sums.
	runs := [][]float64{{3, 900}, nil, {41, 2e9}}
	if a := testing.AllocsPerRun(50, func() { sinkHist = HistogramOf(runs, 1, 4096) }); a != 3 {
		t.Fatalf("HistogramOf costs %v allocations, want 3", a)
	}
}
