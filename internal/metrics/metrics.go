// Package metrics provides the measurement primitives used across the
// reproduction: streaming summary statistics, fixed-bucket histograms,
// percentiles read from sorted samples — one sorted array (Percentile),
// or many sorted runs read together without merging them, exactly
// (MergedPercentile) or at a histogram's bucket granularity
// (BucketPercentile) — time-bucketed series (for the paper's
// load-over-time figures), and plain text table rendering for CLI and
// experiment output.
package metrics

import (
	"math"
	"slices"
	"sort"
)

// Summary accumulates streaming count/mean/variance/min/max statistics using
// Welford's online algorithm.
type Summary struct {
	n        int64
	mean     float64
	m2       float64
	min, max float64
}

// Add folds a sample into the summary.
func (s *Summary) Add(v float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	delta := v - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (v - s.mean)
}

// N reports the number of samples.
func (s *Summary) N() int64 { return s.n }

// Mean reports the sample mean (0 with no samples).
func (s *Summary) Mean() float64 { return s.mean }

// Min reports the smallest sample (0 with no samples).
func (s *Summary) Min() float64 { return s.min }

// Max reports the largest sample (0 with no samples).
func (s *Summary) Max() float64 { return s.max }

// Variance reports the population variance.
func (s *Summary) Variance() float64 {
	if s.n < 1 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// Stddev reports the population standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Variance()) }

// Sum reports mean*n, the total of all samples.
func (s *Summary) Sum() float64 { return s.mean * float64(s.n) }

// Merge folds another summary into s.
func (s *Summary) Merge(o *Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	mean := s.mean + delta*float64(o.n)/float64(n)
	m2 := s.m2 + o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(n)
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n, s.mean, s.m2 = n, mean, m2
}

// Percentile returns the p-th percentile (0..100) of samples sorted
// ascending, by nearest rank: the smallest sample at or above which lie
// p percent of them. It returns 0 for no samples.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(p, len(sorted))]
}

// MergedPercentile returns what Percentile(p) returns over every sample of
// runs sorted together, without merging them. Each run must be sorted
// ascending and hold no NaN. The answer is the smallest sample with at
// least nearestRank+1 samples at or below it; it is found by binary search
// over float64's order (as unsigned integers, see orderKey), counting each
// run's samples at or below a candidate by binary search too, so it takes
// about 64 passes over the runs' binary searches and allocates nothing.
// No samples read 0.
func MergedPercentile(runs [][]float64, p float64) float64 {
	total := 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range runs {
		if len(r) > 0 {
			total += len(r)
			lo, hi = min(lo, r[0]), max(hi, r[len(r)-1])
		}
	}
	if total == 0 {
		return 0
	}
	rank := nearestRank(p, total) + 1
	atMost := func(v float64) int {
		c := 0
		for _, r := range runs {
			c += sort.Search(len(r), func(k int) bool { return r[k] > v })
		}
		return c
	}
	a, b := orderKey(lo), orderKey(hi)
	for a < b {
		m := a + (b-a)/2
		if atMost(fromOrderKey(m)) >= rank {
			b = m
		} else {
			a = m + 1
		}
	}
	// Every sample lies in [lo, hi] and the count steps only at sample
	// values, so the search ends on a sample's value. Zero and negative
	// zero compare equal, so return the sample as stored.
	v := fromOrderKey(a)
	for _, r := range runs {
		if k := sort.Search(len(r), func(k int) bool { return r[k] >= v }); k < len(r) && r[k] == v {
			return r[k]
		}
	}
	return v
}

// orderKey maps a float64 that is not NaN to an unsigned integer in the
// same order: negative values have every bit flipped, the rest only the
// sign bit. fromOrderKey is its inverse.
func orderKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 == 1 {
		return ^b
	}
	return b | 1<<63
}

func fromOrderKey(k uint64) float64 {
	if k>>63 == 1 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// nearestRank is the 0-based index of the p-th percentile (0..100) among
// n > 0 sorted samples: the ceil(p/100·n)-th smallest, the first for p at
// or below 0 (or NaN) and the last for p at or above 100. Every
// percentile in the package reads this one rule, whether over samples or
// bucket counts.
func nearestRank(p float64, n int) int {
	switch {
	case !(p > 0):
		return 0
	case p >= 100:
		return n - 1
	}
	return max(int(math.Ceil(p/100*float64(n)))-1, 0)
}

// HistogramOf buckets every sample of runs into a fresh histogram of n
// buckets each width wide. Histograms bucketed alike merge across
// machines where raw samples would grow unboundedly. The largest sample
// sizes the bucket storage up front, so the histogram allocates it once;
// no samples allocate none.
func HistogramOf(runs [][]float64, width float64, n int) *Histogram {
	h := NewHistogram(width, n)
	top := -1
	for _, r := range runs {
		if len(r) > 0 {
			i, _ := h.bucket(slices.Max(r))
			top = max(top, i)
		}
	}
	if top < 0 {
		return h
	}
	h.reserve(top + 1)
	for _, r := range runs {
		for _, v := range r {
			h.Add(v)
		}
	}
	return h
}

// Histogram counts samples into fixed-width buckets over the nominal range
// [0, width*n). Samples beyond the last bucket are clamped into it. The
// nominal bucket count n fixes the bucketing — clamping, Buckets, merge
// compatibility — but storage covers only [0, highest occupied bucket], so
// a histogram sized for a long run's worst case costs what its samples
// reach, not what its range could hold.
type Histogram struct {
	width float64
	n     int
	// counts and sums hold buckets [0, len(counts)); every bucket past
	// them, up to n, is empty.
	counts  []int64
	sums    []float64
	totalN  int64
	totalV  float64
	clamped int64
}

// NewHistogram creates a histogram of n buckets each width wide. It
// allocates no bucket storage; Add and Merge grow it as samples land.
func NewHistogram(width float64, n int) *Histogram {
	if width <= 0 || n <= 0 {
		panic("metrics: histogram needs positive width and bucket count")
	}
	return &Histogram{width: width, n: n}
}

// bucket maps a sample to its bucket index (negative samples land in
// bucket 0) and reports whether it was clamped into the last bucket.
func (h *Histogram) bucket(v float64) (int, bool) {
	if v < 0 {
		v = 0
	}
	if f := v / h.width; f < float64(h.n) {
		return int(f), false
	}
	return h.n - 1, true
}

// reserve grows bucket storage to cover buckets [0, m). A reallocation at
// least doubles the capacity (up to n), so Adds climbing bucket by bucket
// copy each bucket O(1) times.
func (h *Histogram) reserve(m int) {
	if m <= len(h.counts) {
		return
	}
	if m > cap(h.counts) {
		c := max(m, min(2*cap(h.counts), h.n))
		counts, sums := make([]int64, len(h.counts), c), make([]float64, len(h.sums), c)
		copy(counts, h.counts)
		copy(sums, h.sums)
		h.counts, h.sums = counts, sums
	}
	h.counts, h.sums = h.counts[:m], h.sums[:m]
}

// Add records a sample value.
func (h *Histogram) Add(v float64) {
	if v < 0 {
		v = 0
	}
	i, clamped := h.bucket(v)
	if clamped {
		h.clamped++
	}
	h.reserve(i + 1)
	h.counts[i]++
	h.sums[i] += v
	h.totalN++
	h.totalV += v
}

// Count reports the number of samples in bucket i (0 <= i < Buckets).
func (h *Histogram) Count(i int) int64 {
	if i >= len(h.counts) && i < h.n {
		return 0
	}
	return h.counts[i]
}

// Buckets reports the nominal number of buckets.
func (h *Histogram) Buckets() int { return h.n }

// BucketLow reports the inclusive lower bound of bucket i.
func (h *Histogram) BucketLow(i int) float64 { return float64(i) * h.width }

// N reports the total number of samples.
func (h *Histogram) N() int64 { return h.totalN }

// Total reports the sum of all sample values.
func (h *Histogram) Total() float64 { return h.totalV }

// Clamped reports how many samples exceeded the histogram range.
func (h *Histogram) Clamped() int64 { return h.clamped }

// Merge folds another histogram into h. Both histograms must have the same
// bucket width and count; Merge panics otherwise, since silently mixing
// incompatible bucketings would corrupt every downstream figure. Shards
// accumulate independently during a farm run and merge single-threaded
// afterward, so no locking is ever needed.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	if o.width != h.width || o.n != h.n {
		panic("metrics: merging histograms with different bucketing")
	}
	h.reserve(len(o.counts))
	for i, c := range o.counts {
		h.counts[i] += c
		h.sums[i] += o.sums[i]
	}
	h.totalN += o.totalN
	h.totalV += o.totalV
	h.clamped += o.clamped
}

// Percentile returns the p-th percentile (0..100) at bucket granularity:
// the upper edge of the bucket holding the nearest-rank sample, a
// conservative "no worse than" bound for samples within the histogram's
// range (clamped samples sit in the last bucket, so when Clamped is
// nonzero high percentiles floor at the range edge). An empty histogram
// (N == 0) is
// defined to return 0 — never an undefined or stale value — so callers
// summarizing latency must check N (or a censored-interaction count)
// before trusting a 0: a measurement window too short for any sample to
// land reads as 0 ms here, which is "no data", not "fast".
func (h *Histogram) Percentile(p float64) float64 {
	if h.totalN == 0 {
		return 0
	}
	rank := int64(nearestRank(p, int(h.totalN))) + 1
	var run int64
	for i, c := range h.counts {
		run += c
		if run >= rank {
			return float64(i+1) * h.width
		}
	}
	return float64(h.n) * h.width
}

// BucketPercentile returns what Histogram.Percentile(p) returns for a
// histogram of n buckets each width wide holding every sample of runs,
// and how many of those samples the histogram would clamp into its last
// bucket, without building it. Each run must be sorted ascending and hold
// no NaN. It is how per-machine samples merge into fleet percentiles:
// the answer is the upper edge of the first bucket whose cumulative count
// reaches the nearest rank, found by binary search over the bucket index,
// and each run's count below a bucket edge is a binary search too, so it
// stores no bucket and allocates nothing. No samples read 0.
func BucketPercentile(width float64, n int, p float64, runs [][]float64) (edge float64, clamped int64) {
	if width <= 0 || n <= 0 {
		panic("metrics: histogram needs positive width and bucket count")
	}
	// below counts the samples in buckets [0, i): those whose v/width,
	// the quotient Histogram.bucket truncates, is under i. Negative
	// samples, which a histogram counts in bucket 0, are under every i.
	below := func(i int) int64 {
		var c int64
		for _, r := range runs {
			c += int64(sort.Search(len(r), func(k int) bool { return !(r[k]/width < float64(i)) }))
		}
		return c
	}
	var total int64
	for _, r := range runs {
		total += int64(len(r))
	}
	if total == 0 {
		return 0, 0
	}
	clamped = total - below(n)
	rank := int64(nearestRank(p, int(total))) + 1
	// Buckets [0, i] hold below(i+1) samples, except the last, which also
	// holds the clamped ones: every sample is at or below bucket n-1.
	i := sort.Search(n-1, func(i int) bool { return below(i+1) >= rank })
	return float64(i+1) * width, clamped
}

// CumulativeWeighted returns, for each of the Buckets upper edges, the
// exact sum of sample values in all buckets at or below it. This is the
// "cumulative latency vs event length" transform used in the paper's
// Figure 2: x is an event-duration threshold, y is total time consumed by
// events no longer than x.
func (h *Histogram) CumulativeWeighted() []float64 {
	out := make([]float64, h.n)
	var run float64
	for i := range out {
		if i < len(h.sums) {
			run += h.sums[i]
		}
		out[i] = run
	}
	return out
}
