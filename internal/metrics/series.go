package metrics

import (
	"fmt"
	"strings"

	"thinbench/internal/simclock"
)

// Series accumulates a quantity into fixed-duration time buckets, the
// building block for the paper's load-over-time figures (the Mbps traces).
type Series struct {
	bucket simclock.Duration
	vals   []float64
}

// NewSeries creates a series with the given bucket duration.
func NewSeries(bucket simclock.Duration) *Series {
	if bucket <= 0 {
		panic("metrics: series needs a positive bucket duration")
	}
	return &Series{bucket: bucket}
}

// Add accumulates amount into the bucket containing t.
func (s *Series) Add(t simclock.Time, amount float64) {
	i := int(int64(t) / int64(s.bucket))
	for len(s.vals) <= i {
		s.vals = append(s.vals, 0)
	}
	s.vals[i] += amount
}

// Merge folds another series into s bucket-by-bucket, extending s as
// needed. Both series must share a bucket duration; Merge panics otherwise.
// Per-shard series accumulate without locks and merge single-threaded.
func (s *Series) Merge(o *Series) {
	if o == nil {
		return
	}
	if o.bucket != s.bucket {
		panic("metrics: merging series with different bucket durations")
	}
	for len(s.vals) < len(o.vals) {
		s.vals = append(s.vals, 0)
	}
	for i, v := range o.vals {
		s.vals[i] += v
	}
}

// Len reports the number of buckets with data (including zero-gaps between).
func (s *Series) Len() int { return len(s.vals) }

// At reports the accumulated value of bucket i (0 beyond the end).
func (s *Series) At(i int) float64 {
	if i < 0 || i >= len(s.vals) {
		return 0
	}
	return s.vals[i]
}

// Values returns a copy of all bucket values.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.vals))
	copy(out, s.vals)
	return out
}

// Mbps converts each bucket's accumulated byte count into megabits/second.
func (s *Series) Mbps() []float64 {
	secs := s.bucket.Seconds()
	out := make([]float64, len(s.vals))
	for i, v := range s.vals {
		out[i] = v * 8 / 1e6 / secs
	}
	return out
}

// MeanOver computes the mean bucket value across buckets [from, to).
func (s *Series) MeanOver(from, to int) float64 {
	if to > len(s.vals) {
		to = len(s.vals)
	}
	if from < 0 {
		from = 0
	}
	if from >= to {
		return 0
	}
	var sum float64
	for _, v := range s.vals[from:to] {
		sum += v
	}
	return sum / float64(to-from)
}

// Table renders rows of labeled values as fixed-width text, in the style of
// the paper's tables. Columns are right-aligned except the first.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "  %*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// FormatBytes renders a byte count with thousands separators, as the paper
// prints them (e.g. "888,239").
func FormatBytes(n int64) string {
	s := fmt.Sprintf("%d", n)
	if n < 0 {
		return s
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	return strings.Join(parts, ",")
}
