package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Claim is one thing a result says, as a number: what was measured, in
// what unit, and the band the number must fall in. A claim is written
// once, beside the code that computes its number — a registry experiment
// attaches its claims to its Result, and each extension family's document
// derives its own with Claims — and every consumer reads that record: the
// registry tests, the golden test, thinbench's scorecard and the seed
// sweep (BENCH_claims.json). A paper claim also carries the paper's
// value; a shape claim (an ordering, a dip, a recovery) is a number with
// no paper value.
type Claim struct {
	// ID names the claim: the experiment or family, a dot, the quantity.
	ID string
	// Statement says in one line what holds when the value is in the band.
	Statement string
	Value     float64
	Unit      string
	Band      Band
	// Paper is the paper's value for the quantity, 0 when it reports
	// none.
	Paper float64
}

// Holds reports whether the claim's value lies in its band.
func (c Claim) Holds() bool { return c.Band.Contains(c.Value) }

// Band is the range a claim's value must fall in: [Lo, Hi], or (Lo, Hi]
// when Above is set. An infinite end is no bound.
type Band struct {
	Lo, Hi float64
	Above  bool
}

func atLeast(lo float64) Band    { return Band{Lo: lo, Hi: math.Inf(1)} }
func above(lo float64) Band      { return Band{Lo: lo, Hi: math.Inf(1), Above: true} }
func atMost(hi float64) Band     { return Band{Lo: math.Inf(-1), Hi: hi} }
func within(lo, hi float64) Band { return Band{Lo: lo, Hi: hi} }
func exactly(v float64) Band     { return Band{Lo: v, Hi: v} }

// unbanded is the band of a value recorded only beside the paper's: any
// number holds.
var unbanded = Band{Lo: math.Inf(-1), Hi: math.Inf(1)}

// Contains reports whether v lies in the band. NaN never does.
func (b Band) Contains(v float64) bool {
	if b.Above && !(v > b.Lo) || !b.Above && !(v >= b.Lo) {
		return false
	}
	return v <= b.Hi
}

// String renders the band: "= 50", "[2.4, 3.6]", "> 0", ">= 2",
// "<= 0.01", or "none".
func (b Band) String() string {
	lo, hi := !math.IsInf(b.Lo, -1), !math.IsInf(b.Hi, 1)
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	switch {
	case lo && hi && b.Lo == b.Hi:
		return "= " + g(b.Lo)
	case lo && hi:
		open := "["
		if b.Above {
			open = "("
		}
		return open + g(b.Lo) + ", " + g(b.Hi) + "]"
	case lo && b.Above:
		return "> " + g(b.Lo)
	case lo:
		return ">= " + g(b.Lo)
	case hi:
		return "<= " + g(b.Hi)
	}
	return "none"
}

// FormatValue renders a claim value compactly: whole numbers and values
// of 100 or more without decimals, others to three significant digits.
func FormatValue(v float64) string {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		return strconv.FormatFloat(v, 'g', -1, 64)
	case v == math.Trunc(v) || math.Abs(v) >= 100:
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 3, 64)
}

// ungated lists the claims that fail on a document they were never
// checked on before each claim was written once, keyed by document (a
// BENCH file or a registry experiment) and claim ID. Check passes them;
// BENCH_claims.json still records each failure, and CHANGES.md names its
// cause.
var ungated = map[[2]string]string{
	{"BENCH_shard.json", "shard.p95_dip"}: "lataware reads 11 ms at 26 users and 10 ms at 30",
}

// Check returns an error naming every claim of the document source that
// does not hold, or nil when all hold.
func Check(source string, claims []Claim) error {
	var bad []string
	for _, c := range claims {
		if _, known := ungated[[2]string{source, c.ID}]; !c.Holds() && !known {
			bad = append(bad, fmt.Sprintf("%s: %s %s, want %s: %s", c.ID, FormatValue(c.Value), c.Unit, c.Band, c.Statement))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("%s: %d claims fail:\n  %s", source, len(bad), strings.Join(bad, "\n  "))
}

// dipTolMs is how far a latency series may fall between neighbouring
// points and still count as non-decreasing: run-to-run noise of a
// hundredth of a millisecond is no improvement.
const dipTolMs = 0.01

// largestDip is the largest fall between neighbouring values of ys, 0
// when it never falls.
func largestDip(ys []float64) float64 {
	dip := 0.0
	for i := 1; i < len(ys); i++ {
		dip = max(dip, ys[i-1]-ys[i])
	}
	return dip
}
