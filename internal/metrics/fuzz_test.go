package metrics

import (
	"math"
	"slices"
	"testing"
)

// fuzzRuns decodes FuzzBucketPercentile's sample bytes into runs over a
// histogram of n buckets each width wide. Byte 0xFF starts a new run, so
// repeated ones make empty runs; any other byte picks a sample kind and
// the byte after it places the sample: negative, exactly on a bucket edge
// (the range's upper edge, n·width, included), inside the range, at or
// past n·width, or zero.
func fuzzRuns(width float64, n int, b []byte) [][]float64 {
	runs := [][]float64{nil}
	for i := 0; i < len(b); i++ {
		if b[i] == 0xFF {
			runs = append(runs, nil)
			continue
		}
		kind, x := b[i]%5, 0.0
		if i+1 < len(b) {
			i++
			x = float64(b[i])
		}
		var v float64
		switch kind {
		case 0:
			v = -x * width / 8
		case 1:
			v = float64(int(x)*(n+1)/256) * width
		case 2:
			v = x / 256 * float64(n) * width
		case 3:
			v = float64(n) * width * (1 + x/64)
		}
		runs[len(runs)-1] = append(runs[len(runs)-1], v)
	}
	for _, r := range runs {
		slices.Sort(r)
	}
	return runs
}

// FuzzBucketPercentile checks BucketPercentile on sorted runs against the
// dense reference histogram fed the same samples: the same bucket edge at
// the drawn percentile (0 to 100 in hundredths) and at 0, 50, 95 and 100,
// and the same clamp count. Empty runs, and inputs with no sample at all,
// which must read 0, are in the seed corpus, as are zero and negative
// samples, samples on bucket edges, samples in the last bucket, and
// samples the histogram clamps.
func FuzzBucketPercentile(f *testing.F) {
	f.Add(uint8(1), uint16(8), uint16(9500), []byte{})
	f.Add(uint8(0), uint16(1), uint16(0), []byte{0xFF, 0xFF})
	f.Add(uint8(1), uint16(8), uint16(10000), []byte{4, 0, 0, 40, 0xFF, 1, 128, 2, 240, 1, 255, 0xFF, 0xFF, 3, 0, 3, 9})
	f.Add(uint8(2), uint16(100), uint16(5000), []byte{2, 10, 2, 200, 1, 64, 0xFF, 2, 10, 1, 64, 0, 7, 3, 200})
	f.Add(uint8(1), uint16(4095), uint16(9999), []byte{1, 255, 3, 0, 0xFF, 2, 255, 2, 254})
	f.Fuzz(func(t *testing.T, widthSel uint8, nRaw, pRaw uint16, data []byte) {
		width := []float64{0.5, 1, 10}[int(widthSel)%3]
		n := 1 + int(nRaw)%4096
		runs := fuzzRuns(width, n, data)
		ref := newDenseHistogram(width, n)
		for _, r := range runs {
			for _, v := range r {
				ref.Add(v)
			}
		}
		for _, p := range []float64{float64(pRaw%10001) / 100, 0, 50, 95, 100} {
			got, clamped := BucketPercentile(width, n, p, runs)
			if want := ref.Percentile(p); got != want || clamped != ref.clamped {
				t.Fatalf("width %v, %d buckets, p%v: %v with %d clamped, reference %v with %d (runs %v)",
					width, n, p, got, clamped, want, ref.clamped, runs)
			}
		}
	})
}

// FuzzMergedPercentile checks MergedPercentile on sorted runs against
// sorting the runs' samples together and indexing with Percentile, at the
// drawn percentile (0 to 100 in hundredths, or NaN) and at 0, 50, 95 and
// 100. The samples are fuzzRuns' (over one 1-wide bucket per byte value),
// so they include zero, negative samples, ties within and across runs and
// empty runs. The seed corpus holds no runs at all, only empty runs, one
// run, and ties across runs.
func FuzzMergedPercentile(f *testing.F) {
	f.Add(uint16(9500), []byte{})
	f.Add(uint16(5000), []byte{0xFF, 0xFF, 0xFF})
	f.Add(uint16(10000), []byte{2, 10, 2, 200, 1, 64, 4, 0})
	f.Add(uint16(0), []byte{1, 64, 1, 64, 0xFF, 1, 64, 0xFF, 0xFF, 1, 64, 2, 7})
	f.Add(uint16(10001), []byte{0, 9, 3, 1, 0xFF, 4, 0, 0, 200, 0xFF, 1, 128, 4, 4})
	f.Fuzz(func(t *testing.T, pRaw uint16, data []byte) {
		runs := fuzzRuns(1, 256, data)
		var all []float64
		for _, r := range runs {
			all = append(all, r...)
		}
		slices.Sort(all)
		p := float64(pRaw%10001) / 100
		if pRaw > 10000 {
			p = math.NaN()
		}
		for _, p := range []float64{p, 0, 50, 95, 100} {
			if got, want := MergedPercentile(runs, p), Percentile(all, p); got != want {
				t.Fatalf("p%v: %v, sorted and indexed %v (runs %v)", p, got, want, runs)
			}
		}
	})
}
