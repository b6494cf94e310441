package farm_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thinbench/internal/farm"
	"thinbench/internal/metrics"
	"thinbench/internal/simclock"
)

// shard is one session's private metrics set — the farm's lock-free
// aggregation unit.
type shard struct {
	stalls *metrics.Summary
	hist   *metrics.Histogram
	load   *metrics.Series
}

func newShard() *shard {
	return &shard{
		stalls: &metrics.Summary{},
		hist:   metrics.NewHistogram(5, 40),
		load:   metrics.NewSeries(simclock.Second),
	}
}

func (s *shard) merge(o *shard) {
	s.stalls.Merge(o.stalls)
	s.hist.Merge(o.hist)
	s.load.Merge(o.load)
}

// simulate is a miniature session: a private discrete-event clock and
// random stream, built from the session's seed, driving randomized
// observations into the session's shard.
func simulate(s *farm.Session) (*shard, error) {
	sh := newShard()
	rng := simclock.NewRand(s.Seed)
	clock := simclock.NewEngine()
	for i := 0; i < 64; i++ {
		at := simclock.Time(rng.UniformDuration(0, 10*simclock.Second))
		clock.At(at, func(now simclock.Time, _, _ int) {
			v := rng.Normal(60, 15)
			if v < 0 {
				v = 0
			}
			sh.stalls.Add(v)
			sh.hist.Add(v)
			sh.load.Add(now, 1)
		}, 0, 0)
	}
	clock.Drain(1000)
	return sh, nil
}

// aggregateAll runs sessions under the given worker count and folds every
// shard into one, in session order.
func aggregateAll(t *testing.T, sessions, workers int, seed uint64) *shard {
	t.Helper()
	shards, err := farm.Run(farm.Config{Sessions: sessions, Workers: workers, Seed: seed}, simulate)
	if err != nil {
		t.Fatal(err)
	}
	total := newShard()
	for _, sh := range shards {
		total.merge(sh)
	}
	return total
}

// TestDeterministicAcrossWorkerCounts is the farm's core guarantee: the
// same root seed produces bit-for-bit identical aggregated metrics whether
// sessions run on 1 worker or 8. Run under -race this also proves the
// aggregation path shares no unsynchronized state.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	const sessions = 64
	ref := aggregateAll(t, sessions, 1, 1999)
	for _, workers := range []int{2, 8} {
		got := aggregateAll(t, sessions, workers, 1999)
		if got.stalls.N() != ref.stalls.N() ||
			got.stalls.Mean() != ref.stalls.Mean() ||
			got.stalls.Variance() != ref.stalls.Variance() ||
			got.stalls.Min() != ref.stalls.Min() ||
			got.stalls.Max() != ref.stalls.Max() {
			t.Fatalf("workers=%d: summary diverged from sequential reference", workers)
		}
		for i := 0; i < ref.hist.Buckets(); i++ {
			if got.hist.Count(i) != ref.hist.Count(i) {
				t.Fatalf("workers=%d: histogram bucket %d = %d, want %d",
					workers, i, got.hist.Count(i), ref.hist.Count(i))
			}
		}
		for i := 0; i < ref.load.Len(); i++ {
			if got.load.At(i) != ref.load.At(i) {
				t.Fatalf("workers=%d: series bucket %d = %v, want %v",
					workers, i, got.load.At(i), ref.load.At(i))
			}
		}
	}
	// Different seeds must not collide.
	other := aggregateAll(t, sessions, 8, 2000)
	if other.stalls.Mean() == ref.stalls.Mean() && other.stalls.Variance() == ref.stalls.Variance() {
		t.Fatal("different root seeds produced identical aggregates")
	}
}

// TestManyTrulyConcurrentSessions proves the farm sustains 200+ sessions
// running simultaneously: every session blocks on a shared barrier that
// only releases once all of them are alive at once, so completion is
// impossible unless the pool really ran them concurrently.
func TestManyTrulyConcurrentSessions(t *testing.T) {
	const sessions = 224
	var barrier sync.WaitGroup
	barrier.Add(sessions)
	var peak atomic.Int64
	results, err := farm.Run(farm.Config{Sessions: sessions, Workers: sessions, Seed: 7},
		func(s *farm.Session) (uint64, error) {
			peak.Add(1)
			barrier.Done()
			barrier.Wait() // all sessions in flight at this point
			clock := simclock.NewEngine()
			clock.At(simclock.Time(simclock.Millisecond), func(simclock.Time, int, int) {}, 0, 0)
			clock.Drain(10)
			return s.Seed, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != sessions {
		t.Fatalf("%d sessions started, want %d", got, sessions)
	}
	seen := map[uint64]bool{}
	for i, seed := range results {
		if seed != simclock.DeriveSeed(7, uint64(i)) {
			t.Fatalf("session %d ran with seed %d, want derived seed", i, seed)
		}
		if seen[seed] {
			t.Fatalf("duplicate session seed %d", seed)
		}
		seen[seed] = true
	}
}

// TestRunResultsInSessionOrder: slot i always holds session i's result no
// matter which worker ran it or when it finished.
func TestRunResultsInSessionOrder(t *testing.T) {
	results, err := farm.Run(farm.Config{Sessions: 100, Workers: 8, Seed: 3},
		func(s *farm.Session) (int, error) {
			// Jitter completion order.
			for i := 0; i < int(s.Seed%1000); i++ {
				runtime.Gosched()
			}
			return s.Index * s.Index, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != i*i {
			t.Fatalf("slot %d holds %d, want %d", i, r, i*i)
		}
	}
}

// TestLowestIndexedErrorWins: with several failing sessions the farm
// reports the lowest index, so errors are reproducible under any
// scheduling; healthy sessions still run and their results come back.
func TestLowestIndexedErrorWins(t *testing.T) {
	fail := map[int]bool{3: true, 40: true, 77: true}
	for _, workers := range []int{1, 8} {
		results, err := farm.Run(farm.Config{Sessions: 80, Workers: workers, Seed: 5},
			func(s *farm.Session) (int, error) {
				if fail[s.Index] {
					return 0, fmt.Errorf("session %d exploded", s.Index)
				}
				return s.Index, nil
			})
		var ferr *farm.Error
		if !errors.As(err, &ferr) {
			t.Fatalf("workers=%d: error %v is not a *farm.Error", workers, err)
		}
		if ferr.Index != 3 {
			t.Fatalf("workers=%d: reported session %d, want lowest failing index 3", workers, ferr.Index)
		}
		if len(results) != 80 {
			t.Fatalf("workers=%d: %d results, want 80", workers, len(results))
		}
		for i, r := range results {
			if !fail[i] && r != i {
				t.Fatalf("workers=%d: healthy session %d returned %d", workers, i, r)
			}
		}
	}
}

func TestEmptyAndDegenerateConfigs(t *testing.T) {
	// Zero sessions: an explicit empty sweep — empty non-nil results, no
	// error, body never invoked.
	results, err := farm.Run(farm.Config{Sessions: 0}, func(*farm.Session) (int, error) {
		t.Error("body called for empty farm")
		return 1, nil
	})
	if err != nil || results == nil || len(results) != 0 {
		t.Fatalf("empty farm: results=%v err=%v, want empty slice and nil error", results, err)
	}
	// Negative sessions: always a caller bug (inverted range), rejected
	// loudly instead of silently running nothing.
	if _, err := farm.Run(farm.Config{Sessions: -4}, func(*farm.Session) (int, error) { return 1, nil }); err == nil {
		t.Fatal("Run accepted negative session count")
	}
	// Workers beyond Sessions and unset Workers both work.
	for _, w := range []int{0, 1000} {
		r, err := farm.Run(farm.Config{Sessions: 3, Workers: w},
			func(s *farm.Session) (int, error) { return s.Index, nil })
		if err != nil || len(r) != 3 {
			t.Fatalf("workers=%d: results=%v err=%v", w, r, err)
		}
	}
}

// burn is a CPU-bound session body for the speedup measurement.
func burn(s *farm.Session) (float64, error) {
	sum := 0.0
	for i := 0; i < 4_000_000; i++ {
		sum += math.Sqrt(float64(i ^ int(s.Seed&0xff)))
	}
	return sum, nil
}

// TestParallelSpeedup checks the point of the farm: on a multi-core
// machine, CPU-bound sessions across the pool finish at least 2x faster
// than on one worker. Skipped on boxes without enough cores to show it.
func TestParallelSpeedup(t *testing.T) {
	cores := runtime.GOMAXPROCS(0)
	if cores < 4 {
		t.Skipf("need >= 4 cores to demonstrate speedup, have %d", cores)
	}
	if testing.Short() {
		t.Skip("speedup measurement in -short mode")
	}
	const sessions = 16
	run := func(workers int) time.Duration {
		best := time.Duration(math.MaxInt64)
		for trial := 0; trial < 2; trial++ {
			start := time.Now()
			if _, err := farm.Run(farm.Config{Sessions: sessions, Workers: workers, Seed: 1}, burn); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	seq := run(1)
	par := run(cores)
	if par <= 0 {
		t.Fatal("parallel run took no time")
	}
	if ratio := float64(seq) / float64(par); ratio < 2 {
		t.Fatalf("parallel speedup %.2fx (seq=%v par=%v), want >= 2x", ratio, seq, par)
	}
}
