package bitmapcache

import (
	"testing"
	"testing/quick"
)

// Entry sizes as shares of the cache: pct is 1% of it, and a frame a
// tenth, so ten frames fit and eleven do not.
const (
	pct   = DefaultCapacity / 100
	frame = DefaultCapacity / 10
)

func TestHitAndMiss(t *testing.T) {
	c := New(LRU)
	if c.Lookup(1) {
		t.Fatal("empty cache hit")
	}
	c.Insert(1, 40*pct)
	if !c.Lookup(1) {
		t.Fatal("miss after insert")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Insertions != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if got := s.HitRatio(); got != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", got)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(LRU)
	c.Insert(1, 40*pct)
	c.Insert(2, 40*pct)
	// Touch 1 so 2 becomes LRU.
	c.Lookup(1)
	c.Insert(3, 40*pct) // must evict 2
	if !c.Contains(1) {
		t.Fatal("recently used entry evicted")
	}
	if c.Contains(2) {
		t.Fatal("LRU entry survived")
	}
	if !c.Contains(3) {
		t.Fatal("new entry missing")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	c := New(LRU)
	for k := Key(0); k < 50; k++ {
		c.Insert(k, 30*pct)
		if c.Used() > DefaultCapacity {
			t.Fatalf("used %d > capacity %d", c.Used(), DefaultCapacity)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	c := New(LRU)
	c.Insert(1, DefaultCapacity+1)
	if c.Contains(1) || c.Used() != 0 {
		t.Fatal("oversized entry was cached")
	}
}

func TestReinsertRefreshes(t *testing.T) {
	c := New(LRU)
	c.Insert(1, 40*pct)
	c.Insert(2, 40*pct)
	c.Insert(1, 40*pct) // refresh, no double count
	if c.Used() != 80*pct {
		t.Fatalf("used = %d, want %d", c.Used(), 80*pct)
	}
	c.Insert(3, 40*pct) // evicts 2, since 1 was refreshed
	if c.Contains(2) || !c.Contains(1) {
		t.Fatal("refresh did not update recency")
	}
}

func TestInsertPanicsOnBadSize(t *testing.T) {
	c := New(LRU)
	defer func() {
		if recover() == nil {
			t.Fatal("Insert(size=0) did not panic")
		}
	}()
	c.Insert(1, 0)
}

// The paper's Figure 7 pathology: a looping animation one entry larger than
// the cache misses on every single frame under LRU.
func TestLoopingAnimationDefeatsLRU(t *testing.T) {
	c := New(LRU)
	const frames = 11 // 11 frames > the cache: the loop exceeds it by one frame
	hits := 0
	for loop := 0; loop < 10; loop++ {
		for f := Key(0); f < frames; f++ {
			if c.Fetch(f, frame) {
				hits++
			}
		}
	}
	if hits != 0 {
		t.Fatalf("LRU got %d hits on an over-capacity loop, want 0", hits)
	}
}

// And the fix: loop-aware eviction keeps a stable prefix resident, so most
// of the loop hits even when it exceeds capacity.
func TestLoopAwareSurvivesOverCapacityLoop(t *testing.T) {
	c := New(LoopAware)
	const frames = 12
	var lateHits, lateTotal int
	for loop := 0; loop < 30; loop++ {
		for f := Key(0); f < frames; f++ {
			hit := c.Fetch(f, frame)
			if loop >= 20 { // measure steady state
				lateTotal++
				if hit {
					lateHits++
				}
			}
		}
	}
	ratio := float64(lateHits) / float64(lateTotal)
	if ratio < 0.5 {
		t.Fatalf("loop-aware steady-state hit ratio = %.2f, want >= 0.5", ratio)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLoopAwareDisengagesAfterLoopEnds(t *testing.T) {
	c := New(LoopAware)
	// Drive it into loop mode.
	for loop := 0; loop < 10; loop++ {
		for f := Key(0); f < 12; f++ {
			c.Fetch(f, frame)
		}
	}
	if !c.Stats().LoopMode {
		t.Fatal("loop mode never engaged")
	}
	// Now a working set that fits: fresh keys, then repeated hits.
	for f := Key(100); f < 105; f++ {
		c.Fetch(f, frame)
	}
	for i := 0; i < 100; i++ {
		for f := Key(100); f < 105; f++ {
			c.Fetch(f, frame)
		}
	}
	if c.Stats().LoopMode {
		t.Fatal("loop mode stuck on after loop ended")
	}
}

func TestFitLoopAllHitsAfterFirstPass(t *testing.T) {
	for _, p := range []Policy{LRU, LoopAware} {
		c := New(p)
		const frames = 10 // exactly fits
		misses := 0
		for loop := 0; loop < 5; loop++ {
			for f := Key(0); f < frames; f++ {
				if !c.Fetch(f, frame) {
					misses++
				}
			}
		}
		if misses != frames {
			t.Fatalf("%v: misses = %d, want %d (first pass only)", p, misses, frames)
		}
	}
}

func TestHitRatioDecaysOnOverflow(t *testing.T) {
	// Figure 6's cumulative ratio: UI bitmaps hit early (~70%), then an
	// over-capacity animation drives the cumulative ratio toward zero.
	c := New(LRU)
	// Prepopulate with UI chrome that keeps hitting.
	for k := Key(1000); k < 1010; k++ {
		c.Fetch(k, 2000)
	}
	for i := 0; i < 23; i++ {
		for k := Key(1000); k < 1010; k++ {
			c.Fetch(k, 2000)
		}
	}
	early := c.Stats().HitRatio()
	if early < 0.6 {
		t.Fatalf("early ratio = %.2f, want >= 0.6", early)
	}
	// 66 frames x 24 KB = 1.58 MB > 1.5 MB: overflows, loops forever.
	const frameBytes = 24 * 1024
	for loop := 0; loop < 40; loop++ {
		for f := Key(0); f < 66; f++ {
			c.Fetch(f, frameBytes)
		}
	}
	late := c.Stats().HitRatio()
	if late > early/2 {
		t.Fatalf("cumulative ratio %.2f did not decay from %.2f", late, early)
	}
}

func TestStatsReMisses(t *testing.T) {
	const half = DefaultCapacity / 2
	c := New(LRU)
	c.Fetch(1, half)
	c.Fetch(2, half)
	c.Fetch(3, half) // evicts 1
	c.Fetch(1, half) // re-miss
	if got := c.Stats().ReMisses; got != 1 {
		t.Fatalf("ReMisses = %d, want 1", got)
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "lru" || LoopAware.String() != "loop-aware" {
		t.Fatal("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy should stringify")
	}
}

// Property: invariants hold across arbitrary fetch sequences for both
// policies, with entries of 1-700 five-thousandths of the cache.
func TestInvariantsProperty(t *testing.T) {
	const unit = DefaultCapacity / 5000
	f := func(keys []uint16, policyBit bool) bool {
		policy := LRU
		if policyBit {
			policy = LoopAware
		}
		c := New(policy)
		for _, k := range keys {
			size := int64(1+int(k)%700) * unit
			c.Fetch(Key(k%97), size)
			if c.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
