// Package bitmapcache implements the client-side bitmap cache that gives the
// RDP-like protocol its decisive advantage on animated content (§6.1.3).
//
// Every cache has the paper's TSE client budget: 1.5 MB of memory, used
// for icons, button images, glyphs, and animation frames, evicted least
// recently used as that client does. The package also implements the
// "more intelligent scheme" the paper sketches — a loop-aware policy that
// detects the cyclic access patterns which defeat LRU (Figure 7's cliff)
// and switches to MRU-style eviction within the loop, the same remedy file
// systems apply to sequential scans.
package bitmapcache

import (
	"container/list"
	"fmt"
)

// Key identifies cached content, normally a bitmap content hash.
type Key uint64

// The cache's size and the loop detector's settings.
const (
	// DefaultCapacity is the TSE client's bitmap cache size, 1.5 MB.
	DefaultCapacity = 1536 * 1024
	// seenLimit bounds the keys remembered for re-miss detection: beyond
	// it, aging resets the set. Workloads here are far smaller.
	seenLimit = 1 << 20
	// detectorWindow is how many recent lookups the loop detector weighs,
	// and loopThreshold the share of re-misses among them that engages
	// loop mode.
	detectorWindow = 32
	loopThreshold  = 0.5
)

// Policy selects the eviction behavior.
type Policy int

// Eviction policies.
const (
	// LRU is the TSE client's policy: evict the least recently used entry.
	LRU Policy = iota
	// LoopAware detects cyclic re-miss patterns and freezes the cache while
	// a loop is active: new entries bypass the cache instead of evicting
	// the resident prefix of the loop, so most of the loop keeps hitting.
	LoopAware
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case LoopAware:
		return "loop-aware"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

type entry struct {
	key  Key
	size int64
}

// Stats counts cache activity.
type Stats struct {
	Hits       int64
	Misses     int64
	ReMisses   int64 // misses on keys that were previously cached (thrash signal)
	Insertions int64
	Evictions  int64
	LoopMode   bool // whether loop-aware eviction is currently engaged
}

// HitRatio is the cumulative hit ratio, the metric of the paper's Figure 6.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a bitmap cache of DefaultCapacity bytes.
type Cache struct {
	used   int64
	policy Policy

	// OnEvict, if set, observes every eviction. The RDP server uses it to
	// recycle cache slots in its client-cache directory.
	OnEvict func(Key)

	order   *list.List // front = most recent
	entries map[Key]*list.Element

	// seen tracks keys that have ever been inserted, to recognize re-misses
	// (the signature of a loop that exceeds capacity), up to seenLimit.
	seen map[Key]struct{}

	// Loop detection: a sliding window over recent lookups; when the
	// fraction that are re-misses (misses on previously-cached keys)
	// crosses loopThreshold, loop mode engages. Hits push the fraction
	// back down, so the detector disengages when the loop ends.
	recentLookups [detectorWindow]bool // true = re-miss
	recentPos     int
	loopMode      bool

	stats Stats
}

// New builds a DefaultCapacity cache with the given policy.
func New(policy Policy) *Cache {
	return &Cache{
		policy:  policy,
		order:   list.New(),
		entries: make(map[Key]*list.Element),
		seen:    make(map[Key]struct{}),
	}
}

// Reset returns the cache to its freshly constructed state — no entries,
// zeroed counters, disengaged loop detector — while retaining the maps for
// reuse, so a session pool can recycle a codec's cache without
// reallocating it. Evictions implied by the reset do not fire OnEvict; the
// owner is expected to reset its own directory alongside.
func (c *Cache) Reset() {
	c.used = 0
	c.order.Init()
	clear(c.entries)
	clear(c.seen)
	c.recentLookups = [detectorWindow]bool{}
	c.recentPos = 0
	c.loopMode = false
	c.stats = Stats{}
}

// Used reports bytes currently cached.
func (c *Cache) Used() int64 { return c.used }

// Len reports the number of cached entries.
func (c *Cache) Len() int { return c.order.Len() }

// Policy reports the eviction policy.
func (c *Cache) Policy() Policy { return c.policy }

// Stats reports cumulative counters.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.LoopMode = c.loopMode
	return s
}

// Contains reports whether key is cached, without touching recency or stats.
func (c *Cache) Contains(key Key) bool {
	_, ok := c.entries[key]
	return ok
}

// Lookup checks for key, promoting it on hit. On miss it records the miss
// (and re-miss, when the key had been cached before) and returns false.
// The caller is expected to transfer the content and Insert it.
func (c *Cache) Lookup(key Key) bool {
	if el, ok := c.entries[key]; ok {
		c.stats.Hits++
		c.order.MoveToFront(el)
		c.noteLookup(false)
		return true
	}
	c.stats.Misses++
	_, re := c.seen[key]
	if re {
		c.stats.ReMisses++
	}
	c.noteLookup(re)
	return false
}

// Insert caches content of the given size, evicting per policy until it
// fits. Content larger than the whole cache is not cached at all (matching
// how real bitmap caches reject oversized entries).
func (c *Cache) Insert(key Key, size int64) {
	if size <= 0 {
		panic("bitmapcache: insert of non-positive size")
	}
	if size > DefaultCapacity {
		return
	}
	if el, ok := c.entries[key]; ok {
		// Refresh: same key re-inserted (content already cached).
		c.order.MoveToFront(el)
		return
	}
	if c.policy == LoopAware && c.loopMode && c.used+size > DefaultCapacity {
		// Freeze: caching this entry would evict part of the detected
		// loop's resident prefix, trading a future hit for a future miss.
		// Bypass instead.
		return
	}
	for c.used+size > DefaultCapacity {
		c.evictOne()
	}
	el := c.order.PushFront(entry{key: key, size: size})
	c.entries[key] = el
	c.used += size
	c.stats.Insertions++
	if len(c.seen) >= seenLimit {
		c.seen = make(map[Key]struct{})
	}
	c.seen[key] = struct{}{}
}

// evictOne removes the least recently used entry.
func (c *Cache) evictOne() {
	el := c.order.Back()
	if el == nil {
		panic("bitmapcache: eviction from empty cache")
	}
	e := el.Value.(entry)
	c.order.Remove(el)
	delete(c.entries, e.key)
	c.used -= e.size
	c.stats.Evictions++
	if c.OnEvict != nil {
		c.OnEvict(e.key)
	}
}

// noteLookup updates the loop detector with one lookup observation.
func (c *Cache) noteLookup(reMiss bool) {
	if c.policy != LoopAware {
		return
	}
	c.recentLookups[c.recentPos] = reMiss
	c.recentPos = (c.recentPos + 1) % detectorWindow
	re := 0
	for _, r := range c.recentLookups {
		if r {
			re++
		}
	}
	frac := float64(re) / detectorWindow
	// Hysteresis: engage when re-misses dominate the window; disengage only
	// when a full window passes with no re-miss at all. While the loop
	// runs, its non-resident tail keeps re-missing every cycle, holding the
	// mode on; once the loop stops, re-misses cease and the mode drops.
	if !c.loopMode && frac >= loopThreshold {
		c.loopMode = true
	} else if c.loopMode && re == 0 {
		c.loopMode = false
	}
}

// Fetch is the common lookup-or-insert pattern: it returns true on hit;
// on miss it inserts the entry and returns false.
func (c *Cache) Fetch(key Key, size int64) bool {
	if c.Lookup(key) {
		return true
	}
	c.Insert(key, size)
	return false
}

// CheckInvariants validates accounting: used bytes equal the sum of entry
// sizes, the map and list agree, and capacity is respected.
func (c *Cache) CheckInvariants() error {
	var sum int64
	n := 0
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(entry)
		sum += e.size
		n++
		if got, ok := c.entries[e.key]; !ok || got != el {
			return fmt.Errorf("bitmapcache: map/list disagreement for key %d", e.key)
		}
	}
	if n != len(c.entries) {
		return fmt.Errorf("bitmapcache: list has %d entries, map %d", n, len(c.entries))
	}
	if sum != c.used {
		return fmt.Errorf("bitmapcache: used=%d but entries sum to %d", c.used, sum)
	}
	if c.used > DefaultCapacity {
		return fmt.Errorf("bitmapcache: used %d exceeds capacity %d", c.used, DefaultCapacity)
	}
	return nil
}
