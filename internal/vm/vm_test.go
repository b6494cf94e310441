package vm

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"thinbench/internal/simclock"
)

func smallConfig() Config {
	return Config{
		PhysicalKB:   64, // 16 frames of 4 KB
		ClusterPages: 4,
	}
}

func TestTouchFaultsOnlyOnce(t *testing.T) {
	m := New(smallConfig())
	p := m.NewProcess("p", 16)
	if !m.Touch(p, 0) {
		t.Fatal("first touch should fault")
	}
	if m.Touch(p, 0) {
		t.Fatal("second touch should hit")
	}
	if p.Resident() != 1 {
		t.Fatalf("resident = %d, want 1", p.Resident())
	}
	if got := m.Stats().Faults; got != 1 {
		t.Fatalf("faults = %d, want 1", got)
	}
}

func TestTouchAllAndSpan(t *testing.T) {
	m := New(smallConfig())
	p := m.NewProcess("p", 32) // 8 pages
	if f := m.TouchAll(p); f != 8 {
		t.Fatalf("TouchAll faults = %d, want 8", f)
	}
	if f := m.TouchAll(p); f != 0 {
		t.Fatalf("second TouchAll faults = %d, want 0", f)
	}
	m.Evict(p, 2)
	m.Evict(p, 3)
	// Span covering pages 2..3 (KB 8..16).
	if f := m.TouchSpan(p, 8, 8); f != 2 {
		t.Fatalf("TouchSpan faults = %d, want 2", f)
	}
}

func TestTouchOutOfRangePanics(t *testing.T) {
	m := New(smallConfig())
	p := m.NewProcess("p", 8)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range touch did not panic")
		}
	}()
	m.Touch(p, 99)
}

func TestEvictionWhenFull(t *testing.T) {
	m := New(smallConfig()) // 16 frames
	a := m.NewProcess("a", 64)
	b := m.NewProcess("b", 64)
	m.TouchAll(a) // fills memory
	if m.FreePages() != 0 {
		t.Fatalf("free = %d, want 0", m.FreePages())
	}
	m.TouchAll(b) // forces eviction of a
	if a.Resident()+b.Resident() != m.TotalPages() {
		t.Fatalf("resident %d+%d != total %d", a.Resident(), b.Resident(), m.TotalPages())
	}
	if m.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPinnedNeverEvicted: the system baseline is resident from the start
// and no eviction or release frees it; a hog streaming through every
// pageable frame owns all of them and none of the reservation.
func TestPinnedNeverEvicted(t *testing.T) {
	cfg := smallConfig()
	cfg.SystemKB = 22 // 6 of 16 pages, rounded up
	m := New(cfg)
	if m.TotalPages() != 16 || m.FreePages() != 10 {
		t.Fatalf("total %d free %d pages, want 16 and 10", m.TotalPages(), m.FreePages())
	}
	hog := m.NewProcess("hog", 256)
	m.TouchAll(hog)
	m.TouchAll(hog)
	if hog.Resident() != 10 || m.FreePages() != 0 {
		t.Fatalf("hog resident %d with %d pages free, want all 10 pageable frames", hog.Resident(), m.FreePages())
	}
	m.EvictAll(hog)
	if reserved := m.TotalPages() - m.FreePages(); reserved != 6 {
		t.Fatalf("%d pages held after every process left, want the 6 reserved", reserved)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAllPinnedPanics: a system baseline that leaves no pageable frame,
// or a negative one, is a configuration Validate rejects and New refuses.
func TestAllPinnedPanics(t *testing.T) {
	for _, kb := range []int{64, 61, 100, -1024} {
		cfg := smallConfig()
		cfg.SystemKB = kb
		if cfg.Validate() == nil {
			t.Fatalf("SystemKB %d of 64 KB validated", kb)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New with SystemKB %d of 64 KB did not panic", kb)
				}
			}()
			New(cfg)
		}()
	}
	cfg := smallConfig()
	cfg.SystemKB = 60 // 15 of 16 pages: one stays pageable
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	m := New(cfg)
	p := m.NewProcess("p", 8)
	m.TouchAll(p)
	if p.Resident() != 1 {
		t.Fatalf("two-page process on one pageable frame: resident %d, want 1", p.Resident())
	}
}

func TestClockSecondChance(t *testing.T) {
	cfg := smallConfig()
	m := New(cfg)
	a := m.NewProcess("a", 32) // 8 pages
	b := m.NewProcess("b", 64) // 16 pages
	m.TouchAll(a)
	// Fill the rest with b, then keep streaming b. a's pages are
	// referenced; they survive the first sweep but fall on later ones.
	m.TouchAll(b)
	m.TouchAll(b)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if a.Resident()+b.Resident() != m.TotalPages() {
		t.Fatal("accounting broken after clock churn")
	}
}

func TestInteractiveReservation(t *testing.T) {
	cfg := smallConfig()
	cfg.ReserveInteractive = true
	m := New(cfg)
	editor := m.NewProcess("editor", 24) // 6 pages, interactive
	editor.Interactive = true
	m.TouchAll(editor)
	hog := m.NewProcess("hog", 512)
	m.TouchAll(hog)
	m.TouchAll(hog)
	if editor.Resident() != 6 {
		t.Fatalf("reservation failed: editor resident = %d, want 6", editor.Resident())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReservationFallbackWhenOnlyInteractiveLeft(t *testing.T) {
	cfg := smallConfig()
	cfg.ReserveInteractive = true
	m := New(cfg)
	editor := m.NewProcess("editor", 64) // claims everything, interactive
	editor.Interactive = true
	m.TouchAll(editor)
	hog := m.NewProcess("hog", 8)
	// Nothing but interactive pages exist; the hog must still make progress.
	if !m.Touch(hog, 0) {
		t.Fatal("expected a fault")
	}
	if hog.Resident() != 1 {
		t.Fatal("hog failed to allocate despite fallback")
	}
}

func TestHogThrottleSelfEvicts(t *testing.T) {
	cfg := smallConfig()
	cfg.HogFrameLimit = 0.25 // at most 4 of 16 frames
	m := New(cfg)
	editor := m.NewProcess("editor", 24)
	editor.Interactive = true
	m.TouchAll(editor)
	hog := m.NewProcess("hog", 512)
	m.TouchAll(hog)
	if hog.Resident() > 4 {
		t.Fatalf("throttled hog owns %d frames, limit 4", hog.Resident())
	}
	if editor.Resident() != 6 {
		t.Fatalf("editor lost pages to a throttled hog: %d/6 resident", editor.Resident())
	}
	if m.Stats().SelfEvict == 0 {
		t.Fatal("no self-evictions recorded")
	}
}

func TestEvictAllReleasesFrames(t *testing.T) {
	m := New(smallConfig())
	p := m.NewProcess("p", 32)
	m.TouchAll(p)
	free := m.FreePages()
	m.EvictAll(p)
	if p.Resident() != 0 {
		t.Fatal("EvictAll left resident pages")
	}
	if m.FreePages() != free+8 {
		t.Fatalf("free pages = %d, want %d", m.FreePages(), free+8)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsReleasedList corrupts the released list each way
// CheckInvariants must catch: a listed frame that is owned or not below
// the cursor, a cycle, and a count that disagrees with the list. It
// corrupts an owned frame's slot each way too: a slot in no process's
// chunk, one in the process's chunk past its pages, one whose page the
// page table maps elsewhere, and an owned frame past the cursor.
func TestCheckInvariantsReleasedList(t *testing.T) {
	build := func() *Manager {
		m := New(smallConfig())
		p := m.NewProcess("p", 32)
		m.TouchAll(p) // frames 0-7
		for _, i := range []int{1, 2, 3} {
			m.Evict(p, i) // the list runs frame 3, 2, 1
		}
		return m
	}
	if err := build().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, want string
		corrupt    func(m *Manager)
	}{
		{"a list that links to owned frame 0", "owned", func(m *Manager) { m.frames[2] = 1 }},
		{"a list past the cursor", "not below the cursor", func(m *Manager) { m.free = 12 }},
		{"a cyclic list", "cyclic", func(m *Manager) { m.frames[1] = 4 }},
		{"a short count", "its count", func(m *Manager) { m.nfree-- }},
		{"a long count", "its count", func(m *Manager) { m.nfree++ }},
		{"frame 0 naming the second chunk's first slot", "past the last chunk", func(m *Manager) { m.frames[0] = ownedBit | chunkSlots }},
		{"frame 0 naming page 100 of 8", "out-of-range page", func(m *Manager) { m.frames[0] = ownedBit | 100 }},
		{"frame 0 naming page 4, in frame 4", "disagree", func(m *Manager) { m.frames[0] = ownedBit | refBit | 4 }},
		{"an owned frame past the cursor", "past the cursor", func(m *Manager) { m.frames[12] = ownedBit }},
	} {
		m := build()
		c.corrupt(m)
		if err := m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

// TestFrameAndSlotBounds: Validate takes 2^30 - 1 pageable frames, the
// most a released frame's link can name, and refuses one more, with or
// without a system baseline; NewProcess refuses a process whose pages run
// one slot past the slot space before it makes its page table. Nothing
// here builds a frame table or a page table.
func TestFrameAndSlotBounds(t *testing.T) {
	cfg := smallConfig()
	for _, c := range []struct {
		physical, system int // pages
		ok               bool
	}{
		{maxFrames, 0, true},
		{maxFrames + 1, 0, false},
		{maxFrames + 5, 5, true},
		{maxFrames + 5, 4, false},
	} {
		cfg.PhysicalKB, cfg.SystemKB = c.physical*PageKB, c.system*PageKB
		if err := cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%d pages less %d pinned: Validate = %v, want ok %v", c.physical, c.system, err, c.ok)
		}
	}

	m := New(smallConfig())
	for _, c := range []struct {
		before, pages int // processes made first, and the size asked for
	}{
		{0, maxSlots + 1},
		{1, maxSlots - chunkSlots + 1},
	} {
		for range c.before {
			m.NewProcess("p", 4)
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "slot space") {
					t.Errorf("a %d-page process after %d: NewProcess panicked with %v, want the slot space named", c.pages, len(m.procs), r)
				}
			}()
			m.NewProcess("big", c.pages*PageKB)
		}()
	}
}

func TestFaultCostClustering(t *testing.T) {
	m := New(smallConfig()) // seek 8ms, page 0.5ms, cluster 4
	if got := m.FaultCost(0); got != 0 {
		t.Fatalf("FaultCost(0) = %v, want 0", got)
	}
	// 8 faults = 2 clusters: 2*8ms + 8*0.5ms = 20ms.
	if got := m.FaultCost(8); got != 20*simclock.Millisecond {
		t.Fatalf("FaultCost(8) = %v, want 20ms", got)
	}
	// 9 faults = 3 clusters: 24 + 4.5 = 28.5ms.
	if got := m.FaultCost(9); got != simclock.Duration(28500) {
		t.Fatalf("FaultCost(9) = %v, want 28.5ms", got)
	}
}

func TestFreeKBAndResidentKB(t *testing.T) {
	m := New(smallConfig())
	p := m.NewProcess("p", 16)
	m.TouchAll(p)
	if m.ResidentKB(p) != 16 {
		t.Fatalf("ResidentKB = %d, want 16", m.ResidentKB(p))
	}
	if m.FreeKB() != 64-16 {
		t.Fatalf("FreeKB = %d, want 48", m.FreeKB())
	}
}

var sinkManager *Manager

// TestNoAllocationAfterNew pins the frame table's allocation contract: a
// frame is 4 bytes, New makes the Manager and its one frame table at any
// size, and no fault, release or reclaim allocates, a fresh manager's
// first release included. Each measured run gets its own manager, built
// and brought to the case's starting state outside the measured closure.
func TestNoAllocationAfterNew(t *testing.T) {
	if size := unsafe.Sizeof(frame(0)); size != 4 {
		t.Fatalf("a frame is %d bytes, want 4", size)
	}
	for _, kb := range []int{64, 48 * 1024} {
		cfg := smallConfig()
		cfg.PhysicalKB = kb
		if a := testing.AllocsPerRun(20, func() { sinkManager = New(cfg) }); a != 2 {
			t.Fatalf("New(%d KB) costs %v allocations, want 2: the Manager and its frame table", kb, a)
		}
	}

	// Each case builds its processes on a 16-frame manager, brings it to
	// the starting state, and returns the measured op and a check that
	// the op took the path the case names.
	type prepared struct {
		op    func()
		check func() error
	}
	cases := []struct {
		name    string
		cfg     func(*Config)
		prepare func(m *Manager) prepared
	}{
		{"fill", nil, func(m *Manager) prepared {
			p := m.NewProcess("p", 64)
			return prepared{func() { m.TouchAll(p) }, func() error {
				return wantFree(m, 0)
			}}
		}},
		{"first release", nil, func(m *Manager) prepared {
			p := m.NewProcess("p", 64)
			m.TouchAll(p)
			return prepared{func() { m.EvictAll(p) }, func() error {
				return wantFree(m, 16)
			}}
		}},
		{"refill", nil, func(m *Manager) prepared {
			p, q := m.NewProcess("p", 48), m.NewProcess("q", 64)
			m.TouchAll(p)
			m.EvictAll(p)
			return prepared{func() { m.TouchAll(q) }, func() error {
				return wantFree(m, 0)
			}}
		}},
		{"release again", nil, func(m *Manager) prepared {
			p, q := m.NewProcess("p", 48), m.NewProcess("q", 64)
			m.TouchAll(p)
			m.EvictAll(p)
			m.TouchAll(q)
			return prepared{func() { m.EvictAll(q) }, func() error {
				return wantFree(m, 16)
			}}
		}},
		{"clock reclaim", nil, func(m *Manager) prepared {
			p, q := m.NewProcess("p", 64), m.NewProcess("q", 32)
			m.TouchAll(p)
			return prepared{func() { m.TouchAll(q) }, func() error {
				if m.Stats().ClockSweep == 0 || q.Resident() != 8 {
					return fmt.Errorf("clock swept %d frames for %d of q's 8 pages", m.Stats().ClockSweep, q.Resident())
				}
				return nil
			}}
		}},
		{"interactive fallback", func(c *Config) { c.ReserveInteractive = true }, func(m *Manager) prepared {
			editor, hog := m.NewProcess("editor", 64), m.NewProcess("hog", 4)
			editor.Interactive = true
			m.TouchAll(editor)
			return prepared{func() { m.TouchAll(hog) }, func() error {
				if hog.Resident() != 1 || editor.Resident() != 15 {
					return fmt.Errorf("hog resident %d, editor %d; want 1 and 15", hog.Resident(), editor.Resident())
				}
				return nil
			}}
		}},
		{"hog throttle", func(c *Config) { c.HogFrameLimit = 0.25 }, func(m *Manager) prepared {
			hog := m.NewProcess("hog", 128)
			return prepared{func() { m.TouchAll(hog) }, func() error {
				if m.Stats().SelfEvict == 0 || hog.Resident() != 4 {
					return fmt.Errorf("%d self-evictions, hog resident %d; want some and 4", m.Stats().SelfEvict, hog.Resident())
				}
				return nil
			}}
		}},
	}
	const runs = 10
	for _, tc := range cases {
		cfg := smallConfig()
		if tc.cfg != nil {
			tc.cfg(&cfg)
		}
		// AllocsPerRun makes one warm-up call before the runs it counts.
		ms := make([]*Manager, runs+1)
		ps := make([]prepared, runs+1)
		for i := range ms {
			ms[i] = New(cfg)
			ps[i] = tc.prepare(ms[i])
		}
		next := 0
		if a := testing.AllocsPerRun(runs, func() { ps[next].op(); next++ }); a != 0 {
			t.Errorf("%s: %v allocations per run, want 0", tc.name, a)
		}
		if next != runs+1 {
			t.Fatalf("%s: %d of %d managers used", tc.name, next, runs+1)
		}
		for i, m := range ms {
			if err := ps[i].check(); err != nil {
				t.Errorf("%s, manager %d: %v", tc.name, i, err)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Errorf("%s, manager %d: %v", tc.name, i, err)
			}
		}
	}
}

// wantFree reports an error unless m has n pages free.
func wantFree(m *Manager, n int) error {
	if got := m.FreePages(); got != n {
		return fmt.Errorf("%d pages free, want %d", got, n)
	}
	return nil
}

// Property: under arbitrary touch/evict interleavings, the frame accounting
// invariants hold.
func TestInvariantsUnderRandomOps(t *testing.T) {
	f := func(ops []uint16, seed uint64) bool {
		cfg := smallConfig()
		cfg.PhysicalKB = 128
		m := New(cfg)
		procs := []*Process{
			m.NewProcess("a", 96),
			m.NewProcess("b", 200),
			m.NewProcess("c", 64),
		}
		procs[0].Interactive = true
		for _, op := range ops {
			p := procs[int(op)%len(procs)]
			page := (int(op) / 4) % p.Pages()
			switch (op >> 13) % 3 {
			case 0, 1:
				m.Touch(p, page)
			case 2:
				m.Evict(p, page)
			}
		}
		return m.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// systemConfig is DefaultConfig with a systemKB baseline.
func systemConfig(systemKB int) Config {
	cfg := DefaultConfig()
	cfg.SystemKB = systemKB
	return cfg
}

// TestPagingScenarioLowDemand: below 100% demand, tab3's streamer (0.35
// of a 64 MB machine, 22.4 MB) fits beside either system's editor (9.8 MB
// Linux, 5.8 MB TSE) in the 47 or 45 MB its baseline leaves pageable, so
// the randomized repaint faults nothing and every run answers in the flat
// 50 ms.
func TestPagingScenarioLowDemand(t *testing.T) {
	tse := systemConfig(19 * 1024)
	tse.ClusterPages = 2
	for _, s := range []PagingScenario{
		{Config: systemConfig(17 * 1024), EditorKB: 9800, HogFactor: 0.35, TouchFloor: 0.10},
		{Config: tse, EditorKB: 5800, HogFactor: 0.35, TouchFloor: 0.45},
	} {
		for seed := uint64(1); seed <= 10; seed++ {
			for i, res := range s.RunN(10, seed) {
				if res.EditorFaults != 0 || res.Latency != BaseResponse {
					t.Fatalf("%d KB editor, seed %d, run %d: %d faults in %v, want 0 in exactly %v",
						s.EditorKB, seed, i, res.EditorFaults, res.Latency, BaseResponse)
				}
			}
		}
	}
}

func TestPagingScenarioHighDemand(t *testing.T) {
	s := PagingScenario{
		Config:     systemConfig(17 * 1024),
		EditorKB:   4 * 1024,
		HogFactor:  1.2,
		TouchFloor: 0.1,
	}
	res := s.Run(simclock.NewRand(1))
	if res.EditorEvicted == 0 {
		t.Fatal("streamer failed to evict the editor")
	}
	if res.Latency <= 100*simclock.Millisecond {
		t.Fatalf("high demand latency = %v, want well beyond perception threshold", res.Latency)
	}
	if res.HogTouches == 0 {
		t.Fatal("hog did no work")
	}
}

func TestPagingScenarioReservationFixes(t *testing.T) {
	base := PagingScenario{
		Config:     systemConfig(17 * 1024),
		EditorKB:   4 * 1024,
		HogFactor:  1.2,
		TouchFloor: 0.1,
	}
	fixed := base
	fixed.Config.ReserveInteractive = true
	if res := fixed.Run(simclock.NewRand(1)); res.Latency != BaseResponse {
		t.Fatalf("reservation run latency = %v, want %v", res.Latency, BaseResponse)
	}
	throttled := base
	throttled.Config.HogFrameLimit = 0.5
	if res := throttled.Run(simclock.NewRand(1)); res.Latency != BaseResponse {
		t.Fatalf("throttled run latency = %v, want %v", res.Latency, BaseResponse)
	}
}

func TestPagingScenarioRunNSpread(t *testing.T) {
	s := PagingScenario{
		Config:     systemConfig(17 * 1024),
		EditorKB:   4 * 1024,
		HogFactor:  1.2,
		TouchFloor: 0.1,
	}
	results := s.RunN(10, 42)
	if len(results) != 10 {
		t.Fatalf("RunN returned %d results", len(results))
	}
	min, max := results[0].Latency, results[0].Latency
	for _, r := range results {
		if r.Latency < min {
			min = r.Latency
		}
		if r.Latency > max {
			max = r.Latency
		}
	}
	if max <= min {
		t.Fatal("RunN produced no spread; randomization is broken")
	}
	if float64(max) < 1.5*float64(min) {
		t.Fatalf("spread too tight: min=%v max=%v", min, max)
	}
}

// streamEveryTouch is the streamer's loop without the stop after a
// faultless pass: every touch of the budget is made. It is the reference
// streamHog must match.
func streamEveryTouch(m *Manager, hog *Process) int {
	perFault := SwapSeek/StreamClusterPages + SwapPage
	budget := HogSeconds * simclock.Second
	var elapsed simclock.Duration
	touches := 0
	for page := 0; elapsed < budget; page++ {
		if page == hog.Pages() {
			page = 0
		}
		if m.Touch(hog, page) {
			elapsed += perFault
		} else {
			elapsed += simclock.Microsecond
		}
		touches++
	}
	return touches
}

// TestStreamStopsExactly: stopping the streamer once a whole pass hits
// leaves every result field as the full loop makes it, on both sides of
// the point where the hog region outgrows memory, with and without the
// reservation and throttling policies.
func TestStreamStopsExactly(t *testing.T) {
	// A 25 MB machine with 17 MB pinned and a 4 MB editor leaves the hog
	// 4 MB: a 0.1 hog (2.5 MB) finishes a faultless pass inside the 30 s
	// budget, and 0.3 and up outgrow it.
	machine := systemConfig(17 * 1024)
	machine.PhysicalKB = 25 * 1024
	base := PagingScenario{Config: machine, EditorKB: 4 * 1024, TouchFloor: 0.1}
	reserve := base
	reserve.Config.ReserveInteractive = true
	throttle := base
	throttle.Config.HogFrameLimit = 0.4
	for _, sc := range []PagingScenario{base, reserve, throttle} {
		for hog := 0.1; hog <= 1.5; hog += 0.2 {
			sc.HogFactor = hog
			for seed := uint64(1); seed <= 2; seed++ {
				got := sc.Run(simclock.NewRand(seed))
				want := sc.run(simclock.NewRand(seed), streamEveryTouch)
				if got != want {
					t.Fatalf("hog factor %.1f, seed %d: stopped stream %+v, full loop %+v", hog, seed, got, want)
				}
			}
		}
	}
}

func TestScenarioDeterminism(t *testing.T) {
	s := PagingScenario{
		Config:     systemConfig(17 * 1024),
		EditorKB:   4 * 1024,
		HogFactor:  1.2,
		TouchFloor: 0.1,
	}
	a := s.RunN(5, 7)
	b := s.RunN(5, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run %d differs between identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// FuzzPagingScenario runs the §5.2 scenario on small machines: up to
// 16 MB, any pinned baseline that leaves a page pageable, 1-8 pages a
// page-in seek, an editor up to the machine's size, a hog of 0.05-2x
// memory, any touch floor, and no policy, reservation or the 0.4
// throttle. The frame table's invariants hold after the streamer and
// after the keystroke; the keystroke answers in exactly BaseResponse when
// it faulted nothing and later when it faulted, faults at most
// 1 + RefaultSpread times the editor's pages, and faults nothing when the
// hog and the editor fit in pageable memory together; and the same
// inputs give the same result.
func FuzzPagingScenario(f *testing.F) {
	// tab3's Linux editor (8 pages a seek, floor 0.10) on a 16 MB machine,
	// at hog 1.2 and at 0.35.
	f.Add(uint16(4080), uint16(1088), uint8(7), uint16(2450*PageKB), uint8(147), uint8(26), uint8(0), uint64(1999))
	f.Add(uint16(4080), uint16(1088), uint8(7), uint16(2450*PageKB), uint8(38), uint8(26), uint8(0), uint64(1))
	// TSE's editor (2 pages a seek, floor 0.45) under the reservation, and
	// a small editor under the throttle.
	f.Add(uint16(1000), uint16(300), uint8(1), uint16(1450*PageKB), uint8(147), uint8(115), uint8(1), uint64(2))
	f.Add(uint16(1000), uint16(300), uint8(1), uint16(200*PageKB), uint8(147), uint8(115), uint8(2), uint64(3))
	// The smallest machine: 16 pages, 15 pinned, a 1 KB editor.
	f.Add(uint16(0), uint16(15), uint8(0), uint16(0), uint8(0), uint8(0), uint8(0), uint64(0))
	f.Fuzz(func(t *testing.T, physPages, sysPages uint16, cluster uint8, editorKB uint16, hog, floor, policy uint8, seed uint64) {
		pages := 16 + int(physPages)%4081
		cfg := Config{
			PhysicalKB:   pages * PageKB,
			SystemKB:     int(sysPages) % pages * PageKB,
			ClusterPages: 1 + int(cluster)%8,
		}
		switch policy % 3 {
		case 1:
			cfg.ReserveInteractive = true
		case 2:
			cfg.HogFrameLimit = 0.4
		}
		s := PagingScenario{
			Config:     cfg,
			EditorKB:   1 + int(editorKB)%cfg.PhysicalKB,
			HogFactor:  0.05 + float64(hog)/128,
			TouchFloor: float64(floor) / 255,
		}
		var m *Manager
		streamChecked := func(mm *Manager, p *Process) int {
			m = mm
			n := streamHog(mm, p)
			if err := mm.CheckInvariants(); err != nil {
				t.Fatalf("after the streamer: %v", err)
			}
			return n
		}
		res := s.run(simclock.NewRand(seed), streamChecked)
		if m == nil {
			t.Fatalf("%+v: no streamer ran", s)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("after the keystroke: %v", err)
		}
		if res.EditorFaults == 0 && res.Latency != BaseResponse {
			t.Fatalf("%+v: no fault, yet %v, want exactly %v", s, res.Latency, BaseResponse)
		}
		if res.EditorFaults > 0 && res.Latency <= BaseResponse {
			t.Fatalf("%+v: %d faults in %v, want more than %v", s, res.EditorFaults, res.Latency, BaseResponse)
		}
		editorPages := pagesFor(s.EditorKB)
		if float64(res.EditorFaults) > (1+RefaultSpread)*float64(editorPages) {
			t.Fatalf("%+v: %d faults, over %.1f x the editor's %d pages", s, res.EditorFaults, 1+RefaultSpread, editorPages)
		}
		hogPages := pagesFor(int(s.HogFactor * float64(cfg.PhysicalKB)))
		if hogPages+editorPages <= m.TotalPages()-pagesFor(cfg.SystemKB) && res.EditorFaults != 0 {
			t.Fatalf("%+v: the %d-page hog and %d-page editor fit, yet %d faults", s, hogPages, editorPages, res.EditorFaults)
		}
		if again := s.Run(simclock.NewRand(seed)); again != res {
			t.Fatalf("%+v: the same inputs gave %+v, then %+v", s, res, again)
		}
	})
}

// refManager is the frame table this package had before the pageable-only
// one, kept as the oracle Manager is checked against: a frame per physical
// page that points at its owner, an eager free list of every frame, a
// Pinned flag the clock skips, and the system baseline as a pinned process
// created and touched first, so it fills frames [0, S). One change: the
// hog throttle exempts a pinned process, which it could otherwise make
// evict its own pages; no caller ever gave it a baseline over the
// throttle's limit. fellBack records that the interactive fallback ran.
type refManager struct {
	cfg       Config
	frames    []refFrame
	free      []int32
	hand      int32
	procs     []*refProcess
	stats     Stats
	system    *refProcess
	fellBack  bool
	pastChunk bool // a page past the first chunkSlots of its process faulted in
}

type refProcess struct {
	name        string
	interactive bool
	pinned      bool
	frames      []int32
	resident    int
}

type refFrame struct {
	owner *refProcess
	page  int32
	ref   bool
}

func newRefManager(cfg Config) *refManager {
	if cfg.ClusterPages <= 0 {
		cfg.ClusterPages = 1
	}
	n := cfg.PhysicalKB / PageKB
	if n <= 0 {
		panic("vm: no physical memory configured")
	}
	m := &refManager{cfg: cfg, frames: make([]refFrame, n), free: make([]int32, 0, n)}
	for i := n - 1; i >= 0; i-- {
		m.frames[i].page = -1
		m.free = append(m.free, int32(i))
	}
	if cfg.SystemKB > 0 {
		m.system = m.newProcess("system", cfg.SystemKB)
		m.system.pinned = true
		m.touchAll(m.system)
	}
	return m
}

// systemPages is how many of the reference's faults paged in the system
// baseline, which Manager reserves without faulting.
func (m *refManager) systemPages() int64 {
	if m.system == nil {
		return 0
	}
	return int64(len(m.system.frames))
}

func (m *refManager) newProcess(name string, sizeKB int) *refProcess {
	pages := (sizeKB + PageKB - 1) / PageKB
	p := &refProcess{name: name, frames: make([]int32, pages)}
	for i := range p.frames {
		p.frames[i] = -1
	}
	m.procs = append(m.procs, p)
	return p
}

func (m *refManager) touch(p *refProcess, i int) bool {
	if f := p.frames[i]; f >= 0 {
		m.frames[f].ref = true
		return false
	}
	m.stats.Faults++
	m.pastChunk = m.pastChunk || i >= chunkSlots
	f := m.allocFrame(p)
	m.frames[f] = refFrame{owner: p, page: int32(i), ref: true}
	p.frames[i] = f
	p.resident++
	return true
}

func (m *refManager) touchAll(p *refProcess) int {
	faults := 0
	for i := range p.frames {
		if m.touch(p, i) {
			faults++
		}
	}
	return faults
}

func (m *refManager) touchSpan(p *refProcess, startKB, lenKB int) int {
	first := startKB / PageKB
	last := (startKB + lenKB - 1) / PageKB
	faults := 0
	for i := first; i <= last && i < len(p.frames); i++ {
		if m.touch(p, i) {
			faults++
		}
	}
	return faults
}

func (m *refManager) evict(p *refProcess, i int) {
	f := p.frames[i]
	if f < 0 {
		return
	}
	m.frames[f] = refFrame{page: -1}
	p.frames[i] = -1
	p.resident--
	m.free = append(m.free, f)
	m.stats.Evictions++
}

func (m *refManager) evictAll(p *refProcess) {
	for i := range p.frames {
		m.evict(p, i)
	}
}

func (m *refManager) allocFrame(p *refProcess) int32 {
	if m.cfg.HogFrameLimit > 0 && !p.interactive && !p.pinned {
		limit := int(m.cfg.HogFrameLimit * float64(len(m.frames)))
		if p.resident >= limit {
			if f := m.reclaimFrom(p); f >= 0 {
				m.stats.SelfEvict++
				return f
			}
		}
	}
	if n := len(m.free); n > 0 {
		f := m.free[n-1]
		m.free = m.free[:n-1]
		return f
	}
	return m.clockReclaim(p)
}

func (m *refManager) clockReclaim(for_ *refProcess) int32 {
	n := int32(len(m.frames))
	protectInteractive := m.cfg.ReserveInteractive && !for_.interactive
	var fallback int32 = -1
	for sweep := int32(0); sweep < 3*n; sweep++ {
		i := m.hand
		m.hand = (m.hand + 1) % n
		fr := &m.frames[i]
		m.stats.ClockSweep++
		if fr.owner == nil || fr.owner.pinned {
			continue
		}
		if protectInteractive && fr.owner.interactive {
			if fallback < 0 {
				fallback = i
			}
			continue
		}
		if fr.ref {
			fr.ref = false
			continue
		}
		return m.takeFrame(i)
	}
	if fallback >= 0 {
		m.fellBack = true
		return m.takeFrame(fallback)
	}
	panic("vm: out of memory: all frames pinned")
}

func (m *refManager) reclaimFrom(p *refProcess) int32 {
	n := int32(len(m.frames))
	var candidate int32 = -1
	for sweep := int32(0); sweep < 2*n; sweep++ {
		i := m.hand
		m.hand = (m.hand + 1) % n
		fr := &m.frames[i]
		if fr.owner != p {
			continue
		}
		if fr.ref {
			fr.ref = false
			if candidate < 0 {
				candidate = i
			}
			continue
		}
		return m.takeFrame(i)
	}
	if candidate >= 0 {
		return m.takeFrame(candidate)
	}
	return -1
}

func (m *refManager) takeFrame(i int32) int32 {
	fr := &m.frames[i]
	if fr.owner != nil {
		fr.owner.frames[fr.page] = -1
		fr.owner.resident--
		m.stats.Evictions++
	}
	*fr = refFrame{page: -1}
	return i
}

func (m *refManager) checkInvariants() error {
	used := 0
	for fi := range m.frames {
		fr := m.frames[fi]
		if fr.owner == nil {
			continue
		}
		used++
		if fr.page < 0 || int(fr.page) >= len(fr.owner.frames) {
			return fmt.Errorf("frame %d maps out-of-range page %d of %s", fi, fr.page, fr.owner.name)
		}
		if fr.owner.frames[fr.page] != int32(fi) {
			return fmt.Errorf("frame %d and process %s disagree about page %d", fi, fr.owner.name, fr.page)
		}
	}
	if used+len(m.free) != len(m.frames) {
		return fmt.Errorf("frame leak: %d used + %d free != %d total", used, len(m.free), len(m.frames))
	}
	for _, p := range m.procs {
		count := 0
		for _, f := range p.frames {
			if f >= 0 {
				count++
			}
		}
		if count != p.resident {
			return fmt.Errorf("process %s resident count %d != actual %d", p.name, p.resident, count)
		}
	}
	return nil
}

// matchReference decodes a byte tape into a machine and an op stream, runs
// the stream on a Manager and on the reference, and returns the reference
// and the first disagreement. The first four bytes pick the machine: 8-64
// pages of 4 KB plus up to 3 stray KB, a SystemKB from none up to all
// pages but one (rounded up from as much as 3 KB below a page boundary),
// and flags for ReserveInteractive and a HogFrameLimit in 0.25-0.75. Every
// further three bytes are one op: the first picks the kind and the
// process, the other two its arguments. Process sizes run to twice
// physical memory, so a stream fills memory and the clock, the interactive
// fallback and the hog throttle all run; a new process whose kind byte
// has bits 4-7 set instead spans two or three chunks (1,025 to 3,072
// pages), so slots past a process's first chunk are reclaimed too. An
// EvictAll whose kind byte has bits 4-7 set is a Renew instead, onto the
// machine that (a, b, a^b, a+b) picks as the first four bytes would: the
// reference becomes a new one with every process registered again, all
// non-resident, and the renewed Manager must keep matching it.
func matchReference(data []byte) (*refManager, error) {
	head := make([]byte, 4)
	copy(head, data)
	data = data[min(len(data), 4):]
	cfg := tapeConfig(head)
	m, ref := New(cfg), newRefManager(cfg)
	var procs []*Process
	var refs []*refProcess
	compare := func() error {
		if m.TotalPages() != len(ref.frames) || m.FreePages() != len(ref.free) {
			return fmt.Errorf("total/free pages %d/%d, reference %d/%d",
				m.TotalPages(), m.FreePages(), len(ref.frames), len(ref.free))
		}
		got, want := m.Stats(), ref.stats
		if got.Faults != want.Faults-ref.systemPages() || got.Evictions != want.Evictions || got.SelfEvict != want.SelfEvict {
			return fmt.Errorf("stats %+v, reference %+v with %d system pages", got, want, ref.systemPages())
		}
		for pi, p := range procs {
			r := refs[pi]
			if p.Resident() != r.resident {
				return fmt.Errorf("process %d resident %d, reference %d", pi, p.Resident(), r.resident)
			}
			for i := range r.frames {
				if p.IsResident(i) != (r.frames[i] >= 0) {
					return fmt.Errorf("process %d page %d resident %v, reference %v", pi, i, p.IsResident(i), r.frames[i] >= 0)
				}
			}
		}
		if err := m.CheckInvariants(); err != nil {
			return err
		}
		if err := ref.checkInvariants(); err != nil {
			return fmt.Errorf("reference: %v", err)
		}
		return nil
	}
	if err := compare(); err != nil {
		return ref, fmt.Errorf("New(%+v): %v", cfg, err)
	}
	const maxProcs = 8
	for i := 0; i+3 <= len(data); i += 3 {
		kind, a, b := data[i], int(data[i+1]), int(data[i+2])
		op := int(kind & 7)
		if len(procs) == 0 || (op == 0 && len(procs) < maxProcs) {
			sizeKB := 1 + (a<<8|b)%(2*cfg.PhysicalKB)
			if kind&0xf0 == 0xf0 {
				sizeKB = chunkSlots*PageKB + 1 + (a<<8|b)%(2*chunkSlots*PageKB)
			}
			p, r := m.NewProcess("p", sizeKB), ref.newProcess("p", sizeKB)
			p.Interactive = kind&8 != 0
			r.interactive = p.Interactive
			procs, refs = append(procs, p), append(refs, r)
			if err := compare(); err != nil {
				return ref, fmt.Errorf("op %d: NewProcess(%d KB, interactive %v): %v", i/3, sizeKB, p.Interactive, err)
			}
			continue
		}
		pi := int(kind>>3) % len(procs)
		p, r := procs[pi], refs[pi]
		page := (a<<8 | b) % p.Pages()
		startKB, lenKB := a%(p.Pages()*PageKB), 1+b%64
		var got, want int
		switch op {
		case 0, 3:
			got, want = m.TouchAll(p), ref.touchAll(r)
		case 1, 2:
			got, want = b2i(m.Touch(p, page)), b2i(ref.touch(r, page))
		case 4:
			got, want = m.TouchSpan(p, startKB, lenKB), ref.touchSpan(r, startKB, lenKB)
		case 5, 6:
			m.Evict(p, page)
			ref.evict(r, page)
		case 7:
			if kind&0xf0 == 0xf0 {
				cfg = tapeConfig([]byte{byte(a), byte(b), byte(a ^ b), byte(a + b)})
				m.Renew(cfg)
				old := ref
				ref = newRefManager(cfg)
				ref.fellBack, ref.pastChunk = old.fellBack, old.pastChunk
				for ri, r := range refs {
					refs[ri] = ref.newProcess("p", r.pages()*PageKB)
					refs[ri].interactive = r.interactive
				}
				if err := compare(); err != nil {
					return ref, fmt.Errorf("op %d: Renew(%+v): %v", i/3, cfg, err)
				}
				continue
			}
			m.EvictAll(p)
			ref.evictAll(r)
		}
		err := compare()
		if err == nil && got != want {
			err = fmt.Errorf("returned %d, reference %d", got, want)
		}
		if err != nil {
			desc := [8]string{"TouchAll", "Touch", "Touch", "TouchAll", "TouchSpan", "Evict", "Evict", "EvictAll"}[op]
			return ref, fmt.Errorf("op %d: %s(process %d, page %d, span %d+%d KB): %v", i/3, desc, pi, page, startKB, lenKB, err)
		}
	}
	return ref, nil
}

// tapeConfig is the machine four tape bytes pick (see matchReference).
func tapeConfig(head []byte) Config {
	pages := 8 + int(head[0])%57
	cfg := smallConfig()
	cfg.PhysicalKB = pages*PageKB + int(head[3])%PageKB
	if sys := int(head[1]) % pages; sys > 0 {
		cfg.SystemKB = sys*PageKB - int(head[2]>>5)%PageKB
	}
	cfg.ReserveInteractive = head[2]&1 != 0
	if head[2]&2 != 0 {
		cfg.HogFrameLimit = 0.25 + float64(head[2]>>2&7)/14
	}
	return cfg
}

func (p *refProcess) pages() int { return len(p.frames) }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestManagerMatchesReference runs random machines and op streams on the
// pageable-only frame table and on the reference that pins the system
// baseline as a process: every return value, every page's residency, the
// free and total page counts, and the fault, eviction and self-eviction
// counts must agree after every op. Across the runs the clock, the hog
// throttle and the interactive fallback must each have reclaimed a frame,
// and a page past its process's first chunk must have faulted in.
func TestManagerMatchesReference(t *testing.T) {
	var clock, throttled, fallback, pastChunk bool
	f := func(seed uint64) bool {
		r := simclock.NewRand(seed)
		data := make([]byte, 4+3*400)
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		ref, err := matchReference(data)
		if err != nil {
			t.Log(err)
			return false
		}
		clock = clock || ref.stats.ClockSweep > 0
		throttled = throttled || ref.stats.SelfEvict > 0
		fallback = fallback || ref.fellBack
		pastChunk = pastChunk || ref.pastChunk
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if !clock || !throttled || !fallback || !pastChunk {
		t.Fatalf("streams never ran a path: clock %v, hog throttle %v, interactive fallback %v, a page past the first chunk %v",
			clock, throttled, fallback, pastChunk)
	}
}

// streamerTape is a 64-page machine under ReserveInteractive and a
// HogFrameLimit of 0.25 (16 frames). Interactive processes 0 and 1 take
// 40 frames. Process 2, a 3,000-page non-interactive streamer in chunks
// 2-4, streams through its pages twice, recycling its own 16 frames once
// it reaches the limit. Process 3, 32 non-interactive pages, takes the
// last 8 fresh frames, then 8 of the streamer's by the clock, which
// passes over the interactive frames, then recycles its own at the limit.
// The streamer touches a page in its third chunk, taking one of process
// 3's frames by the clock, and exits; process 3 touches its pages again.
var streamerTape = []byte{
	56, 0, 3, 0, // 64 pages, no system baseline, reserve, limit 0.25
	8, 0, 63, // new interactive process 0: 64 KB, 16 pages
	8, 0, 95, // new interactive process 1: 96 KB, 24 pages
	0xf0, 30, 223, // new process 2: 4,097 + 7,903 KB, 3,000 pages
	0, 0, 127, // new process 3: 128 KB, 32 pages
	3, 0, 0, // TouchAll process 0
	11, 0, 0, // TouchAll process 1
	19, 0, 0, // TouchAll process 2
	19, 0, 0, // and again
	27, 0, 0, // TouchAll process 3
	3, 0, 0, 11, 0, 0, // TouchAll processes 0 and 1 again
	17, 9, 196, // Touch process 2's page 2,500
	23, 0, 0, // EvictAll process 2
	27, 0, 0, // TouchAll process 3 again
}

// TestManagerMatchesReferencePastOneChunk runs streamerTape, checking the
// manager against the reference after every op: the streamer's pages past
// its first chunk are recycled by the hog throttle's reclaimFrom, which
// tests a frame's slot against the streamer's range, and by the clock,
// which looks their owner up by chunk.
func TestManagerMatchesReferencePastOneChunk(t *testing.T) {
	ref, err := matchReference(streamerTape)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.pastChunk || ref.stats.SelfEvict == 0 || ref.stats.ClockSweep == 0 {
		t.Fatalf("page past the first chunk %v, %d self-evictions, %d frames swept; want all",
			ref.pastChunk, ref.stats.SelfEvict, ref.stats.ClockSweep)
	}
}

// renewTape fills a 28-page machine with a 32-page process and an
// interactive 24-page one, renews onto a 64-page machine, which outgrows
// the frame table, where both log back in without the clock, then renews
// onto the first machine's 28 pages under a 3-page baseline,
// ReserveInteractive and the hog throttle, which reuses the table, and
// logs both in again.
var renewTape = []byte{
	20, 0, 0, 0, // 28 pages, no system baseline, no policy
	0, 0, 127, // new process 0: 128 KB, 32 pages
	8, 0, 95, // new interactive process 1: 96 KB, 24 pages
	3, 0, 0, 11, 0, 0, // TouchAll processes 0 and 1
	0xf7, 56, 0, // Renew: 64 pages, no baseline, no policy
	3, 0, 0, 11, 0, 0, // TouchAll processes 0 and 1
	0xff, 20, 3, // Renew: 28 pages and 3 KB, a 12 KB baseline, reserve, hog limit
	3, 0, 0, 11, 0, 0, // TouchAll processes 0 and 1
	2, 0, 5, // Touch process 0's page 5
}

// TestManagerMatchesReferenceAcrossRenew runs renewTape, checking the
// manager against the reference after every op: a renewed manager whose
// processes stay registered behaves as a new one they registered with.
func TestManagerMatchesReferenceAcrossRenew(t *testing.T) {
	ref, err := matchReference(renewTape)
	if err != nil {
		t.Fatal(err)
	}
	if ref.cfg.SystemKB != 12 || ref.stats.ClockSweep == 0 || ref.stats.SelfEvict == 0 {
		t.Fatalf("last machine %+v swept %d frames and self-evicted %d; want the 12 KB baseline and both",
			ref.cfg, ref.stats.ClockSweep, ref.stats.SelfEvict)
	}
}

// FuzzManagerMatchesReference feeds arbitrary tapes through matchReference.
// The seeds fill memory under each policy: plain clock reclaim, the
// interactive fallback, and the hog throttle, each over a system baseline;
// a fourth reuses released frames in LIFO order before the clock runs, a
// fifth, streamerTape, reclaims pages past a process's first chunk, and a
// sixth, renewTape, renews the manager twice.
func FuzzManagerMatchesReference(f *testing.F) {
	// Plain clock reclaim: a 16-page process streams through the 5
	// pageable frames of an 8-page machine with a 3-page baseline.
	f.Add([]byte{0, 3, 0, 0, 0, 0, 63, 3, 0, 0, 1, 0, 2, 3, 0, 0})
	// ReserveInteractive: an interactive process fills memory, then a
	// non-interactive one can only take an interactive frame.
	f.Add([]byte{8, 6, 1, 0, 8, 0, 127, 3, 0, 0, 0, 0, 7, 9, 0, 0, 9, 0, 1})
	// HogFrameLimit 0.25 over a 5-page baseline: a hog twice memory.
	f.Add([]byte{24, 5, 2, 1, 0, 1, 1, 3, 0, 0, 3, 0, 0})
	// LIFO reuse on a 16-page machine: an 8-page process fills frames
	// 0-7 and exits; a 12-page one takes them back top first (page 0 in
	// frame 7) and 8-11 fresh; the first process's return then makes the
	// clock reclaim frames 0-3, so the second loses pages 7 down to 4.
	f.Add([]byte{8, 0, 0, 0, 0, 0, 31, 0, 0, 47, 3, 0, 0, 7, 0, 0, 11, 0, 0, 3, 0, 0})
	f.Add(streamerTape)
	f.Add(renewTape)
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := matchReference(data); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkLoginLogout times one Linux session set (in.rshd, xterm and
// bash, 752 KB) plus its 2,800 KB application logging into a full 48 MB
// machine and back out. Nine resident sessions over the 17 MB system
// baseline leave no frame free, so every login reclaims by the clock;
// before each login the residents touch their pages again, taking back
// the frames the last logout released. Once warm it allocates nothing.
func BenchmarkLoginLogout(b *testing.B) {
	cfg := DefaultConfig()
	cfg.PhysicalKB = 48 * 1024
	cfg.SystemKB = 17 * 1024
	m := New(cfg)
	login := func() []*Process {
		var set []*Process
		for _, kb := range []int{204, 372, 176, 2800} {
			p := m.NewProcess("p", kb)
			p.Interactive = true
			m.TouchAll(p)
			set = append(set, p)
		}
		return set
	}
	var residents []*Process
	for range 9 {
		residents = append(residents, login()...)
	}
	session := login()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, p := range session {
			m.EvictAll(p)
		}
		for _, p := range residents {
			m.TouchAll(p)
		}
		for _, p := range session {
			m.TouchAll(p)
		}
	}
}
