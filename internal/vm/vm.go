// Package vm simulates a paged virtual memory system: a physical frame
// pool shared by processes, a global-clock replacement policy, and a swap
// device with a seek + transfer + clustering cost model.
//
// Physical memory splits in two. Config.SystemKB is the pinned system
// baseline (§5.1.1's idle kernel and service load): resident from the
// start, counted in TotalPages, and never touched, swept or freed. The
// rest is pageable, and only it has a frame table of 4 bytes a frame. The
// table holds no pointers, so the collector never scans it, and a zero
// frame is a free one, so building a Manager costs one zeroed allocation:
// never-used frames are handed out in index order by a cursor, and
// released frames go on a LIFO list, threaded through the released
// frames themselves, that is popped first. No call after New allocates
// a frame or a list entry: faults, releases and both reclaim paths work
// in place. Renew rebuilds a manager for another machine in the same
// table, keeping its processes.
//
// An owned frame names its page by a slot: each process's pages take
// consecutive slots from a base aligned to a chunk of chunkSlots, and
// Manager.procs holds the process once per chunk it spans, so a frame's
// owner is one index away.
//
// It reproduces the paper's §5.2 pathology — a streaming, non-interactive
// job evicts an idle interactive application, and the next keystroke pays
// seconds of page-in latency — and implements the fix the paper endorses
// from Evans et al.: reserving physical memory for interactive processes
// and throttling streaming hogs.
package vm

import (
	"fmt"

	"thinbench/internal/simclock"
)

// PageKB is the page size, 4 KB on both systems.
const PageKB = 4

// The swap device, a late-90s disk: SwapSeek is the positioning cost
// charged once per cluster transfer, and SwapPage the transfer time of
// one page.
const (
	SwapSeek = 8 * simclock.Millisecond
	SwapPage = 500 * simclock.Microsecond
)

// Config parameterizes the memory system.
type Config struct {
	// PhysicalKB is the machine's physical memory (paper testbed scale:
	// tens of MB).
	PhysicalKB int
	// ClusterPages is the page-in clustering factor (readahead): pages per
	// seek. Linux's swap readahead clusters more aggressively than NT's
	// pagefile reads, one contributor to the paper's 3-4x latency gap.
	ClusterPages int
	// ReserveInteractive, when true, prevents non-interactive processes
	// from evicting interactive processes' frames (the Evans et al.
	// reservation policy). Default off: neither TSE nor Linux protects
	// interactive memory, which is the paper's complaint.
	ReserveInteractive bool
	// HogFrameLimit, when positive, caps the fraction (0..1) of physical
	// frames a single non-interactive process may own, forcing streaming
	// jobs to recycle their own pages (the Evans et al. throttle). The
	// fraction is of all physical pages, SystemKB's included.
	HogFrameLimit float64
	// SystemKB is the pinned system baseline: kernel and wired service
	// memory (17 MB Linux, 19 MB TSE), rounded up to whole pages. It is
	// resident from the start and counts in TotalPages, but no process
	// owns it and no eviction can take it. It must leave at least one
	// page pageable.
	SystemKB int
}

// DefaultConfig is a testbed-scale machine: 64 MB of RAM, paging in 8
// pages a seek.
func DefaultConfig() Config {
	return Config{
		PhysicalKB:   64 * 1024,
		ClusterPages: 8,
	}
}

// Process is an address space: a fixed-size set of virtual pages.
type Process struct {
	Name string
	// Interactive marks the process as interactive for the reservation and
	// throttling policies.
	Interactive bool

	base     int32   // page 0's slot, chunk-aligned: Manager.procs[base>>chunkBits] is p
	frames   []int32 // per-page frame index, -1 when not resident
	resident int
}

// Pages reports the process's virtual size in pages.
func (p *Process) Pages() int { return len(p.frames) }

// Resident reports the number of resident pages.
func (p *Process) Resident() int { return p.resident }

// IsResident reports whether virtual page i is in memory.
func (p *Process) IsResident(i int) bool { return p.frames[i] >= 0 }

// frame is one pageable physical frame, 4 bytes with no pointer. An
// owned frame has ownedBit set, the clock's reference bit in refBit, and
// the slot it maps in the low 30 bits (slotMask). A released frame holds
// the next released frame plus one with both top bits clear, 0 ending the
// list, so the zero frame is a free one.
type frame uint32

const (
	ownedBit frame = 1 << 31
	refBit   frame = 1 << 30
	slotMask frame = refBit - 1

	// maxSlots bounds the slot space and maxFrames the pageable frames: a
	// released frame's link, a frame index plus one, must stay below refBit.
	maxSlots  = int(slotMask) + 1
	maxFrames = int(slotMask)

	// A chunk is chunkSlots consecutive slots; each process's base starts
	// one. Every session process fits in one chunk.
	chunkBits  = 10
	chunkSlots = 1 << chunkBits
)

// slot reports the slot an owned frame maps.
func (f frame) slot() int32 { return int32(f & slotMask) }

// maps reports whether f is an owned frame mapping one of p's pages: its
// slot, less p's base, is below p's page count (a slot under the base
// wraps to a larger one).
func (p *Process) maps(f frame) bool {
	return f&ownedBit != 0 && uint32(f.slot()-p.base) < uint32(len(p.frames))
}

// Stats counts memory system activity.
type Stats struct {
	Faults     int64 // page faults (touches to non-resident pages)
	Evictions  int64 // frames reclaimed from a process
	ClockSweep int64 // frames examined by the clock hand
	SelfEvict  int64 // evictions forced by the hog throttle
}

// Manager is the physical memory manager.
type Manager struct {
	cfg    Config
	frames []frame    // the pageable frames; SystemKB's pages have none
	system int        // pages reserved by SystemKB
	fresh  int32      // frames at and past the cursor have never been used
	free   int32      // top of the released list: a frame plus one, 0 when empty
	nfree  int32      // frames on the released list, popped (LIFO) before fresh ones
	hand   int32      // clock hand
	procs  []*Process // by chunk: a process once per chunk its slots span
	stats  Stats
}

// withDefaults fills the clustering factor New assumes when it is unset.
func (c Config) withDefaults() Config {
	if c.ClusterPages <= 0 {
		c.ClusterPages = 1
	}
	return c
}

// Validate reports why New would refuse the configuration: physical
// memory under one page, a negative SystemKB, a SystemKB that leaves no
// page pageable, or more pageable frames than a frame can link (2^30 - 1,
// 4 TB of 4 KB pages).
func (c Config) Validate() error {
	c = c.withDefaults()
	total := c.PhysicalKB / PageKB
	pageable := total - pagesFor(c.SystemKB)
	switch {
	case total <= 0:
		return fmt.Errorf("vm: %d KB of physical memory holds no %d KB page", c.PhysicalKB, PageKB)
	case c.SystemKB < 0:
		return fmt.Errorf("vm: negative system baseline %d KB", c.SystemKB)
	case pageable <= 0:
		return fmt.Errorf("vm: a %d KB system baseline leaves no page of %d KB physical memory pageable", c.SystemKB, c.PhysicalKB)
	case pageable > maxFrames:
		return fmt.Errorf("vm: %d pageable frames, over the %d a frame table holds", pageable, maxFrames)
	}
	return nil
}

// pagesFor rounds kb up to whole pages.
func pagesFor(kb int) int { return (kb + PageKB - 1) / PageKB }

// New builds a manager for the configured physical memory: Renew on a
// zero Manager. It panics on a configuration Validate rejects.
func New(cfg Config) *Manager {
	m := &Manager{}
	m.Renew(cfg)
	return m
}

// Renew rebuilds m in place for cfg, as New would build it, but keeps its
// storage and its processes. The frame table is cut to cfg's pageable
// frames and cleared, and reallocated only when it is too short; the
// cursor, the released list, the clock hand and the stats start over.
// Every registered process stays registered at its base slot, with every
// page non-resident, as Logout leaves it, so a caller can log it back in
// with TouchAll. It panics on a configuration Validate rejects.
func (m *Manager) Renew(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	cfg = cfg.withDefaults()
	system := pagesFor(cfg.SystemKB)
	n := cfg.PhysicalKB/PageKB - system
	if cap(m.frames) >= n {
		m.frames = m.frames[:n]
		clear(m.frames)
	} else {
		m.frames = make([]frame, n)
	}
	for chunk, p := range m.procs {
		if p.resident > 0 && int(p.base>>chunkBits) == chunk {
			for i := range p.frames {
				p.frames[i] = -1
			}
			p.resident = 0
		}
	}
	m.cfg, m.system = cfg, system
	m.fresh, m.free, m.nfree, m.hand = 0, 0, 0, 0
	m.stats = Stats{}
}

// Config reports the active configuration.
func (m *Manager) Config() Config { return m.cfg }

// Stats reports cumulative activity counters.
func (m *Manager) Stats() Stats { return m.stats }

// TotalPages reports physical memory size in pages, the system baseline's
// included.
func (m *Manager) TotalPages() int { return m.system + len(m.frames) }

// FreePages reports the current free frame count.
func (m *Manager) FreePages() int { return int(m.nfree) + len(m.frames) - int(m.fresh) }

// FreeKB reports free memory in KB.
func (m *Manager) FreeKB() int { return m.FreePages() * PageKB }

// ResidentKB reports a process's resident set in KB.
func (m *Manager) ResidentKB(p *Process) int { return p.resident * PageKB }

// NewProcess creates a process with sizeKB of virtual memory, initially
// fully non-resident. Its pages take the slots from the next free chunk
// on; it panics when they would run past the slot space, which only a
// caller bug can ask for.
func (m *Manager) NewProcess(name string, sizeKB int) *Process {
	pages := pagesFor(sizeKB)
	chunks := max(1, (pages+chunkSlots-1)>>chunkBits)
	if len(m.procs)+chunks > maxSlots>>chunkBits {
		panic(fmt.Sprintf("vm: process %s's %d pages run past the %d-slot space", name, pages, maxSlots))
	}
	p := &Process{Name: name, base: int32(len(m.procs) << chunkBits), frames: make([]int32, pages)}
	for i := range p.frames {
		p.frames[i] = -1
	}
	for range chunks {
		m.procs = append(m.procs, p)
	}
	return p
}

// Touch references virtual page i of p, faulting it in if needed.
// It reports whether a fault occurred.
//
//thinlint:hotpath
func (m *Manager) Touch(p *Process, i int) bool {
	if i < 0 || i >= len(p.frames) {
		panic(fmt.Sprintf("vm: touch out of range: page %d of %d-page process %s", i, len(p.frames), p.Name))
	}
	if f := p.frames[i]; f >= 0 {
		m.frames[f] |= refBit
		return false
	}
	m.stats.Faults++
	f := m.allocFrame(p)
	m.frames[f] = ownedBit | refBit | frame(p.base+int32(i))
	p.frames[i] = f
	p.resident++
	return true
}

// TouchAll references every page of p in order, returning the fault count.
func (m *Manager) TouchAll(p *Process) int {
	faults := 0
	for i := range p.frames {
		if m.Touch(p, i) {
			faults++
		}
	}
	return faults
}

// TouchSpan references pages covering [startKB, startKB+lenKB), returning
// the fault count.
func (m *Manager) TouchSpan(p *Process, startKB, lenKB int) int {
	first := startKB / PageKB
	last := (startKB + lenKB - 1) / PageKB
	faults := 0
	for i := first; i <= last && i < len(p.frames); i++ {
		if m.Touch(p, i) {
			faults++
		}
	}
	return faults
}

// Evict removes virtual page i of p from memory (no-op when not resident).
// The frame goes on top of the released list.
//
//thinlint:hotpath
func (m *Manager) Evict(p *Process, i int) {
	f := p.frames[i]
	if f < 0 {
		return
	}
	m.frames[f] = frame(m.free)
	m.free = f + 1
	m.nfree++
	p.frames[i] = -1
	p.resident--
	m.stats.Evictions++
}

// EvictAll removes every resident page of p (process exit).
func (m *Manager) EvictAll(p *Process) {
	for i := range p.frames {
		m.Evict(p, i)
	}
}

// allocFrame finds a frame for p, reclaiming one when memory is full.
//
//thinlint:hotpath
func (m *Manager) allocFrame(p *Process) int32 {
	// Hog throttle: a capped process past its limit must recycle its own
	// frames even if free memory exists elsewhere.
	if m.cfg.HogFrameLimit > 0 && !p.Interactive {
		limit := int(m.cfg.HogFrameLimit * float64(m.TotalPages()))
		if p.resident >= limit {
			if f := m.reclaimFrom(p); f >= 0 {
				m.stats.SelfEvict++
				return f
			}
		}
	}
	if m.free != 0 {
		f := m.free - 1
		m.free = int32(m.frames[f])
		m.nfree--
		return f
	}
	if int(m.fresh) < len(m.frames) {
		m.fresh++
		return m.fresh - 1
	}
	return m.clockReclaim(p)
}

// clockReclaim runs the global clock over the pageable frames: referenced
// frames get a second chance; the first unreferenced, policy-eligible frame
// is reclaimed. Guaranteed to terminate: after two full sweeps every
// reclaimable frame has had its reference bit cleared.
//
//thinlint:hotpath
func (m *Manager) clockReclaim(for_ *Process) int32 {
	protectInteractive := m.cfg.ReserveInteractive && !for_.Interactive
	var fallback int32 = -1
	for sweep := 0; sweep < 3*len(m.frames); sweep++ {
		i := m.tick()
		fr := &m.frames[i]
		m.stats.ClockSweep++
		if *fr&ownedBit == 0 {
			continue
		}
		if protectInteractive && m.procs[fr.slot()>>chunkBits].Interactive {
			if fallback < 0 {
				fallback = i // reclaim only if nothing else exists
			}
			continue
		}
		if *fr&refBit != 0 {
			*fr &^= refBit
			continue
		}
		return m.takeFrame(i)
	}
	if fallback >= 0 {
		return m.takeFrame(fallback)
	}
	panic("vm: the clock found no frame to reclaim")
}

// reclaimFrom reclaims one of p's own frames (oldest by clock order),
// or -1 when p has none resident.
//
//thinlint:hotpath
func (m *Manager) reclaimFrom(p *Process) int32 {
	var candidate int32 = -1
	for sweep := 0; sweep < 2*len(m.frames); sweep++ {
		i := m.tick()
		fr := &m.frames[i]
		if !p.maps(*fr) {
			continue
		}
		if *fr&refBit != 0 {
			*fr &^= refBit
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

// tick returns the frame under the clock hand and moves the hand on one,
// wrapping by a comparison rather than a division.
//
//thinlint:hotpath
func (m *Manager) tick() int32 {
	i := m.hand
	m.hand++
	if int(m.hand) == len(m.frames) {
		m.hand = 0
	}
	return i
}

// takeFrame detaches frame i from its owner and returns it.
//
//thinlint:hotpath
func (m *Manager) takeFrame(i int32) int32 {
	if fr := m.frames[i]; fr&ownedBit != 0 {
		owner := m.procs[fr.slot()>>chunkBits]
		owner.frames[fr.slot()-owner.base] = -1
		owner.resident--
		m.stats.Evictions++
	}
	m.frames[i] = 0
	return i
}

// FaultCost converts a fault count into page-in time under the clustering
// disk model: one seek per cluster plus a per-page transfer.
func (m *Manager) FaultCost(faults int) simclock.Duration {
	if faults <= 0 {
		return 0
	}
	clusters := (faults + m.cfg.ClusterPages - 1) / m.cfg.ClusterPages
	return simclock.Duration(clusters)*SwapSeek + simclock.Duration(faults)*SwapPage
}

// CheckInvariants validates internal accounting: every resident page maps to
// a frame owned by it, resident+free counts add up, no frame is double
// mapped or names a slot no process holds, no frame past the cursor or on
// the released list is owned, and the released list ends, stays below the
// cursor and holds as many frames as its count. Used by property tests and
// available to callers as a debugging aid; it returns an error describing
// the first violation found.
func (m *Manager) CheckInvariants() error {
	used := 0
	for fi, fr := range m.frames {
		if fr&ownedBit == 0 {
			continue
		}
		if fi >= int(m.fresh) {
			return fmt.Errorf("frame %d past the cursor %d is owned", fi, m.fresh)
		}
		chunk := int(fr.slot() >> chunkBits)
		if chunk >= len(m.procs) {
			return fmt.Errorf("frame %d names slot %d, past the last chunk %d", fi, fr.slot(), len(m.procs)-1)
		}
		used++
		owner := m.procs[chunk]
		if page := fr.slot() - owner.base; int(page) >= len(owner.frames) {
			return fmt.Errorf("frame %d maps out-of-range page %d of %s", fi, page, owner.Name)
		} else if owner.frames[page] != int32(fi) {
			return fmt.Errorf("frame %d and process %s disagree about page %d", fi, owner.Name, page)
		}
	}
	// An acyclic list of distinct frames below the cursor holds at most
	// fresh of them, so the walk stops by then.
	listed := int32(0)
	for next := m.free; next != 0; listed++ {
		f := next - 1
		if listed == m.fresh {
			return fmt.Errorf("the released-frame list is cyclic")
		}
		if f < 0 || f >= m.fresh || m.frames[f]&ownedBit != 0 {
			return fmt.Errorf("released frame %d is owned or not below the cursor %d", f, m.fresh)
		}
		next = int32(m.frames[f])
	}
	if listed != m.nfree {
		return fmt.Errorf("the released-frame list holds %d frames, its count %d", listed, m.nfree)
	}
	if used+m.FreePages() != len(m.frames) {
		return fmt.Errorf("frame leak: %d used + %d free != %d pageable", used, m.FreePages(), len(m.frames))
	}
	for chunk, p := range m.procs {
		if int(p.base>>chunkBits) != chunk {
			continue // a later chunk of a process over chunkSlots pages
		}
		count := 0
		for _, f := range p.frames {
			if f >= 0 {
				count++
			}
		}
		if count != p.resident {
			return fmt.Errorf("process %s resident count %d != actual %d", p.Name, p.resident, count)
		}
	}
	return nil
}
