package vm

import (
	"thinbench/internal/simclock"
)

// The §5.2 protocol's constants: the paper types one keystroke after a
// 30-second streaming job, against a 50 ms screen-update cadence.
//
// A keystroke's expected cost follows from them and from a scenario's
// TouchFloor and Config.ClusterPages. Once the streamer has evicted the
// editor, a repaint touches floor + (1 − floor)·u² of its pages, u
// uniform, so floor + (1 − floor)/3 of them on average. A refault
// (chance RefaultProb) multiplies the faults by 1 + RefaultSpread·u, 1.9
// on average, so the expected factor is 1 + 0.3·0.9 = 1.27. Each fault
// costs SwapPage, and each cluster of ClusterPages faults a seek of
// SwapSeek on average, on top of BaseResponse.
const (
	// HogSeconds is how long the streamer runs before the keystroke.
	HogSeconds = 30
	// BaseResponse is the no-fault keystroke response time.
	BaseResponse = 50 * simclock.Millisecond
	// SeekJitterFrac is the per-cluster positioning noise: each page-in
	// seek is drawn from Normal(SwapSeek, SwapSeek·SeekJitterFrac),
	// floored at a quarter seek.
	SeekJitterFrac = 0.3
	// StreamClusterPages is the clustering factor of the hog's sequential
	// streaming: sequential reads cluster well on either OS, and
	// Config.ClusterPages governs only the editor's page-ins, which is
	// where the systems differ.
	StreamClusterPages = 8
	// RefaultProb is the chance the still-active streamer re-evicts
	// pages mid-page-in, and RefaultSpread how far a refault can
	// multiply the faults past once over.
	RefaultProb   = 0.3
	RefaultSpread = 1.8
)

// PagingScenario reproduces the paper's §5.2 experiment: an interactive
// editor sits idle ("think time") while a streaming job touches more memory
// than the machine has; after HogSeconds the user types one keystroke and
// the editor's working set must page back in from disk. Config.SystemKB
// is the machine's pinned kernel and service memory (17 MB Linux, 19 MB
// TSE), which the streamer cannot evict.
type PagingScenario struct {
	Config Config
	// EditorKB is the interactive session's working set: the per-session
	// login processes plus the editor application and its library pages.
	EditorKB int
	// HogFactor sizes the streaming job relative to physical memory.
	// Values >= 1 model the paper's ">= 100% page demand" column; smaller
	// values leave the editor resident.
	HogFactor float64
	// TouchFloor is the minimum working-set fraction a keystroke repaint
	// touches. The paper's TSE min latency is a much larger share of its
	// average than Linux's, reflecting NT's deeper GDI/csrss repaint path
	// touching more of the set every time.
	TouchFloor float64
}

// PagingResult reports one run of the scenario.
type PagingResult struct {
	// Latency is the measured keystroke-to-update time.
	Latency simclock.Duration
	// EditorFaults is how many editor page-ins the keystroke paid for
	// (including refaults).
	EditorFaults int
	// EditorEvicted is how many editor pages the streamer displaced.
	EditorEvicted int
	// HogTouches is how many pages the streamer touched in its run.
	HogTouches int
}

// Run executes the scenario once with the given random stream.
func (s PagingScenario) Run(rng *simclock.Rand) PagingResult { return s.run(rng, streamHog) }

// run is Run with the streamer's loop supplied: stream runs the hog over
// the machine and returns how many pages it touched.
func (s PagingScenario) run(rng *simclock.Rand, stream func(m *Manager, hog *Process) int) PagingResult {
	m := New(s.Config)

	editor := m.NewProcess("editor-session", s.EditorKB)
	editor.Interactive = true
	m.TouchAll(editor)
	residentBefore := editor.Resident()

	// The streamer touches each byte of a region sized HogFactor x physical
	// memory, sequentially with wraparound, for HogSeconds of disk-bound
	// virtual time.
	hogKB := int(s.HogFactor * float64(s.Config.PhysicalKB))
	result := PagingResult{}
	if hogKB > 0 {
		result.HogTouches = stream(m, m.NewProcess("streamer", hogKB))
	}
	result.EditorEvicted = residentBefore - editor.Resident()

	// The keystroke. The redraw touches a random fraction of the working
	// set, skewed toward partial repaints (a repaint may need only the
	// visible buffer, or a full relayout); non-resident pages fault back
	// in from swap, and a refault charges extra faults.
	u := rng.Float64()
	fraction := s.TouchFloor + (1-s.TouchFloor)*u*u
	refault := 1.0
	if rng.Float64() < RefaultProb {
		refault = 1 + RefaultSpread*rng.Float64()
	}
	touchPages := int(fraction * float64(editor.Pages()))
	if touchPages < 1 {
		touchPages = 1
	}
	faults := 0
	for i := 0; i < touchPages; i++ {
		if m.Touch(editor, i) {
			faults++
		}
	}
	faults = int(float64(faults) * refault)
	result.EditorFaults = faults
	result.Latency = BaseResponse + faultCostNoisy(m, faults, rng)
	return result
}

// streamHog runs the streamer for HogSeconds of virtual time and returns
// its touch count. Sequential streaming is cluster-friendly, so each fault
// costs an amortized share of a seek plus one page transfer, and each hit
// a microsecond. Once a whole pass has hit, every hog page is resident
// with its reference bit set, and only a fault runs the clock, so every
// later touch is a hit that changes nothing: the rest of the budget is
// counted, not touched. At tab3's low-demand row that skips about 30
// million touches per run.
func streamHog(m *Manager, hog *Process) int {
	const perFault = SwapSeek/StreamClusterPages + SwapPage
	const perHit = simclock.Microsecond
	const budget = HogSeconds * simclock.Second
	var elapsed simclock.Duration
	touches, hits := 0, 0
	for page := 0; elapsed < budget; page = (page + 1) % hog.Pages() {
		if m.Touch(hog, page) {
			elapsed += perFault
			hits = 0
		} else {
			elapsed += perHit
			hits++
		}
		touches++
		if hits == hog.Pages() {
			return touches + int((budget-elapsed+perHit-1)/perHit)
		}
	}
	return touches
}

// faultCostNoisy is m.FaultCost with per-cluster seek jitter.
func faultCostNoisy(m *Manager, faults int, rng *simclock.Rand) simclock.Duration {
	if faults <= 0 {
		return 0
	}
	cp := m.cfg.ClusterPages
	clusters := (faults + cp - 1) / cp
	total := simclock.Duration(faults) * SwapPage
	for i := 0; i < clusters; i++ {
		seek := simclock.Duration(rng.Normal(float64(SwapSeek), SeekJitterFrac*float64(SwapSeek)))
		total += max(seek, SwapSeek/4)
	}
	return total
}

// RunN executes the scenario n times with distinct substreams and returns
// all results, matching the paper's "ranges and averages over ten runs".
func (s PagingScenario) RunN(n int, seed uint64) []PagingResult {
	out := make([]PagingResult, 0, n)
	for i := 0; i < n; i++ {
		// Predates DeriveSeed; the published paging averages are functions
		// of these exact substreams.
		rng := simclock.NewRand(seed + uint64(i)*1001) //thinlint:allow seedflow.adhoc frozen: changing the substreams would move published paging results
		out = append(out, s.Run(rng))
	}
	return out
}
