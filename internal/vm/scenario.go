package vm

import (
	"thinbench/internal/simclock"
)

// PagingScenario reproduces the paper's §5.2 experiment: an interactive
// editor sits idle ("think time") while a streaming job touches more memory
// than the machine has; after 30 seconds the user types one keystroke and
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
	// HogSeconds is how long the streamer runs before the keystroke.
	HogSeconds int
	// BaseResponse is the no-fault keystroke response time (the paper's
	// 50 ms screen-update cadence).
	BaseResponse simclock.Duration
	// SeekJitterFrac adds per-cluster positioning noise: each seek is drawn
	// from Normal(SwapSeek, SwapSeek*frac), floored at a quarter seek.
	SeekJitterFrac float64
	// StreamClusterPages is the clustering factor for the hog's sequential
	// streaming (defaults to 8): sequential reads cluster well on either
	// OS; Config.ClusterPages governs only the editor's page-ins, which is
	// where the systems differ.
	StreamClusterPages int
	// RandomizeKeystroke enables the run-to-run variation behind the
	// paper's min/avg/max spread: the redraw touches a random fraction of
	// the working set (a repaint may need only the visible buffer, or a
	// full relayout), and with RefaultProb the still-active streamer
	// re-evicts pages mid-page-in, charging extra faults.
	RandomizeKeystroke bool
	// RefaultProb is the chance a run suffers refaulting (0..1).
	RefaultProb float64
	// TouchFloor is the minimum working-set fraction a keystroke repaint
	// touches (default 0.12). The paper's TSE min latency is a much larger
	// share of its average than Linux's, reflecting NT's deeper
	// GDI/csrss repaint path touching more of the set every time.
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
func (s PagingScenario) Run(rng *simclock.Rand) PagingResult { return s.run(rng, s.stream) }

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

	// The keystroke. The redraw touches some or all of the working set;
	// non-resident pages fault back in from swap.
	fraction := 1.0
	refault := 1.0
	if s.RandomizeKeystroke && rng != nil {
		floor := s.TouchFloor
		if floor <= 0 {
			floor = 0.12
		}
		u := rng.Float64()
		fraction = floor + (1-floor)*u*u // skewed toward partial repaints
		if rng.Float64() < s.RefaultProb {
			refault = 1.0 + 1.8*rng.Float64()
		}
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
	result.Latency = s.BaseResponse + s.faultCostNoisy(faults, rng)
	return result
}

// stream runs the streamer for HogSeconds of virtual time and returns
// its touch count. Sequential streaming is cluster-friendly, so each fault
// costs an amortized share of a seek plus one page transfer, and each hit
// a microsecond. Once a whole pass has hit, every hog page is resident
// with its reference bit set, and only a fault runs the clock, so every
// later touch is a hit that changes nothing: the rest of the budget is
// counted, not touched. At tab3's low-demand row that skips about 30
// million touches per run.
func (s PagingScenario) stream(m *Manager, hog *Process) int {
	streamCluster := s.StreamClusterPages
	if streamCluster <= 0 {
		streamCluster = 8
	}
	perFault := s.Config.SwapSeek/simclock.Duration(streamCluster) + s.Config.SwapPage
	perHit := simclock.Microsecond
	budget := simclock.Duration(s.HogSeconds) * simclock.Second
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

// faultCostNoisy is FaultCost with per-cluster seek jitter.
func (s PagingScenario) faultCostNoisy(faults int, rng *simclock.Rand) simclock.Duration {
	if faults <= 0 {
		return 0
	}
	cp := s.Config.ClusterPages
	if cp <= 0 {
		cp = 1
	}
	clusters := (faults + cp - 1) / cp
	total := simclock.Duration(faults) * s.Config.SwapPage
	for i := 0; i < clusters; i++ {
		seek := s.Config.SwapSeek
		if s.SeekJitterFrac > 0 && rng != nil {
			drawn := simclock.Duration(rng.Normal(float64(seek), s.SeekJitterFrac*float64(seek)))
			floor := seek / 4
			if drawn < floor {
				drawn = floor
			}
			seek = drawn
		}
		total += seek
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
