// Package sched simulates single-CPU thread scheduling with the three
// policies the paper analyzes: the Windows NT/TSE scheduler (32 priority
// levels, 30 ms quantum, quantum stretching, GUI wake boosts, balance-set
// anti-starvation boosts), the Linux scheduler as the paper models it
// (single round-robin queue with a 10 ms quantum and no interactive
// protection), and the SVR4 interactive-class scheduler of Evans et al.,
// which the paper cites as the fix for interactive starvation. All three
// are one multilevel run queue, Policy, with different settings.
//
// Threads consume WorkItems submitted by workload generators; the CPU engine
// dispatches threads under a Policy and reports per-item completion
// latency, from which the experiments build the paper's user-perceived
// latency metrics.
package sched

import (
	"fmt"

	"thinbench/internal/simclock"
)

// State is a thread's lifecycle state.
type State int

// Thread states.
const (
	Blocked State = iota // no runnable work
	Ready                // runnable, waiting for CPU
	Running              // currently on CPU
)

func (s State) String() string {
	switch s {
	case Blocked:
		return "blocked"
	case Ready:
		return "ready"
	case Running:
		return "running"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// WorkItem is a unit of CPU demand submitted to a thread: an input event to
// handle, a screen update to encode, a slice of background computation.
type WorkItem struct {
	// CPU is the processing time the item needs. A caller may raise it
	// while the item is still queued, before it starts.
	CPU simclock.Duration
	// OnDone, if set, fires with (now, A, B) when the item completes, the
	// engine's callback form: a method value bound once reads its
	// per-item state from the payload instead of capturing it in a fresh
	// closure. The item is recycled as soon as OnDone returns.
	OnDone simclock.Func
	// A and B are caller-owned integer payload slots for OnDone (e.g. a
	// session index and an interaction index). The scheduler never reads
	// them.
	A, B int

	arrive simclock.Time
}

// Thread is a schedulable entity.
type Thread struct {
	// Base is the base priority, 0-31. The NT policy queues a thread by
	// its current priority, which starts at Base, and larger is better;
	// the round-robin and SVR4 policies ignore it.
	Base int
	// GUIBoost marks threads that receive the NT GUI wake boost (to
	// priority 15 for two quanta) when woken by input.
	GUIBoost bool
	// Interactive marks threads protected by the SVR4 interactive class.
	Interactive bool
	// Foreground marks threads subject to NT quantum stretching.
	Foreground bool

	state     State
	cur       int // current (possibly boosted) priority
	boostLeft int // quanta remaining at boosted priority
	// queue and qhead form a FIFO ring: Submit appends at the tail and
	// startNextItem pops by advancing qhead, rewinding both to the array
	// start whenever the queue drains so steady-state submission reuses
	// one backing array instead of re-allocating on every append past a
	// slid-forward window.
	queue      []*WorkItem
	qhead      int
	item       *WorkItem         // item being serviced
	remaining  simclock.Duration // CPU left for current item
	quantumRem simclock.Duration // quantum left from last dispatch
	readySince simclock.Time
	totalCPU   simclock.Duration
}

// State reports the thread's current state.
func (t *Thread) State() State { return t.state }

// Priority reports the thread's current effective priority.
func (t *Thread) Priority() int { return t.cur }

// Boosted reports whether the thread currently runs at a boosted priority.
func (t *Thread) Boosted() bool { return t.boostLeft > 0 }

// QueueLen reports the number of pending (unstarted) work items.
func (t *Thread) QueueLen() int { return len(t.queue) - t.qhead }

// TotalCPU reports the cumulative CPU time the thread has consumed.
func (t *Thread) TotalCPU() simclock.Duration { return t.totalCPU }

// boost raises the thread's priority for n quanta.
func (t *Thread) boost(pri, n int) {
	if pri > t.cur {
		t.cur = pri
	}
	if n > t.boostLeft {
		t.boostLeft = n
	}
}

// consumeBoostQuantum burns one quantum of boost; at zero the priority
// returns to base.
func (t *Thread) consumeBoostQuantum() {
	if t.boostLeft > 0 {
		t.boostLeft--
		if t.boostLeft == 0 {
			t.cur = t.Base
		}
	}
}

// startNextItem pops the next queued item. It reports false when the
// queue is empty.
func (t *Thread) startNextItem() bool {
	if t.qhead == len(t.queue) {
		return false
	}
	it := t.queue[t.qhead]
	t.queue[t.qhead] = nil
	t.qhead++
	if t.qhead == len(t.queue) {
		// Drained: rewind to the array start so the next Submit appends
		// into the existing capacity.
		t.queue = t.queue[:0]
		t.qhead = 0
	} else if t.qhead >= 64 && t.qhead*2 >= len(t.queue) {
		// A queue that never empties would otherwise slide its window
		// forward indefinitely; compact the live tail down.
		n := copy(t.queue, t.queue[t.qhead:])
		for i := n; i < len(t.queue); i++ {
			t.queue[i] = nil
		}
		t.queue = t.queue[:n]
		t.qhead = 0
	}
	t.item = it
	t.remaining = it.CPU
	return true
}
