package sched

import (
	"fmt"

	"thinbench/internal/metrics"
	"thinbench/internal/simclock"
)

// ItemRecord describes one completed work item, the raw material for the
// lost-time latency methodology.
type ItemRecord struct {
	Thread   *Thread
	Tag      string
	Arrive   simclock.Time
	Done     simclock.Time
	CPU      simclock.Duration // CPU the item consumed
	Absorbed int               // additional items coalesced into this one
}

// Latency is completion time minus submission time: the user-visible delay.
func (r ItemRecord) Latency() simclock.Duration { return r.Done.Sub(r.Arrive) }

// CPU simulates a single processor driven by a Scheduler policy, matching
// the paper's uniprocessor testbed. All experiment workloads run through it.
type CPU struct {
	eng   *simclock.Engine
	sched Scheduler

	running    *Thread
	sliceEnd   *simclock.Event
	sliceFrom  simclock.Time
	sliceSpan  simclock.Duration
	nextThread int

	busy      *metrics.Series // accumulated busy microseconds per bucket
	busyTotal simclock.Duration
	started   simclock.Time

	// OnItemDone, if set, observes every completed work item.
	OnItemDone func(rec ItemRecord)

	dispatchPending bool

	// sliceDoneFn and dispatchFn are the slice-end and dispatch callbacks
	// bound once at construction, so the dispatch loop schedules events
	// without allocating a fresh closure per slice.
	sliceDoneFn func(now simclock.Time)
	dispatchFn  func(now simclock.Time)

	// itemFree recycles WorkItems handed out by Acquire once their
	// completion callback has returned.
	itemFree []*WorkItem
}

// utilBucket is the resolution of a CPU's utilization trace: 1 s, as
// Figure 1 plots it.
const utilBucket = simclock.Second

// NewCPU builds a CPU on the engine with the given policy.
func NewCPU(eng *simclock.Engine, sched Scheduler) *CPU {
	c := &CPU{
		eng:     eng,
		sched:   sched,
		busy:    metrics.NewSeries(utilBucket),
		started: eng.Now(),
	}
	c.sliceDoneFn = c.sliceDone
	c.dispatchFn = func(now simclock.Time) {
		c.dispatchPending = false
		c.dispatch(now)
	}
	return c
}

// Acquire returns a zeroed WorkItem from the CPU's free list. Items
// obtained here are recycled automatically after their OnDone callback
// returns, so callers must not retain the pointer past completion. Items
// built with plain &WorkItem{} literals are never pooled.
//
//thinlint:hotpath
func (c *CPU) Acquire() *WorkItem {
	n := len(c.itemFree)
	if n == 0 {
		return &WorkItem{pooled: true} //thinlint:allow hotpath.alloc pool growth: runs once per high-water-mark item, amortized to zero in steady state
	}
	it := c.itemFree[n-1]
	c.itemFree[n-1] = nil
	c.itemFree = c.itemFree[:n-1]
	*it = WorkItem{pooled: true}
	return it
}

// Engine exposes the underlying event engine.
func (c *CPU) Engine() *simclock.Engine { return c.eng }

// Scheduler exposes the policy in use.
func (c *CPU) Scheduler() Scheduler { return c.sched }

// BusySeries reports the per-bucket busy time (microseconds) trace.
func (c *CPU) BusySeries() *metrics.Series { return c.busy }

// BusyTotal reports total CPU busy time.
func (c *CPU) BusyTotal() simclock.Duration { return c.busyTotal }

// Utilization reports overall busy fraction since construction.
func (c *CPU) Utilization() float64 {
	elapsed := c.eng.Now().Sub(c.started)
	if elapsed <= 0 {
		return 0
	}
	return float64(c.busyTotal) / float64(elapsed)
}

// Running reports the thread currently on CPU, nil when idle.
func (c *CPU) Running() *Thread { return c.running }

// NewThread creates a thread registered with this CPU. Threads begin
// Blocked; submitting work wakes them.
func (c *CPU) NewThread(name string, basePri int) *Thread {
	// The queue starts with room for a typical interactive backlog so the
	// append ladder (1, 2, 4, ...) doesn't charge every fresh thread a
	// handful of growth allocations before it reaches steady state.
	t := &Thread{ID: c.nextThread, Name: name, Base: basePri, cur: basePri, state: Blocked,
		queue: make([]*WorkItem, 0, 8)}
	c.nextThread++
	return t
}

// ReuseThread returns a retired thread to service as if freshly created by
// NewThread at the given base priority: every piece of scheduling state —
// boost, quantum, absorbed-item count, accumulated CPU, flags — resets to
// the pristine Blocked state, while the identity fields (which no
// scheduling decision reads) and the queue's backing array survive. The
// thread must be retired (not registered with any scheduler queue) when
// reused. Session pools use it to recycle pipeline threads across logins
// without reallocating them.
func (c *CPU) ReuseThread(t *Thread, basePri int) {
	*t = Thread{ID: t.ID, Name: t.Name, Base: basePri, cur: basePri, state: Blocked, queue: t.queue[:0]}
}

// Submit queues a work item on t at the current time, waking the thread if
// it was blocked.
//
//thinlint:hotpath
func (c *CPU) Submit(t *Thread, item *WorkItem) {
	if item.CPU < 0 {
		panic(fmt.Sprintf("sched: negative CPU demand for %q", item.Tag))
	}
	now := c.eng.Now()
	item.arrive = now
	t.queue = append(t.queue, item)
	if t.state != Blocked {
		return // already ready or running; item waits its turn
	}
	c.wake(t, now)
}

// SubmitAt schedules a submission at a future time, the common pattern for
// workload sources that know their event times in advance.
func (c *CPU) SubmitAt(at simclock.Time, t *Thread, item *WorkItem) {
	c.eng.At(at, func(simclock.Time) { c.Submit(t, item) })
}

func (c *CPU) wake(t *Thread, now simclock.Time) {
	t.state = Ready
	t.readySince = now
	c.sched.Enqueue(t, now, ReasonWake)
	if c.running != nil && c.sched.ShouldPreempt(c.running, t) {
		c.preempt(now)
	}
	c.scheduleDispatch()
}

// scheduleDispatch coalesces dispatch attempts into a single event at the
// current instant, so that a burst of submissions triggers one decision.
func (c *CPU) scheduleDispatch() {
	if c.dispatchPending {
		return
	}
	c.dispatchPending = true
	c.eng.After(0, c.dispatchFn)
}

// dispatch puts the next ready thread on the CPU if it is free.
//
//thinlint:hotpath
func (c *CPU) dispatch(now simclock.Time) {
	if c.running != nil {
		return
	}
	t := c.sched.Dequeue(now)
	if t == nil {
		return
	}
	t.state = Running
	c.running = t
	if t.item == nil {
		if !t.startNextItem() {
			// Spurious ready thread with no work: block it again.
			t.state = Blocked
			c.running = nil
			c.scheduleDispatch()
			return
		}
		t.quantumRem = c.sched.Quantum(t)
	}
	if t.quantumRem <= 0 {
		t.quantumRem = c.sched.Quantum(t)
	}
	slice := t.quantumRem
	if t.remaining < slice {
		slice = t.remaining
	}
	c.sliceFrom = now
	c.sliceSpan = slice
	//thinlint:allow poolsafe.retain sliceEnd is cleared in sliceDone before the engine recycles the event, and Cancel checks pending first
	c.sliceEnd = c.eng.After(slice, c.sliceDoneFn)
}

// accountRun charges d of CPU to the running thread and utilization trace.
func (c *CPU) accountRun(t *Thread, from simclock.Time, d simclock.Duration) {
	if d <= 0 {
		return
	}
	t.totalCPU += d
	c.busyTotal += d
	c.busy.AddSpan(from, d, float64(d))
}

// sliceDone fires when the running thread's slice ends: either its current
// item completed or its quantum expired.
//
//thinlint:hotpath
func (c *CPU) sliceDone(now simclock.Time) {
	t := c.running
	if t == nil {
		return
	}
	ran := now.Sub(c.sliceFrom)
	c.accountRun(t, c.sliceFrom, ran)
	t.remaining -= ran
	t.quantumRem -= ran
	c.sliceEnd = nil

	if t.remaining <= 0 {
		c.completeItem(t, now)
		if t.item == nil && !t.startNextItem() {
			// No more work: block.
			t.state = Blocked
			t.quantumRem = 0
			c.sched.OnBlock(t, now)
			c.running = nil
			c.scheduleDispatch()
			return
		}
		// More work queued. If the quantum also ran out, round-robin;
		// otherwise keep the CPU for the next item.
		if t.quantumRem <= 0 {
			c.requeueExpired(t, now)
			return
		}
		c.continueRunning(t, now)
		return
	}

	// Quantum expired mid-item.
	c.requeueExpired(t, now)
}

func (c *CPU) continueRunning(t *Thread, now simclock.Time) {
	slice := t.quantumRem
	if t.remaining < slice {
		slice = t.remaining
	}
	c.sliceFrom = now
	c.sliceSpan = slice
	//thinlint:allow poolsafe.retain same contract as dispatch: cleared in sliceDone before recycle
	c.sliceEnd = c.eng.After(slice, c.sliceDoneFn)
}

func (c *CPU) requeueExpired(t *Thread, now simclock.Time) {
	c.sched.OnQuantumExpire(t, now)
	t.state = Ready
	t.readySince = now
	t.quantumRem = 0
	c.sched.Enqueue(t, now, ReasonQuantumExpire)
	c.running = nil
	c.scheduleDispatch()
}

func (c *CPU) completeItem(t *Thread, now simclock.Time) {
	it := t.item
	t.item = nil
	if it == nil {
		return
	}
	rec := ItemRecord{
		Thread:   t,
		Tag:      it.Tag,
		Arrive:   it.arrive,
		Done:     now,
		CPU:      it.CPU + simclock.Duration(t.absorbed)*it.ExtraCPU,
		Absorbed: t.absorbed,
	}
	if c.OnItemDone != nil {
		c.OnItemDone(rec)
	}
	if it.OnDone != nil {
		it.OnDone(it, now, 1+t.absorbed)
	}
	t.absorbed = 0
	if it.pooled {
		// Coalesced-away items skip completion and simply fall to the GC;
		// only items that reach this point re-enter the pool.
		*it = WorkItem{}
		c.itemFree = append(c.itemFree, it)
	}
}

// preempt displaces the running thread in favor of a higher-priority wake.
func (c *CPU) preempt(now simclock.Time) {
	t := c.running
	if t == nil {
		return
	}
	if c.sliceEnd != nil {
		c.eng.Cancel(c.sliceEnd)
		c.sliceEnd = nil
	}
	ran := now.Sub(c.sliceFrom)
	c.accountRun(t, c.sliceFrom, ran)
	t.remaining -= ran
	t.quantumRem -= ran
	if t.remaining <= 0 {
		// The preemption landed exactly at item completion.
		c.completeItem(t, now)
	}
	t.state = Ready
	t.readySince = now
	c.sched.Enqueue(t, now, ReasonPreempted)
	c.running = nil
	c.scheduleDispatch()
}

// Retire removes a thread from the system: pending work is dropped and the
// thread will not run again. Retiring the running thread stops it at the
// current instant.
func (c *CPU) Retire(t *Thread) {
	now := c.eng.Now()
	switch t.state {
	case Running:
		if c.sliceEnd != nil {
			c.eng.Cancel(c.sliceEnd)
			c.sliceEnd = nil
		}
		ran := now.Sub(c.sliceFrom)
		c.accountRun(t, c.sliceFrom, ran)
		c.running = nil
		c.scheduleDispatch()
	case Ready:
		c.sched.Remove(t)
	}
	t.state = Blocked
	// Keep the queue's backing array (truncated) so a thread recycled via
	// ReuseThread submits into warmed storage; the dropped items are
	// unreachable either way.
	t.queue = t.queue[:0]
	t.qhead = 0
	t.item = nil
	t.remaining = 0
}
