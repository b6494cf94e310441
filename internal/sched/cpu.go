package sched

import (
	"fmt"

	"thinbench/internal/simclock"
)

// ItemRecord describes one completed work item, the raw material for the
// lost-time latency methodology.
type ItemRecord struct {
	Thread *Thread
	Arrive simclock.Time
	Done   simclock.Time
	CPU    simclock.Duration // CPU the item consumed
}

// Latency is completion time minus submission time: the user-visible delay.
func (r ItemRecord) Latency() simclock.Duration { return r.Done.Sub(r.Arrive) }

// CPU simulates a single processor driven by a Policy, matching the
// paper's uniprocessor testbed. All experiment workloads run through it.
type CPU struct {
	eng    *simclock.Engine
	policy *Policy

	running   *Thread
	sliceEnd  *simclock.Event
	sliceFrom simclock.Time // the running slice's start, or its last charge
	busyTotal simclock.Duration

	// OnItemDone, if set, observes every completed work item.
	OnItemDone func(rec ItemRecord)

	dispatchPending bool

	// sliceDoneFn and dispatchFn are the slice-end and dispatch callbacks
	// bound once at construction, so the dispatch loop schedules events
	// without allocating a fresh closure per slice.
	sliceDoneFn simclock.Func
	dispatchFn  simclock.Func

	// itemFree recycles WorkItems handed out by Acquire once they complete
	// or their thread retires.
	itemFree []*WorkItem
}

// NewCPU builds a CPU on the engine with the given policy.
func NewCPU(eng *simclock.Engine, policy *Policy) *CPU {
	c := &CPU{eng: eng}
	c.sliceDoneFn, c.dispatchFn = c.sliceDone, c.dispatch
	c.Reset(policy)
	return c
}

// Reset returns the CPU to the state NewCPU leaves it in, on its engine
// and under policy, keeping its work-item pool: nothing runs, nothing is
// pending or ready, and no busy time is counted. The policy's levels are
// emptied in place, keeping their arrays, so a caller may pass the policy
// the CPU last ran under. Threads and items of the last run must not be
// used again, except through ReuseThread. A caller resets the CPU's
// engine first, since a pending slice end or dispatch dies with it.
func (c *CPU) Reset(policy *Policy) {
	policy.clear()
	*c = CPU{
		eng:         c.eng,
		policy:      policy,
		sliceDoneFn: c.sliceDoneFn,
		dispatchFn:  c.dispatchFn,
		itemFree:    c.itemFree,
	}
}

// Acquire returns a zeroed WorkItem from the CPU's free list, the one
// source of the items Submit takes. Items are recycled automatically after
// their OnDone callback returns, or when their thread retires before they
// complete, so callers must not retain the pointer past completion or
// retirement.
//
//thinlint:hotpath
func (c *CPU) Acquire() *WorkItem {
	n := len(c.itemFree)
	if n == 0 {
		return &WorkItem{} //thinlint:allow hotpath.alloc pool growth: runs once per high-water-mark item, amortized to zero in steady state
	}
	it := c.itemFree[n-1]
	c.itemFree[n-1] = nil
	c.itemFree = c.itemFree[:n-1]
	return it
}

// Policy reports the policy the CPU runs under.
func (c *CPU) Policy() *Policy { return c.policy }

// BusyTotal reports the CPU time of every slice that has ended.
func (c *CPU) BusyTotal() simclock.Duration { return c.busyTotal }

// Busy reports the CPU's busy time up to now: BusyTotal plus the time the
// running slice has run so far. Sampled at instants k·Δ, its differences
// are the busy time of each Δ-wide interval.
func (c *CPU) Busy() simclock.Duration {
	if c.running == nil {
		return c.busyTotal
	}
	return c.busyTotal + c.eng.Now().Sub(c.sliceFrom)
}

// Running reports the thread currently on CPU, nil when idle.
func (c *CPU) Running() *Thread { return c.running }

// NewThread creates a thread for this CPU at base priority basePri.
// Threads begin Blocked; submitting work wakes them. The priority must lie
// in 0-31: the NT policy's 32 levels order threads as their priorities do
// only in that range.
func (c *CPU) NewThread(basePri int) *Thread {
	// The queue starts with room for a typical interactive backlog so the
	// append ladder (1, 2, 4, ...) doesn't charge every fresh thread a
	// handful of growth allocations before it reaches steady state.
	return &Thread{Base: basePri, cur: basePri, state: Blocked, queue: make([]*WorkItem, 0, 8)}
}

// ReuseThread returns a retired thread to service as if freshly created by
// NewThread at the given base priority: every piece of scheduling state —
// boost, quantum, accumulated CPU, flags — resets to the pristine Blocked
// state, while the queue's backing array survives. The thread must be
// retired (not queued by the policy) when reused. Session pools use it to
// recycle pipeline threads across logins without reallocating them.
func (c *CPU) ReuseThread(t *Thread, basePri int) {
	*t = Thread{Base: basePri, cur: basePri, state: Blocked, queue: t.queue[:0]}
}

// Submit queues a work item on t at the current time, waking the thread if
// it was blocked.
//
//thinlint:hotpath
func (c *CPU) Submit(t *Thread, item *WorkItem) {
	if item.CPU < 0 {
		panic(fmt.Sprintf("sched: negative CPU demand %v", item.CPU))
	}
	now := c.eng.Now()
	item.arrive = now
	t.queue = append(t.queue, item)
	if t.state != Blocked {
		return // already ready or running; item waits its turn
	}
	c.wake(t, now)
}

func (c *CPU) wake(t *Thread, now simclock.Time) {
	t.state = Ready
	t.readySince = now
	c.policy.wake(t)
	if c.running != nil && c.policy.preempts(c.running, t) {
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
	c.eng.At(c.eng.Now(), c.dispatchFn, 0, 0)
}

// dispatch is the coalesced dispatch event: it puts the next ready thread
// on the CPU if it is free.
//
//thinlint:hotpath
func (c *CPU) dispatch(now simclock.Time, _, _ int) {
	c.dispatchPending = false
	if c.running != nil {
		return
	}
	t := c.policy.next()
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
		t.quantumRem = c.policy.quantumOf(t)
	}
	if t.quantumRem <= 0 {
		t.quantumRem = c.policy.quantumOf(t)
	}
	c.startSlice(t, now)
}

// accountRun charges the running thread t, and the CPU's busy total, with
// the time it ran since the slice started or was last charged, and
// returns that time. The slice's start moves up to now, so Busy counts
// nothing twice while t stays on the CPU.
func (c *CPU) accountRun(t *Thread, now simclock.Time) simclock.Duration {
	ran := now.Sub(c.sliceFrom)
	c.sliceFrom = now
	if ran > 0 {
		t.totalCPU += ran
		c.busyTotal += ran
	}
	return ran
}

// sliceDone fires when the running thread's slice ends: either its current
// item completed or its quantum expired.
//
//thinlint:hotpath
func (c *CPU) sliceDone(now simclock.Time, _, _ int) {
	t := c.running
	if t == nil {
		return
	}
	ran := c.accountRun(t, now)
	t.remaining -= ran
	t.quantumRem -= ran
	c.sliceEnd = nil

	if t.remaining <= 0 {
		c.completeItem(t, now)
		if t.item == nil && !t.startNextItem() {
			// No more work: block. Blocking ends the quantum, so it burns
			// a quantum of any boost, as an expiry does.
			t.state = Blocked
			t.quantumRem = 0
			t.consumeBoostQuantum()
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
		c.startSlice(t, now)
		return
	}

	// Quantum expired mid-item.
	c.requeueExpired(t, now)
}

// startSlice runs t from now until its item or its quantum ends, whichever
// comes first.
func (c *CPU) startSlice(t *Thread, now simclock.Time) {
	c.sliceFrom = now
	//thinlint:allow poolsafe.retain sliceEnd is cleared in sliceDone before the engine recycles the event, and straight after Cancel, which recycles it
	c.sliceEnd = c.eng.At(now.Add(min(t.quantumRem, t.remaining)), c.sliceDoneFn, 0, 0)
}

// requeueExpired sends a thread whose quantum ran out to its level's
// tail. Each expiry burns one quantum of any boost, returning the thread
// to base priority when the boost is exhausted: the mechanism behind the
// paper's 180 ms "grace period" analysis. Only the NT policy boosts.
func (c *CPU) requeueExpired(t *Thread, now simclock.Time) {
	t.consumeBoostQuantum()
	t.state = Ready
	t.readySince = now
	t.quantumRem = 0
	c.policy.push(t)
	c.running = nil
	c.scheduleDispatch()
}

func (c *CPU) completeItem(t *Thread, now simclock.Time) {
	it := t.item
	t.item = nil
	if it == nil {
		return
	}
	if c.OnItemDone != nil {
		c.OnItemDone(ItemRecord{Thread: t, Arrive: it.arrive, Done: now, CPU: it.CPU})
	}
	if it.OnDone != nil {
		it.OnDone(now, it.A, it.B)
	}
	c.release(it)
}

// release zeroes an item and returns it to the free list.
func (c *CPU) release(it *WorkItem) {
	if it != nil {
		*it = WorkItem{}
		c.itemFree = append(c.itemFree, it)
	}
}

// preempt displaces the running thread in favor of a wake from a higher
// level; the displaced thread rejoins the head of its own.
func (c *CPU) preempt(now simclock.Time) {
	t := c.running
	if t == nil {
		return
	}
	if c.sliceEnd != nil {
		c.eng.Cancel(c.sliceEnd)
		c.sliceEnd = nil
	}
	ran := c.accountRun(t, now)
	t.remaining -= ran
	t.quantumRem -= ran
	if t.remaining <= 0 {
		// The preemption landed exactly at item completion.
		c.completeItem(t, now)
	}
	t.state = Ready
	t.readySince = now
	c.policy.pushHead(t)
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
		c.accountRun(t, now)
		c.running = nil
		c.scheduleDispatch()
	case Ready:
		c.policy.remove(t)
	}
	t.state = Blocked
	// The dropped items never complete, so they go back to the pool now.
	// Keep the queue's backing array (truncated) so a thread recycled
	// via ReuseThread submits into warmed storage.
	c.release(t.item)
	for _, it := range t.queue[t.qhead:] {
		c.release(it)
	}
	t.queue = t.queue[:0]
	t.qhead = 0
	t.item = nil
	t.remaining = 0
}
