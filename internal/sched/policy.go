package sched

import (
	"slices"

	"thinbench/internal/simclock"
)

// Policy is a CPU scheduling policy: a multilevel run queue. The CPU runs
// the head of the highest non-empty level, goes round robin within a
// level, and lets a woken thread preempt the running one only from a
// strictly higher level. A woken or expired thread joins its level's
// tail; a preempted one rejoins its level's head, so it resumes first.
//
// The paper's three policies are this one algorithm with different
// settings: NewRR, NewSVR4IA and NewNT.
type Policy struct {
	name string
	// quantum is the time slice a thread gets on dispatch, fgQuantum the
	// one a Foreground thread gets.
	quantum, fgQuantum simclock.Duration
	// nt keys the levels by each thread's current priority and gives
	// GUIBoost threads NT's wake boost; otherwise a thread marked
	// Interactive takes the top level and every other thread the bottom.
	nt     bool
	ready  int
	levels [][]*Thread // levels[i] outranks levels[i-1]
	// few holds rr's one level and svr4ia's two inside the policy, so
	// those policies are one allocation.
	few [2][]*Thread
}

// The NT/TSE settings the paper describes for NT 4.0 Workstation and
// Terminal Server Edition.
const (
	ntQuantum      = 30 * simclock.Millisecond // on Pentium-class hardware
	boostPriority  = 15                        // the GUI wake boost's priority
	boostQuanta    = 2                         // the GUI wake boost's lifetime
	starvationWait = 4 * simclock.Second       // ready age that earns a balance-set boost
	scanPeriod     = simclock.Second           // balance-set scan interval
	scanLimit      = 10                        // boosts per scan, at most
)

// rrQuantum is the time slice of the round-robin and SVR4 interactive
// policies: the paper's 10 ms Linux configuration.
const rrQuantum = 10 * simclock.Millisecond

func newPolicy(name string, levels int) *Policy {
	p := &Policy{name: name, quantum: rrQuantum, fgQuantum: rrQuantum}
	p.levels = p.few[:levels]
	return p
}

// NewRR is the plain round-robin policy the paper uses to model the Linux
// scheduler: one FIFO level, a 10 ms quantum, so no wake ever preempts,
// and no interactive or foreground boosting of any kind.
//
// The real Linux 2.0 scheduler computes a "goodness" value from remaining
// counter ticks, which gives recently-slept processes a modest edge. The
// paper's analysis (§4.2.1) deliberately reduces this to quantum-bounded
// round-robin — "Linux provides no help for interactive processes" — and
// its measurements (Figure 3's linear latency growth) confirm that model,
// so the reproduction implements the paper's model.
func NewRR() *Policy { return newPolicy("rr", 1) }

// NewSVR4IA models the interactive-class scheduler of Evans et al.
// ("Optimizing Unix Resource Scheduling for User Interaction", USENIX
// 1993), which the paper holds up as the existence proof that keystroke
// latency can stay flat as load grows: threads marked Interactive form
// the upper of two levels, so they always dispatch ahead of timeshare
// threads and preempt them on wake. Both share round-robin's 10 ms
// quantum.
func NewSVR4IA() *Policy { return newPolicy("svr4ia", 2) }

// NewNT is the NT/TSE policy: 32 levels keyed by each thread's current
// priority, a 30 ms quantum that Foreground threads get stretch times
// over (the administrator's 1-3x, clamped to that range), GUI wake boosts
// to priority 15 lasting two quanta, and the balance-set manager's
// anti-starvation scan once InstallBalanceSet arms it.
func NewNT(stretch int) *Policy {
	stretch = min(max(stretch, 1), 3)
	return &Policy{name: "nt", quantum: ntQuantum, fgQuantum: ntQuantum * simclock.Duration(stretch), nt: true,
		levels: make([][]*Thread, 32)}
}

// Name identifies the policy: "rr", "svr4ia" or "nt".
func (p *Policy) Name() string { return p.name }

// ReadyCount reports how many threads are queued (the paper's "scheduler
// queue length" x-axis).
func (p *Policy) ReadyCount() int { return p.ready }

// level is the level t queues at.
func (p *Policy) level(t *Thread) int {
	switch {
	case p.nt:
		return min(max(t.cur, 0), len(p.levels)-1)
	case t.Interactive:
		return len(p.levels) - 1
	}
	return 0
}

// quantumOf is the time slice t gets on dispatch.
func (p *Policy) quantumOf(t *Thread) simclock.Duration {
	if t.Foreground {
		return p.fgQuantum
	}
	return p.quantum
}

// preempts reports whether woken displaces running at once.
func (p *Policy) preempts(running, woken *Thread) bool {
	return p.level(woken) > p.level(running)
}

// wake queues a woken thread at its level's tail. Under NT a GUIBoost
// thread first takes the wake boost.
func (p *Policy) wake(t *Thread) {
	if p.nt && t.GUIBoost {
		t.boost(boostPriority, boostQuanta)
	}
	p.push(t)
}

// push queues t at its level's tail.
func (p *Policy) push(t *Thread) {
	l := p.level(t)
	p.levels[l] = append(p.levels[l], t)
	p.ready++
}

// pushHead queues t at its level's head. It shifts the level in place,
// so it allocates only when the level outgrows its array, as push does.
func (p *Policy) pushHead(t *Thread) {
	l := p.level(t)
	q := append(p.levels[l], nil)
	copy(q[1:], q)
	q[0] = t
	p.levels[l] = q
	p.ready++
}

// clear empties every level in place.
func (p *Policy) clear() {
	for l, q := range p.levels {
		clear(q)
		p.levels[l] = q[:0]
	}
	p.ready = 0
}

// next dequeues the head of the highest non-empty level, nil when no
// thread is ready.
func (p *Policy) next() *Thread {
	for l := len(p.levels) - 1; l >= 0; l-- {
		if q := p.levels[l]; len(q) > 0 {
			// A plain shift: slices.Delete's clear of the vacated tail
			// is a runtime call, and this runs on every dispatch.
			t := q[0]
			copy(q, q[1:])
			q[len(q)-1] = nil
			p.levels[l] = q[:len(q)-1]
			p.ready--
			return t
		}
	}
	return nil
}

// remove withdraws a ready thread, keeping its level's order.
func (p *Policy) remove(t *Thread) {
	l := p.level(t)
	if i := slices.Index(p.levels[l], t); i >= 0 {
		p.levels[l] = slices.Delete(p.levels[l], i, i+1)
		p.ready--
	}
}

// BalanceSetScan performs one pass of NT's balance-set manager: ready
// threads below priority 15 that have waited at least 4 s are boosted to
// 15 for a single quantum, at most 10 per pass. It returns how many
// threads were boosted.
func (p *Policy) BalanceSetScan(now simclock.Time) int {
	boosted := 0
	for l := 0; l < min(boostPriority, len(p.levels)) && boosted < scanLimit; l++ {
		for i := 0; i < len(p.levels[l]) && boosted < scanLimit; {
			t := p.levels[l][i]
			if now.Sub(t.readySince) < starvationWait {
				i++
				continue
			}
			p.levels[l] = slices.Delete(p.levels[l], i, i+1)
			p.ready--
			t.boost(boostPriority, 1)
			p.push(t)
			boosted++
		}
	}
	return boosted
}

// InstallBalanceSet arranges the balance-set scan on the engine once a
// second, until stop is called.
func (p *Policy) InstallBalanceSet(eng *simclock.Engine) (stop func()) {
	b := &balanceSet{p: p, eng: eng}
	b.tickFn = b.tick
	eng.At(eng.Now().Add(scanPeriod), b.tickFn, 0, 0)
	return b.stop
}

// balanceSet is an installed balance-set scan.
type balanceSet struct {
	p       *Policy
	eng     *simclock.Engine
	stopped bool
	tickFn  simclock.Func
}

// tick scans, then arms the next scan a period on.
func (b *balanceSet) tick(now simclock.Time, _, _ int) {
	if b.stopped {
		return
	}
	b.p.BalanceSetScan(now)
	b.eng.At(now.Add(scanPeriod), b.tickFn, 0, 0)
}

func (b *balanceSet) stop() { b.stopped = true }
