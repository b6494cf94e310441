// Package simclock provides the virtual time base and discrete-event engine
// on which every simulated subsystem (scheduler, virtual memory, network)
// runs. Time is represented as integer microseconds so that event ordering is
// exact and runs are deterministic for a given seed.
package simclock

import "fmt"

// Time is a point in virtual time, in microseconds since simulation start.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Convenient duration units.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
	Minute      Duration = 60 * Second
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds converts the time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e6 }

// Milliseconds converts the time to floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / 1e3 }

func (t Time) String() string { return fmt.Sprintf("%.3fms", float64(t)/1e3) }

// Seconds converts the duration to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e6 }

// Milliseconds converts the duration to floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / 1e3 }

func (d Duration) String() string { return fmt.Sprintf("%.3fms", float64(d)/1e3) }

// Millis builds a Duration from a floating-point number of milliseconds.
func Millis(ms float64) Duration { return Duration(ms * 1e3) }

// Func is the engine's one callback form: it fires at now with the integer
// payload (a, b) it was scheduled with. A caller binds a method value once
// and passes per-event state in the payload, so scheduling allocates no
// closure; a callback that needs no payload ignores it.
type Func func(now Time, a, b int)

// Event is a scheduled callback. Events fire in timestamp order; ties are
// broken by insertion order so that runs are fully deterministic.
//
// An *Event handle is valid only while the event is pending: once it fires
// or is cancelled, the engine may recycle the struct for a later schedule,
// so callers must drop (or overwrite) their reference no later than the
// callback returning. Holding a handle across its own firing and then
// calling Cancel on it observes the recycled event.
type Event struct {
	when Time
	seq  uint64
	fn   Func
	a, b int
	idx  int // slot id in the queue, -1 when not pending
}

// Engine is a discrete-event simulator: a virtual clock plus an ordered queue
// of pending events. The zero value is an engine at time zero with no
// pending events, the same as NewEngine returns.
type Engine struct {
	now   Time
	seq   uint64
	queue eventQueue
	fired uint64
	// free recycles fired and cancelled Event structs so steady-state
	// dispatch does not allocate.
	free []*Event
	// block is the current carve-out chunk and carve how many of its
	// events are still uncut: when the free list is empty, events come off
	// it one by one, so growing the pending set by N costs N/eventBlock
	// allocations instead of N.
	block *[eventBlock]Event
	carve int
}

// eventBlock is the carve-out chunk size for fresh Event structs. An event
// is 48 bytes, and a block of pointerful objects over 512 B carries the
// runtime's 8-byte allocation header, so 101 events take 4,856 B and fill
// the 4,864-B size class; 102 would spill into the 5,376-B class.
const eventBlock = 101

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine { return &Engine{} }

// Reset returns the engine to the zero value's state, the clock at zero
// with no pending events, keeping its storage: pending events are dropped
// unfired and join the free events, and the queue keeps its arrays, so a
// run on a reset engine allocates only past the last run's high-water
// mark. Every handle to a pending event dies here, and so does every run
// reserved before it. A reset engine fires exactly what a fresh one would,
// since the dispatch order reads only (when, seq), and seq restarts at
// zero.
func (e *Engine) Reset() {
	for _, ev := range e.queue.slots {
		if ev != nil {
			ev.idx = -1
			e.recycle(ev)
		}
	}
	e.queue.reset()
	e.now, e.seq, e.fired = 0, 0, 0
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of events still queued.
func (e *Engine) Pending() int { return e.queue.len() }

// alloc takes an Event from the free list (or the heap) and stamps it with
// the dispatch key (when, seq).
func (e *Engine) alloc(when Time, seq uint64, fn Func, a, b int) *Event {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		if e.carve == 0 {
			e.block, e.carve = new([eventBlock]Event), eventBlock
		}
		ev = &e.block[eventBlock-e.carve]
		e.carve--
	}
	ev.when, ev.seq = when, seq
	ev.fn, ev.a, ev.b = fn, a, b
	ev.idx = -1
	return ev
}

// recycle returns a fired or cancelled event to the free list. The
// callback has returned or will never run, and the handle is dead by
// contract, so nothing can observe the reuse. The callback is dropped
// immediately so it does not outlive the event.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	e.free = append(e.free, ev)
}

// At schedules fn to fire with (a, b) at the absolute virtual time when.
// Scheduling in the past (before Now) panics: it always indicates a
// simulation bug.
func (e *Engine) At(when Time, fn Func, a, b int) *Event {
	if when < e.now {
		panic(fmt.Sprintf("simclock: scheduling event at %v before now %v", when, e.now))
	}
	ev := e.alloc(when, e.seq, fn, a, b)
	e.seq++
	e.queue.push(ev)
	return ev
}

// Run is a run of sequence numbers Reserve set aside: the ones its
// events are still to be queued under, in order. A caller holds its runs
// as values, any number at once, and queues each run's events one by one
// with AtReserved, through a pointer to the one run: a copy would hand
// out the same numbers twice. The zero Run has nothing left.
type Run struct{ next, end uint64 }

// Left reports how many of the run's events are still to be queued.
func (r *Run) Left() int { return int(r.end - r.next) }

// Reserve sets the next n sequence numbers aside as a run, for AtReserved
// to queue events under later. Event k of the run then takes the
// (when, seq) key the k-th of n At calls made here would have given it,
// so a caller can queue a long run lazily, each event once it is needed,
// and still have the run fire in exactly the order of the eager schedule:
// a fixed-rate series that re-arms from its own callback, such as a
// session's typing probe, or a chain of arbitrary instants, such as a
// fleet seat's episodes. n <= 0 reserves nothing.
func (e *Engine) Reserve(n int) Run {
	r := Run{next: e.seq, end: e.seq + uint64(max(n, 0))}
	e.seq = r.end
	return r
}

// AtReserved schedules fn to fire with (a, b) at when under r's next
// sequence number, which it takes from the run. The event enters the
// queue's heap, also at the current instant, where an At joins the
// same-tick FIFO: its number is older than every event scheduled after
// the reservation. A run with nothing left, a run reaching past the
// numbers this engine has handed out (another engine's, or one kept
// across Reset, until the engine has handed out as many again), a when
// before Now, or a number newer than an event already queued at this very
// instant panics: each would fire out of the eager schedule's order.
func (e *Engine) AtReserved(r *Run, when Time, fn Func, a, b int) {
	if when < e.now {
		panic(fmt.Sprintf("simclock: scheduling event at %v before now %v", when, e.now))
	}
	if r.next >= r.end {
		panic("simclock: the run has no reserved sequence number left")
	}
	if r.end > e.seq {
		panic(fmt.Sprintf("simclock: sequence numbers up to %d were not reserved on this engine", r.end))
	}
	seq := r.next
	if when == e.queue.last {
		if ev := e.queue.fifoHead(); ev != nil && ev.seq < seq {
			panic(fmt.Sprintf("simclock: reserved sequence number %d is newer than event %d, queued at %v already", seq, ev.seq, when))
		}
	}
	r.next++
	e.queue.pushHeap(e.alloc(when, seq, fn, a, b))
}

// Cancel removes a pending event and recycles it, as firing does, so the
// handle dies here: the next scheduling may reuse the event, and the
// caller must drop it. Cancel on nil, or on an event that has fired or
// been cancelled and not been reused since, is a no-op and returns false.
// The queue keeps a tombstone that names the event's slot, not the event,
// so the reuse cannot disturb it.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.idx < 0 {
		return false
	}
	e.queue.remove(ev)
	e.recycle(ev)
	return true
}

// Step dispatches the single earliest pending event, advancing the clock to
// its timestamp. It reports false when no events remain.
func (e *Engine) Step() bool {
	ev := e.queue.pop()
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

func (e *Engine) fire(ev *Event) {
	e.now = ev.when
	e.fired++
	ev.fn(e.now, ev.a, ev.b)
	e.recycle(ev)
}

// RunUntil dispatches events until the clock would pass deadline or the queue
// drains. The clock finishes exactly at deadline.
func (e *Engine) RunUntil(deadline Time) {
	for {
		ev := e.queue.popLE(deadline)
		if ev == nil {
			break
		}
		e.fire(ev)
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// Drain runs until no events remain. The limit guards against runaway
// self-rescheduling loops; Drain panics if more than limit events fire.
func (e *Engine) Drain(limit uint64) {
	start := e.fired
	for e.Step() {
		if e.fired-start > limit {
			panic("simclock: Drain exceeded event limit; runaway reschedule loop?")
		}
	}
}
