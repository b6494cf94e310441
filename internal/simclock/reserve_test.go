package simclock

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// dispatch is one callback firing as a lazyRig logs it: the instant,
// which callback fired, and its payload.
type dispatch struct {
	at   Time
	fn   int
	a, b int
}

// Callbacks a lazyRig logs.
const (
	fnRun         = iota // an event of a run
	fnShotBound          // a one-shot through a method value bound once
	fnShotClosure        // a one-shot through a fresh closure
)

// gridUnit is the grid a tape's instants and periods sit on, so run
// events, one-shots and deadlines collide often.
const gridUnit = 10 * Microsecond

// lazyRun is one run of events a tape queued: a periodic run, n events
// from at[0] every period, or a chain, one event at each of at's
// non-decreasing instants, gaps of zero included. res holds the lazy
// rig's reservation.
type lazyRun struct {
	at     []Time
	period Duration // 0 for a chain
	n      int
	res    Run
}

// next is the instant of the run's event k+1, given event k fires at now:
// a periodic run re-arms a period on, as the typing probe does, and a
// chain looks its next instant up, as the fleet walk does a seat's next
// episode.
func (run *lazyRun) next(now Time, k int) Time {
	if run.period > 0 {
		return now.Add(run.period)
	}
	return run.at[k+1]
}

// lazyRig is one engine driven by a tape. With eager false it reserves
// each run's sequence numbers when the tape queues the run, queues only
// the run's first event, and has each event queue the next when it fires;
// with eager true it queues every event of the run up front with At,
// which is the oracle. Everything else the tape does is the same call on
// both.
type lazyRig struct {
	eng   *Engine
	eager bool
	log   []dispatch
	runs  []lazyRun
	// left counts the queued runs' events not yet fired.
	left int
	// shots holds each one-shot's handle, by one-shot id, while live says
	// whether it is still pending: a handle is dead once its event fires.
	shots  []*Event
	live   []bool
	runFn  Func
	shotFn Func
}

func newLazyRig(eager bool) *lazyRig {
	r := &lazyRig{eng: NewEngine(), eager: eager}
	r.runFn = r.fire
	r.shotFn = r.shotBound
	return r
}

// queue queues a run: n events every period from first, or, with period
// 0, one event at each instant of at.
func (r *lazyRig) queue(at []Time, period Duration, n int) {
	id := len(r.runs)
	r.runs = append(r.runs, lazyRun{at: at, period: period, n: n})
	run := &r.runs[id]
	r.left += n
	if r.eager {
		for k := 0; k < n; k++ {
			when := at[0].Add(Duration(k) * period)
			if period == 0 {
				when = at[k]
			}
			r.eng.At(when, r.runFn, id, k)
		}
		return
	}
	run.res = r.eng.Reserve(n)
	if n > 0 {
		r.eng.AtReserved(&run.res, at[0], r.runFn, id, 0)
	}
}

// fire logs event k of run id and, on the lazy rig, first queues the
// run's next event, as the typing probe queues its next keystroke before
// it types. Some events then queue a one-shot from inside the callback:
// at their own instant, where it joins the same-tick FIFO behind a
// zero-gap chain's next event, or at the run's next instant, which the
// event reserved earlier must still win.
func (r *lazyRig) fire(now Time, id, k int) {
	run := &r.runs[id]
	r.log = append(r.log, dispatch{at: now, fn: fnRun, a: id, b: k})
	r.left--
	if !r.eager && run.res.Left() > 0 {
		r.eng.AtReserved(&run.res, run.next(now, k), r.runFn, id, k+1)
	}
	switch (id + k) % 3 {
	case 0:
		r.shot(now, k%2 == 0)
	case 1:
		if k+1 < run.n {
			r.shot(run.next(now, k), k%2 == 1)
		}
	}
}

// shot schedules a one-shot at when, through a fresh closure with the
// payload (id, 0), or through the bound shotFn with the payload (id, 7).
func (r *lazyRig) shot(when Time, closure bool) {
	id := len(r.shots)
	var ev *Event
	if closure {
		ev = r.eng.At(when, func(now Time, a, b int) {
			r.live[id] = false
			r.log = append(r.log, dispatch{at: now, fn: fnShotClosure, a: a, b: b})
		}, id, 0)
	} else {
		ev = r.eng.At(when, r.shotFn, id, 7)
	}
	r.shots = append(r.shots, ev)
	r.live = append(r.live, true)
}

func (r *lazyRig) shotBound(now Time, id, b int) {
	r.live[id] = false
	r.log = append(r.log, dispatch{at: now, fn: fnShotBound, a: id, b: b})
}

// cancel cancels the one-shot i, modulo the count, if it is still pending.
func (r *lazyRig) cancel(i int) bool {
	if len(r.shots) == 0 {
		return false
	}
	i %= len(r.shots)
	if !r.live[i] {
		return false
	}
	r.live[i] = false
	return r.eng.Cancel(r.shots[i])
}

// reset drops the rig's pending events, runs included: the lazy rig
// resets its engine, keeping its storage, and the eager oracle starts a
// fresh one, so what the tape queues next checks a reset engine against a
// new one. Every one-shot handle and every run dies with the events.
func (r *lazyRig) reset() {
	if r.eager {
		r.eng = NewEngine()
	} else {
		r.eng.Reset()
	}
	clear(r.live)
	r.left = 0
}

// chainTimes decodes a batch of 1–4 chains of 1–6 events from (x, y): each
// chain starts 1–8 grid units after now, its own index more, and steps
// 0, 1 or 2 units between events, so chain events fall on one another's
// instants, on one-shots' and on their own.
func chainTimes(now Time, x, y int) [][]Time {
	out := make([][]Time, 1+x%4)
	for c := range out {
		n := 1 + (x/4+c)%6
		at := now.Add(gridUnit * Duration(1+(y+c)%8))
		for k := 0; k < n; k++ {
			if k > 0 {
				at = at.Add(gridUnit * Duration((y>>uint(k%8)+c)%3))
			}
			out[c] = append(out[c], at)
		}
	}
	return out
}

// runLazyTape plays a tape of (op, x, y) byte triples on a lazy rig and
// on the eager oracle, checks the clock, Fired and the events left after
// every op, drains both, and compares the two dispatch logs. Runs of
// either kind may be open at once, any number of them. Every run starts
// after now: a run reserved now is newer than every event already queued
// at this instant, and AtReserved refuses to queue it there.
func runLazyTape(t *testing.T, tape []byte) {
	t.Helper()
	lazy, eager := newLazyRig(false), newLazyRig(true)
	rigs := [2]*lazyRig{lazy, eager}
	for i := 0; i+2 < len(tape); i += 3 {
		op, x, y := tape[i], int(tape[i+1]), int(tape[i+2])
		now := lazy.eng.Now()
		switch op % 7 {
		case 0: // a periodic run of 0–23 events, often on another's instants
			first := now.Add(gridUnit * Duration(1+x%8))
			period := gridUnit * Duration(1+y%4)
			for _, r := range rigs {
				r.queue([]Time{first}, period, (x/8)%24)
			}
		case 1: // a batch of chains
			for _, c := range chainTimes(now, x, y) {
				for _, r := range rigs {
					r.queue(c, 0, len(c))
				}
			}
		case 2: // a one-shot on the grid, often on a run's instant
			for _, r := range rigs {
				r.shot(now.Add(gridUnit*Duration(x%16)), y%2 == 1)
			}
		case 3:
			if a, b := lazy.cancel(x), eager.cancel(x); a != b {
				t.Fatalf("op %d: Cancel reported %v lazily, %v eagerly", i/3, a, b)
			}
		case 4: // a deadline, on or off the grid, that may cut runs
			deadline := now.Add(gridUnit*Duration(x%32) + Duration(y%3)*gridUnit/2)
			for _, r := range rigs {
				r.eng.RunUntil(deadline)
			}
		case 5:
			if a, b := lazy.eng.Step(), eager.eng.Step(); a != b {
				t.Fatalf("op %d: Step reported %v lazily, %v eagerly", i/3, a, b)
			}
		case 6: // drop everything pending; what follows replays from zero
			for _, r := range rigs {
				r.reset()
			}
			if lazy.eng.Pending() != 0 {
				t.Fatalf("op %d: %d events pending after Reset", i/3, lazy.eng.Pending())
			}
		}
		if lazy.eng.Now() != eager.eng.Now() || lazy.eng.Fired() != eager.eng.Fired() || lazy.left != eager.left {
			t.Fatalf("op %d: lazy engine at %v after %d events with %d run events left, eager at %v after %d with %d",
				i/3, lazy.eng.Now(), lazy.eng.Fired(), lazy.left, eager.eng.Now(), eager.eng.Fired(), eager.left)
		}
		if lazy.eng.Pending() > eager.eng.Pending() {
			t.Fatalf("op %d: lazy engine holds %d pending events, eager %d", i/3, lazy.eng.Pending(), eager.eng.Pending())
		}
	}
	for _, r := range rigs {
		r.eng.Drain(1 << 20)
	}
	if lazy.eng.Fired() != eager.eng.Fired() {
		t.Fatalf("Fired: %d lazily, %d eagerly", lazy.eng.Fired(), eager.eng.Fired())
	}
	if len(lazy.log) != len(eager.log) {
		t.Fatalf("%d dispatches lazily, %d eagerly", len(lazy.log), len(eager.log))
	}
	for k := range lazy.log {
		if lazy.log[k] != eager.log[k] {
			t.Fatalf("dispatch %d: %+v lazily, %+v eagerly", k, lazy.log[k], eager.log[k])
		}
	}
}

// repeatTapes and reserveTapes pin the cases the ordering argument rests
// on; they seed FuzzAtRepeat and FuzzAtReserved too. A repeat is a
// periodic run alone, the typing probe's shape: (0, 8n+f, p) queues n
// events from f+1 units after now, every p%4+1 units. reserveTapes add
// chains, (1, x, y) as chainTimes decodes them.
var repeatTapes = []struct {
	name string
	tape []byte
}{
	// Three periodic runs from the same instant every 10, 20 and 10 µs:
	// their events tie, and the third run's ties sort after the first's
	// by reservation order.
	{"same_start", []byte{0, 8 * 5, 0, 0, 8 * 5, 1, 0, 8 * 5, 4, 4, 31, 0}},
	// One-shots at 40 and 60 µs, then a run every 20 µs from 20 µs that
	// lands on both, a one-shot at 80 µs queued after it, and the run's
	// own callback-queued shots on its next events. The shot at 40 µs is
	// cancelled.
	{"period_lands_on_shots", []byte{2, 4, 0, 2, 6, 1, 0, 8*10 + 1, 1, 2, 8, 0, 3, 0, 0, 4, 31, 2}},
	// A run every 20 µs from 20 µs, cut by a deadline between two events
	// (55 µs), then by one on an event (100 µs), then stepped once.
	{"deadline_cuts", []byte{0, 8*20 + 1, 1, 4, 5, 1, 4, 4, 1, 5, 0, 0, 4, 31, 2}},
	// A run every 20 µs from 20 µs and one-shots at 40 and 90 µs, cut at
	// 30 µs and reset with the run and both shots pending; the shot
	// cancelled after the reset is dead, and the same schedule then
	// replays from zero on the reset engine's recycled events.
	{"reset_replays", []byte{0, 8*20 + 1, 1, 2, 4, 0, 2, 9, 1, 4, 3, 0, 6, 0, 0,
		3, 1, 0, 0, 8*20 + 1, 1, 2, 4, 0, 4, 31, 2}},
}

var reserveTapes = []struct {
	name string
	tape []byte
}{
	// Four chains of up to six events with zero gaps: a chain's next event
	// due at the very instant its current one fires enters the heap ahead
	// of the one-shots that instant queues.
	{"zero_gaps", []byte{1, 4*5 + 3, 0, 4, 31, 0, 4, 31, 0, 4, 31, 0}},
	// One-shots on the grid first, then chains landing on their instants,
	// stepped one event at a time, with a one-shot cancelled.
	{"shots_first", []byte{2, 1, 0, 2, 2, 0, 2, 3, 0, 1, 4*2 + 1, 8, 5, 0, 0, 5, 0, 0, 3, 1, 0, 5, 0, 0, 4, 31, 2}},
	// A periodic run and a batch of chains open at once, queued mid-run,
	// with a second periodic run queued while both are half done.
	{"runs_overlap", []byte{0, 8*12 + 2, 0, 1, 4*3 + 2, 5, 4, 6, 0, 0, 8 * 6, 2, 4, 31, 1}},
	// A periodic run, chains and two one-shots, cut at 30 µs and reset
	// with events of each pending; the shot cancelled after the reset is
	// dead, and the same schedule then replays from zero on the reset
	// engine's recycled events.
	{"reset_replays", []byte{0, 8*20 + 1, 1, 1, 4*3 + 2, 5, 2, 4, 0, 2, 9, 1, 4, 3, 0, 6, 0, 0,
		3, 1, 0, 0, 8*20 + 1, 1, 1, 4*3 + 2, 5, 2, 4, 0, 4, 31, 2}},
}

// randomTape is seed's tape of 20–219 random (op, x, y) triples.
func randomTape(seed uint64) []byte {
	r := NewRand(seed)
	tape := make([]byte, 3*(20+r.Intn(200)))
	for i := range tape {
		tape[i] = byte(r.Intn(256))
	}
	return tape
}

// repeatsOnly returns a copy of tape whose batches of chains are periodic
// runs instead, so every run it queues is a repeat.
func repeatsOnly(tape []byte) []byte {
	out := slices.Clone(tape)
	for i := 0; i+2 < len(out); i += 3 {
		if out[i]%7 == 1 {
			out[i]--
		}
	}
	return out
}

// TestAtRepeatMatchesEagerSchedule plays the pinned repeat tapes and
// random ones with every run a repeat through both rigs: periodic runs
// mixed with one-shots at colliding instants, cancellations, deadlines
// that cut runs mid-way, and resets.
func TestAtRepeatMatchesEagerSchedule(t *testing.T) {
	for _, tc := range repeatTapes {
		t.Run(tc.name, func(t *testing.T) { runLazyTape(t, tc.tape) })
	}
	for seed := uint64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runLazyTape(t, repeatsOnly(randomTape(seed))) })
	}
}

// TestAtReservedMatchesEagerSchedule plays the pinned tapes with chains
// and random ones through both rigs: periodic runs and chains open
// together, mixed with one-shots at colliding instants, cancellations,
// deadlines that cut runs mid-way, and resets.
func TestAtReservedMatchesEagerSchedule(t *testing.T) {
	for _, tc := range reserveTapes {
		t.Run(tc.name, func(t *testing.T) { runLazyTape(t, tc.tape) })
	}
	for seed := uint64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runLazyTape(t, randomTape(seed)) })
	}
}

// FuzzAtRepeat plays arbitrary tapes, every run a repeat, through a lazy
// rig and the eager oracle; their dispatch logs and Fired counts must be
// equal. FuzzAtReserved's tapes include these.
func FuzzAtRepeat(f *testing.F) {
	for _, tc := range repeatTapes {
		f.Add(tc.tape)
	}
	f.Fuzz(func(t *testing.T, tape []byte) { runLazyTape(t, repeatsOnly(tape)) })
}

// FuzzAtReserved plays arbitrary tapes, periodic runs and chains mixed,
// through a lazy rig and the eager oracle; their dispatch logs and Fired
// counts must be equal.
func FuzzAtReserved(f *testing.F) {
	for _, tc := range slices.Concat(reserveTapes, repeatTapes) {
		f.Add(tc.tape)
	}
	f.Fuzz(runLazyTape)
}

// TestAtRepeatHoldsOneEvent checks the point of a repeat: a thousand
// events that re-arm from their own callback keep one event pending, and
// the run fires them all at first + k·period with its payload.
func TestAtRepeatHoldsOneEvent(t *testing.T) {
	e := NewEngine()
	run := e.Reserve(1000)
	var got []Time
	var tick Func
	tick = func(now Time, a, b int) {
		if a != 3 || b != 4 {
			t.Fatalf("payload (%d, %d), want (3, 4)", a, b)
		}
		got = append(got, now)
		if run.Left() > 0 {
			e.AtReserved(&run, now.Add(50), tick, a, b)
		}
	}
	e.AtReserved(&run, 5, tick, 3, 4)
	if e.Pending() != 1 || run.Left() != 999 {
		t.Fatalf("Pending = %d and %d left after the first event, want 1 and 999", e.Pending(), run.Left())
	}
	e.RunUntil(5 + 50*499)
	if len(got) != 500 || e.Pending() != 1 {
		t.Fatalf("after a cut: %d fired, %d pending; want 500 and 1", len(got), e.Pending())
	}
	e.Drain(2000)
	if len(got) != 1000 || e.Fired() != 1000 || run.Left() != 0 {
		t.Fatalf("%d events, %d fired, %d left; want 1000, 1000 and 0", len(got), e.Fired(), run.Left())
	}
	for k, at := range got {
		if at != Time(5+50*k) {
			t.Fatalf("event %d at %v, want %v", k, at, Time(5+50*k))
		}
	}
}

// TestAtReservedEntersHeapAtNow checks the one push the FIFO must not
// take: an event reserved before this instant and queued at it fires
// ahead of the events this instant queued already, because its sequence
// number is older than theirs.
func TestAtReservedEntersHeapAtNow(t *testing.T) {
	e := NewEngine()
	run := e.Reserve(2)
	var got []int
	log := func(_ Time, a, _ int) { got = append(got, a) }
	e.At(10, func(now Time, _, _ int) {
		e.At(now, log, 2, 0)
		e.At(now, log, 3, 0)
		e.AtReserved(&run, now, log, 1, 0)
	}, 0, 0)
	e.AtReserved(&run, 10, log, 0, 0)
	e.Drain(10)
	if fmt.Sprint(got) != "[0 1 2 3]" {
		t.Fatalf("fired %v, want [0 1 2 3]", got)
	}
}

// wantPanic runs call and checks that it panics with a message holding
// want.
func wantPanic(t *testing.T, name, want string, call func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s did not panic", name)
		} else if !strings.Contains(fmt.Sprint(r), want) {
			t.Errorf("%s panicked with %q, want %q", name, r, want)
		}
	}()
	call()
}

// TestAtRepeatRejects checks the contract a repeat meets from its own
// callback, where the typing probe re-arms: re-arming past the run's last
// event, or a period below zero, panics at that very re-arm, and a count
// that is not positive reserves nothing, so the run has no event to queue.
func TestAtRepeatRejects(t *testing.T) {
	// repeat returns a call that queues a run of n events on e from 100
	// every period, each re-arming the next from its callback whether or
	// not any is left.
	var e *Engine
	repeat := func(n int, period Duration) func() {
		return func() {
			e = NewEngine()
			run := e.Reserve(n)
			var tick Func
			tick = func(now Time, _, _ int) { e.AtReserved(&run, now.Add(period), tick, 0, 0) }
			e.AtReserved(&run, 100, tick, 0, 0)
			e.Drain(10)
		}
	}
	wantPanic(t, "a re-arm past the last event", "no reserved sequence number left", repeat(3, 10))
	if e.Fired() != 3 {
		t.Errorf("a run of 3 fired %d events before its re-arm panicked, want 3", e.Fired())
	}
	wantPanic(t, "a negative period", "before now", repeat(3, -10))
	if e.Fired() != 1 {
		t.Errorf("a run every -10 µs fired %d events before its re-arm panicked, want 1", e.Fired())
	}

	e = NewEngine()
	for _, n := range []int{0, -1, -1 << 40} {
		if run := e.Reserve(n); run.Left() != 0 || e.seq != 0 {
			t.Fatalf("Reserve(%d) left %d in the run and seq %d, want 0 and 0", n, run.Left(), e.seq)
		}
	}
}

// TestAtReservedRejects checks the argument contract: a run with nothing
// left, a run this engine did not issue, an instant before now, and a
// sequence number newer than an event already queued at the current
// instant all panic.
func TestAtReservedRejects(t *testing.T) {
	fn := func(Time, int, int) {}
	mustPanic := func(name, want string, call func(e *Engine)) {
		t.Helper()
		e := NewEngine()
		e.RunUntil(100)
		wantPanic(t, name, want, func() { call(e) })
	}
	mustPanic("the zero run", "no reserved sequence number left", func(e *Engine) { e.AtReserved(&Run{}, 100, fn, 0, 0) })
	mustPanic("a run used up", "no reserved sequence number left", func(e *Engine) {
		run := e.Reserve(1)
		e.AtReserved(&run, 200, fn, 0, 0)
		e.AtReserved(&run, 200, fn, 0, 0)
	})
	mustPanic("a run kept across Reset", "not reserved on this engine", func(e *Engine) {
		run := e.Reserve(2)
		e.Reset()
		e.AtReserved(&run, 200, fn, 0, 0)
	})
	mustPanic("another engine's run", "not reserved on this engine", func(e *Engine) {
		other := NewEngine()
		other.Reserve(3)
		run := other.Reserve(2)
		e.Reserve(1)
		e.AtReserved(&run, 200, fn, 0, 0)
	})
	mustPanic("before now", "before now", func(e *Engine) {
		run := e.Reserve(1)
		e.AtReserved(&run, 99, fn, 0, 0)
	})
	mustPanic("newer than this instant's", "newer than event", func(e *Engine) {
		e.At(100, func(now Time, _, _ int) {
			e.At(now, fn, 0, 0)
			run := e.Reserve(1)
			e.AtReserved(&run, now, fn, 0, 0)
		}, 0, 0)
		e.Step()
	})
}
