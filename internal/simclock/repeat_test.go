package simclock

import (
	"fmt"
	"testing"
)

// dispatch is one callback firing as a repeatRig logs it: the instant,
// which callback fired, and its payload.
type dispatch struct {
	at   Time
	fn   int
	a, b int
}

// Callbacks a repeatRig logs.
const (
	fnSeries      = iota // an occurrence of a series
	fnShotBound          // a one-shot through a method value bound once
	fnShotClosure        // a one-shot through a fresh closure
)

// repeatRig is one engine driven by a tape. With expand false it schedules
// a series with AtRepeat; with expand true it schedules every occurrence up
// front with At, the eager loop AtRepeat replaced, which is the oracle.
// Everything else the tape does is the same call on both.
type repeatRig struct {
	eng    *Engine
	expand bool
	log    []dispatch
	// shots holds each one-shot's handle, by one-shot id, while live says
	// whether it is still pending: a handle is dead once its event fires.
	shots    []*Event
	live     []bool
	seriesFn Func
	shotFn   Func
}

func newRepeatRig(expand bool) *repeatRig {
	r := &repeatRig{eng: NewEngine(), expand: expand}
	r.seriesFn = r.occurrence
	r.shotFn = r.shotBound
	return r
}

// series schedules n occurrences of a series from first, every period. Its
// payload is (id, period).
func (r *repeatRig) series(first Time, period Duration, n, id int) {
	if !r.expand {
		r.eng.AtRepeat(first, period, n, r.seriesFn, id, int(period))
		return
	}
	for k := 0; k < n; k++ {
		r.eng.At(first.Add(Duration(k)*period), r.seriesFn, id, int(period))
	}
}

// shot schedules a one-shot at when, through a fresh closure with the
// payload (id, 0), or through the bound shotFn with the payload (id, 7).
func (r *repeatRig) shot(when Time, closure bool) {
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

// cancel cancels the one-shot i, modulo the count, if it is still pending.
func (r *repeatRig) cancel(i int) bool {
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

// occurrence logs a series firing. Every third series schedules a one-shot
// at the instant of its own next occurrence, from inside its callback: the
// occurrence reserved earlier must still fire first.
func (r *repeatRig) occurrence(now Time, id, period int) {
	r.log = append(r.log, dispatch{at: now, fn: fnSeries, a: id, b: period})
	if id%3 == 0 {
		r.shot(now.Add(Duration(period)), id%2 == 0)
	}
}

func (r *repeatRig) shotBound(now Time, id, b int) {
	r.live[id] = false
	r.log = append(r.log, dispatch{at: now, fn: fnShotBound, a: id, b: b})
}

// repeatUnit is the grid a tape's instants and periods sit on, so series
// occurrences, one-shots and deadlines collide often.
const repeatUnit = 10 * Microsecond

// reset drops the rig's pending events: the AtRepeat rig resets its
// engine, keeping its storage, and the eager oracle starts a fresh one, so
// what the tape schedules next checks a reset engine against a new one.
// Every one-shot handle dies with the events.
func (r *repeatRig) reset() {
	if r.expand {
		r.eng = NewEngine()
	} else {
		r.eng.Reset()
	}
	clear(r.live)
}

// runRepeatTape plays a tape of (op, x, y) byte triples on an AtRepeat
// engine and on the eager oracle, checks the clock and Fired after every
// op, drains both, and compares the two dispatch logs.
func runRepeatTape(t *testing.T, tape []byte) {
	t.Helper()
	rep, eager := newRepeatRig(false), newRepeatRig(true)
	rigs := [2]*repeatRig{rep, eager}
	series := 0
	for i := 0; i+2 < len(tape); i += 3 {
		op, x, y := tape[i], int(tape[i+1]), int(tape[i+2])
		now := rep.eng.Now()
		switch op % 7 {
		case 0, 1: // a series, possibly at the same instant as another
			first := now.Add(repeatUnit * Duration(x%8))
			period := repeatUnit * Duration(1+y%4)
			n := (x / 8) % 24
			for _, r := range rigs {
				r.series(first, period, n, series)
			}
			series++
		case 2: // a one-shot on the grid, often on a series' instant
			for _, r := range rigs {
				r.shot(now.Add(repeatUnit*Duration(x%16)), y%2 == 1)
			}
		case 3: // cancel a one-shot
			if a, b := rep.cancel(x), eager.cancel(x); a != b {
				t.Fatalf("op %d: Cancel reported %v with AtRepeat, %v eagerly", i/3, a, b)
			}
		case 4: // a deadline, on or off the grid, that may cut series
			deadline := now.Add(repeatUnit*Duration(x%32) + Duration(y%3)*repeatUnit/2)
			for _, r := range rigs {
				r.eng.RunUntil(deadline)
			}
		case 5:
			if a, b := rep.eng.Step(), eager.eng.Step(); a != b {
				t.Fatalf("op %d: Step reported %v with AtRepeat, %v eagerly", i/3, a, b)
			}
		case 6: // drop everything pending; what follows replays from zero
			for _, r := range rigs {
				r.reset()
			}
			if rep.eng.Pending() != 0 {
				t.Fatalf("op %d: %d events pending after Reset", i/3, rep.eng.Pending())
			}
		}
		if rep.eng.Now() != eager.eng.Now() || rep.eng.Fired() != eager.eng.Fired() {
			t.Fatalf("op %d: AtRepeat engine at %v after %d events, eager at %v after %d",
				i/3, rep.eng.Now(), rep.eng.Fired(), eager.eng.Now(), eager.eng.Fired())
		}
		if rep.eng.Pending() > eager.eng.Pending() {
			t.Fatalf("op %d: AtRepeat engine holds %d pending events, eager %d",
				i/3, rep.eng.Pending(), eager.eng.Pending())
		}
	}
	for _, r := range rigs {
		r.eng.Drain(1 << 20)
	}
	if rep.eng.Fired() != eager.eng.Fired() {
		t.Fatalf("Fired: %d with AtRepeat, %d eagerly", rep.eng.Fired(), eager.eng.Fired())
	}
	if len(rep.log) != len(eager.log) {
		t.Fatalf("%d dispatches with AtRepeat, %d eagerly", len(rep.log), len(eager.log))
	}
	for k := range rep.log {
		if rep.log[k] != eager.log[k] {
			t.Fatalf("dispatch %d: %+v with AtRepeat, %+v eagerly", k, rep.log[k], eager.log[k])
		}
	}
}

// repeatTapes pin the cases the ordering argument rests on; they seed
// FuzzAtRepeat too.
var repeatTapes = []struct {
	name string
	tape []byte
}{
	// Three series from the same instant with periods 10, 20 and 10 µs:
	// occurrences of all three tie, and the third series' ties sort after
	// the first's by reservation order.
	{"same_start", []byte{0, 8 * 5, 0, 0, 8 * 5, 1, 0, 8 * 5, 4, 4, 31, 0}},
	// One-shots at 40 and 60 µs, then a series every 20 µs from zero that
	// lands on both, a one-shot at 80 µs scheduled after it, and the
	// series' own callback-spawned shots on its next occurrences. The shot
	// at 40 µs is cancelled.
	{"period_lands_on_shots", []byte{2, 4, 0, 2, 6, 1, 0, 8 * 10, 2, 2, 8, 0, 3, 0, 0, 4, 31, 2}},
	// A series every 20 µs from zero, cut by a deadline between two
	// occurrences (55 µs), then by one on an occurrence (100 µs), then
	// stepped once.
	{"deadline_cuts", []byte{1, 8 * 20, 1, 4, 5, 1, 4, 4, 1, 5, 0, 0, 4, 31, 2}},
	// A series every 20 µs and two one-shots, cut at 30 µs and reset with
	// the series and a one-shot pending; the shot cancelled after the
	// reset is dead, and the same schedule then replays from zero on the
	// reset engine's recycled events.
	{"reset_replays", []byte{1, 8 * 20, 1, 2, 4, 0, 2, 9, 1, 4, 3, 0, 6, 0, 0, 3, 1, 0, 1, 8 * 20, 1, 2, 4, 0, 4, 31, 2}},
}

// TestAtRepeatMatchesEagerSchedule plays the pinned tapes and random ones
// through both engines: series mixed with one-shots at colliding instants,
// cancellations, and deadlines that cut series mid-way.
func TestAtRepeatMatchesEagerSchedule(t *testing.T) {
	for _, tc := range repeatTapes {
		t.Run(tc.name, func(t *testing.T) { runRepeatTape(t, tc.tape) })
	}
	for seed := uint64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := NewRand(seed)
			tape := make([]byte, 3*(20+r.Intn(200)))
			for i := range tape {
				tape[i] = byte(r.Intn(256))
			}
			runRepeatTape(t, tape)
		})
	}
}

// FuzzAtRepeat plays arbitrary tapes through an AtRepeat engine and the
// eager oracle; their dispatch logs and Fired counts must be equal.
func FuzzAtRepeat(f *testing.F) {
	for _, tc := range repeatTapes {
		f.Add(tc.tape)
	}
	f.Fuzz(runRepeatTape)
}

// TestAtRepeatHoldsOneEvent checks the point of the series: a thousand
// occurrences keep one event pending, and the series fires them all at
// first + k·period with its payload.
func TestAtRepeatHoldsOneEvent(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.AtRepeat(5, 50, 1000, func(now Time, a, b int) {
		if a != 3 || b != 4 {
			t.Fatalf("payload (%d, %d), want (3, 4)", a, b)
		}
		got = append(got, now)
	}, 3, 4)
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after AtRepeat, want 1", e.Pending())
	}
	e.RunUntil(5 + 50*499)
	if len(got) != 500 || e.Pending() != 1 {
		t.Fatalf("after a cut: %d fired, %d pending; want 500 and 1", len(got), e.Pending())
	}
	e.Drain(2000)
	if len(got) != 1000 || e.Fired() != 1000 {
		t.Fatalf("%d occurrences, %d fired; want 1000", len(got), e.Fired())
	}
	for k, at := range got {
		if at != Time(5+50*k) {
			t.Fatalf("occurrence %d at %v, want %v", k, at, Time(5+50*k))
		}
	}
}

// TestAtRepeatRejects checks the argument contract: a first before now or
// a period that is not positive panics, and a count that is not positive
// schedules nothing and reserves no sequence number.
func TestAtRepeatRejects(t *testing.T) {
	fn := func(Time, int, int) {}
	mustPanic := func(name string, call func(e *Engine)) {
		t.Helper()
		e := NewEngine()
		e.RunUntil(100)
		defer func() {
			t.Helper()
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		call(e)
	}
	mustPanic("first before now", func(e *Engine) { e.AtRepeat(99, 10, 3, fn, 0, 0) })
	mustPanic("zero period", func(e *Engine) { e.AtRepeat(100, 0, 3, fn, 0, 0) })
	mustPanic("negative period", func(e *Engine) { e.AtRepeat(100, -10, 3, fn, 0, 0) })

	e := NewEngine()
	for _, n := range []int{0, -1, -1 << 40} {
		e.AtRepeat(0, 10, n, fn, 0, 0)
		if e.Pending() != 0 || e.seq != 0 {
			t.Fatalf("AtRepeat with n = %d left %d pending and seq %d, want 0 and 0", n, e.Pending(), e.seq)
		}
	}
}
