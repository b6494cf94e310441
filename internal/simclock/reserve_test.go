package simclock

import (
	"fmt"
	"strings"
	"testing"
)

// Callbacks a reserveRig logs.
const (
	fnLink = iota // an event of a chain
	fnShot        // a one-shot
)

// reserveRig is one engine driven by a tape. A chain is a run of events
// at non-decreasing instants, gaps of zero included. With eager false the
// rig reserves every chain's sequence numbers at once and queues only each
// chain's next event, which queues the one after it when it fires, as the
// fleet walk queues a seat's episodes; with eager true it queues every
// event up front with At, which is the oracle. Everything else the tape
// does is the same call on both.
type reserveRig struct {
	eng   *Engine
	eager bool
	log   []dispatch
	// at holds each chain's instants and first its first sequence
	// number; left counts the chain events not yet fired.
	at     [][]Time
	first  []uint64
	left   int
	shots  []*Event
	live   []bool
	linkFn Func
	shotFn Func
}

func newReserveRig(eager bool) *reserveRig {
	r := &reserveRig{eng: NewEngine(), eager: eager}
	r.linkFn = r.link
	r.shotFn = r.shot
	return r
}

// chains queues a batch of chains, each a run of instants.
func (r *reserveRig) chains(at [][]Time) {
	r.at, r.first = at, r.first[:0]
	n := 0
	for _, c := range at {
		n += len(c)
	}
	r.left = n
	if r.eager {
		for c, ts := range at {
			for k, when := range ts {
				r.eng.At(when, r.linkFn, c, k)
			}
		}
		return
	}
	seq := r.eng.Reserve(n)
	for c, ts := range at {
		r.first = append(r.first, seq)
		r.eng.AtReserved(ts[0], seq, r.linkFn, c, 0)
		seq += uint64(len(ts))
	}
}

// link logs chain c's event k and, on the lazy rig, queues event k+1.
// Every other link also queues a one-shot at its own instant, which lands
// in the same-tick FIFO, behind any chain event due at this instant.
func (r *reserveRig) link(now Time, c, k int) {
	r.log = append(r.log, dispatch{at: now, fn: fnLink, a: c, b: k})
	r.left--
	if !r.eager && k+1 < len(r.at[c]) {
		r.eng.AtReserved(r.at[c][k+1], r.first[c]+uint64(k+1), r.linkFn, c, k+1)
	}
	if (c+k)%2 == 0 {
		r.queueShot(now)
	}
}

func (r *reserveRig) queueShot(when Time) {
	r.shots = append(r.shots, r.eng.At(when, r.shotFn, len(r.shots), 0))
	r.live = append(r.live, true)
}

func (r *reserveRig) shot(now Time, id, _ int) {
	r.live[id] = false
	r.log = append(r.log, dispatch{at: now, fn: fnShot, a: id})
}

// cancel cancels the one-shot i, modulo the count, if it is still pending.
func (r *reserveRig) cancel(i int) bool {
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

// reset drops the rig's pending events, chains included: the lazy rig
// resets its engine and the eager oracle starts a fresh one.
func (r *reserveRig) reset() {
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
		at := now.Add(repeatUnit * Duration(1+(y+c)%8))
		for k := 0; k < n; k++ {
			if k > 0 {
				at = at.Add(repeatUnit * Duration((y>>uint(k%8)+c)%3))
			}
			out[c] = append(out[c], at)
		}
	}
	return out
}

// runReserveTape plays a tape of (op, x, y) byte triples on a lazy rig and
// on the eager oracle, checks the clock and Fired after every op, drains
// both, and compares the two dispatch logs. A batch of chains is queued
// only once the last one has fired, since the engine keeps one
// reservation at a time.
func runReserveTape(t *testing.T, tape []byte) {
	t.Helper()
	lazy, eager := newReserveRig(false), newReserveRig(true)
	rigs := [2]*reserveRig{lazy, eager}
	for i := 0; i+2 < len(tape); i += 3 {
		op, x, y := tape[i], int(tape[i+1]), int(tape[i+2])
		now := lazy.eng.Now()
		switch op % 7 {
		case 0, 1:
			if lazy.left > 0 {
				break
			}
			at := chainTimes(now, x, y)
			for _, r := range rigs {
				r.chains(at)
			}
		case 2: // a one-shot on the grid, often on a chain's instant
			for _, r := range rigs {
				r.queueShot(now.Add(repeatUnit * Duration(x%16)))
			}
		case 3:
			if a, b := lazy.cancel(x), eager.cancel(x); a != b {
				t.Fatalf("op %d: Cancel reported %v lazily, %v eagerly", i/3, a, b)
			}
		case 4: // a deadline, on or off the grid
			deadline := now.Add(repeatUnit*Duration(x%32) + Duration(y%3)*repeatUnit/2)
			for _, r := range rigs {
				r.eng.RunUntil(deadline)
			}
		case 5:
			if a, b := lazy.eng.Step(), eager.eng.Step(); a != b {
				t.Fatalf("op %d: Step reported %v lazily, %v eagerly", i/3, a, b)
			}
		case 6:
			for _, r := range rigs {
				r.reset()
			}
		}
		if lazy.eng.Now() != eager.eng.Now() || lazy.eng.Fired() != eager.eng.Fired() || lazy.left != eager.left {
			t.Fatalf("op %d: lazy engine at %v after %d events with %d chain events left, eager at %v after %d with %d",
				i/3, lazy.eng.Now(), lazy.eng.Fired(), lazy.left, eager.eng.Now(), eager.eng.Fired(), eager.left)
		}
		if lazy.eng.Pending() > eager.eng.Pending() {
			t.Fatalf("op %d: lazy engine holds %d pending events, eager %d", i/3, lazy.eng.Pending(), eager.eng.Pending())
		}
	}
	for _, r := range rigs {
		r.eng.Drain(1 << 20)
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

// reserveTapes pin the cases the ordering argument rests on; they seed
// FuzzAtReserved too.
var reserveTapes = []struct {
	name string
	tape []byte
}{
	// Four chains of up to six events with zero gaps: a chain's next event
	// due at the very instant its current one fires enters the heap ahead
	// of the one-shots that instant queues.
	{"zero_gaps", []byte{0, 4*5 + 3, 0, 4, 31, 0, 4, 31, 0, 4, 31, 0}},
	// One-shots on the grid first, then chains landing on their instants,
	// stepped one event at a time, with a one-shot cancelled.
	{"shots_first", []byte{2, 1, 0, 2, 2, 0, 2, 3, 0, 0, 4*2 + 1, 8, 5, 0, 0, 5, 0, 0, 3, 1, 0, 5, 0, 0, 4, 31, 2}},
	// A batch cut by a deadline mid-chain, reset with chain events
	// pending, and replayed from zero on the reset engine.
	{"reset_replays", []byte{1, 4*3 + 2, 5, 4, 3, 0, 6, 0, 0, 1, 4*3 + 2, 5, 4, 31, 2}},
}

// TestAtReservedMatchesEagerSchedule plays the pinned tapes and random
// ones through both rigs.
func TestAtReservedMatchesEagerSchedule(t *testing.T) {
	for _, tc := range reserveTapes {
		t.Run(tc.name, func(t *testing.T) { runReserveTape(t, tc.tape) })
	}
	for seed := uint64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := NewRand(seed)
			tape := make([]byte, 3*(20+r.Intn(200)))
			for i := range tape {
				tape[i] = byte(r.Intn(256))
			}
			runReserveTape(t, tape)
		})
	}
}

// FuzzAtReserved plays arbitrary tapes through a lazy rig and the eager
// oracle; their dispatch logs and Fired counts must be equal.
func FuzzAtReserved(f *testing.F) {
	for _, tc := range reserveTapes {
		f.Add(tc.tape)
	}
	f.Fuzz(runReserveTape)
}

// TestAtReservedEntersHeapAtNow checks the one push the FIFO must not
// take: an event reserved before this instant and queued at it fires
// ahead of the events this instant queued already, because its sequence
// number is older than theirs.
func TestAtReservedEntersHeapAtNow(t *testing.T) {
	e := NewEngine()
	first := e.Reserve(2)
	var got []int
	log := func(_ Time, a, _ int) { got = append(got, a) }
	e.At(10, func(now Time, _, _ int) {
		e.At(now, log, 2, 0)
		e.At(now, log, 3, 0)
		e.AtReserved(now, first+1, log, 1, 0)
	}, 0, 0)
	e.AtReserved(10, first, log, 0, 0)
	e.Drain(10)
	if fmt.Sprint(got) != "[0 1 2 3]" {
		t.Fatalf("fired %v, want [0 1 2 3]", got)
	}
}

// TestAtReservedRejects checks the argument contract: a sequence number
// outside the last reservation, an instant before now, and a sequence
// number newer than an event already queued at the current instant all
// panic.
func TestAtReservedRejects(t *testing.T) {
	fn := func(Time, int, int) {}
	mustPanic := func(name, want string, call func(e *Engine)) {
		t.Helper()
		e := NewEngine()
		e.RunUntil(100)
		defer func() {
			t.Helper()
			r := recover()
			if r == nil {
				t.Errorf("%s did not panic", name)
			} else if !strings.Contains(fmt.Sprint(r), want) {
				t.Errorf("%s panicked with %q, want %q", name, r, want)
			}
		}()
		call(e)
	}
	mustPanic("no reservation", "not reserved", func(e *Engine) { e.AtReserved(100, 0, fn, 0, 0) })
	mustPanic("an At's number", "not reserved", func(e *Engine) {
		e.At(200, fn, 0, 0)
		first := e.Reserve(2)
		e.AtReserved(200, first-1, fn, 0, 0)
	})
	mustPanic("past the reservation", "not reserved", func(e *Engine) { e.AtReserved(200, e.Reserve(2)+2, fn, 0, 0) })
	mustPanic("an earlier reservation", "not reserved", func(e *Engine) {
		first := e.Reserve(2)
		e.Reserve(1)
		e.AtReserved(200, first, fn, 0, 0)
	})
	mustPanic("a reset's", "not reserved", func(e *Engine) {
		first := e.Reserve(2)
		e.Reset()
		e.AtReserved(200, first, fn, 0, 0)
	})
	mustPanic("before now", "before now", func(e *Engine) { e.AtReserved(99, e.Reserve(1), fn, 0, 0) })
	mustPanic("newer than this instant's", "newer than event", func(e *Engine) {
		e.At(100, func(now Time, _, _ int) {
			e.At(now, fn, 0, 0)
			e.AtReserved(now, e.Reserve(1), fn, 0, 0)
		}, 0, 0)
		e.Step()
	})

	e := NewEngine()
	for _, n := range []int{0, -1} {
		if first := e.Reserve(n); first != 0 || e.seq != 0 {
			t.Fatalf("Reserve(%d) returned %d and left seq %d, want 0 and 0", n, first, e.seq)
		}
	}
}
