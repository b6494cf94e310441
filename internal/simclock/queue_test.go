package simclock

import (
	"container/heap"
	"testing"
)

// heapQueue is the reference binary-heap queue (container/heap) the
// event queue is property-tested and fuzzed against: the same
// push/pop/popLE/remove/len surface, ordered by eventBefore.
type heapQueue struct{ h eventHeap }

func (q *heapQueue) push(ev *Event) { heap.Push(&q.h, ev) }

func (q *heapQueue) pop() *Event {
	if len(q.h) == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*Event)
}

func (q *heapQueue) popLE(deadline Time) *Event {
	if len(q.h) == 0 || q.h[0].when > deadline {
		return nil
	}
	return heap.Pop(&q.h).(*Event)
}

func (q *heapQueue) remove(ev *Event) {
	heap.Remove(&q.h, ev.idx)
	ev.idx = -1
}

func (q *heapQueue) len() int { return len(q.h) }

// eventBefore is the dispatch order qEntry.before gives the queue's
// copied keys, read from the events themselves.
func eventBefore(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

type eventHeap []*Event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return eventBefore(h[i], h[j]) }
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

// queuePair drives the event queue and the reference heap with identical
// event streams and asserts every removal agrees. Events cannot be shared
// between queues (idx is per-queue state), so each logical event exists as a
// twin pair with the same (when, seq).
type queuePair struct {
	t    *testing.T
	q    *eventQueue
	heap *heapQueue
	seq  uint64
	// pending tracks live twins for remove targeting, keyed by insertion
	// order (holes compacted on use).
	pending [][2]*Event
	floor   Time // engine invariant: no push earlier than the last pop
}

func newQueuePair(t *testing.T) *queuePair {
	return &queuePair{t: t, q: &eventQueue{}, heap: &heapQueue{}}
}

func (p *queuePair) push(when Time) {
	if when < p.floor {
		when = p.floor
	}
	a := &Event{when: when, seq: p.seq, idx: -1}
	b := &Event{when: when, seq: p.seq, idx: -1}
	p.seq++
	p.q.push(a)
	p.heap.push(b)
	p.pending = append(p.pending, [2]*Event{a, b})
	if p.q.len() != p.heap.len() {
		p.t.Fatalf("len mismatch after push: queue %d heap %d", p.q.len(), p.heap.len())
	}
}

func (p *queuePair) note(got, want *Event, op string) {
	p.t.Helper()
	if (got == nil) != (want == nil) {
		p.t.Fatalf("%s: queue %v heap %v", op, got, want)
	}
	if got == nil {
		return
	}
	if got.when != want.when || got.seq != want.seq {
		p.t.Fatalf("%s: queue popped (when=%d seq=%d), heap (when=%d seq=%d)",
			op, got.when, got.seq, want.when, want.seq)
	}
	if got.when < p.floor {
		p.t.Fatalf("%s: popped when %d below floor %d", op, got.when, p.floor)
	}
	p.floor = got.when
	p.drop(got.seq)
}

func (p *queuePair) drop(seq uint64) {
	for i, tw := range p.pending {
		if tw[0].seq == seq {
			p.pending = append(p.pending[:i], p.pending[i+1:]...)
			return
		}
	}
}

func (p *queuePair) pop() bool {
	got, want := p.q.pop(), p.heap.pop()
	p.note(got, want, "pop")
	return got != nil
}

func (p *queuePair) popLE(deadline Time) bool {
	got, want := p.q.popLE(deadline), p.heap.popLE(deadline)
	p.note(got, want, "popLE")
	return got != nil
}

func (p *queuePair) remove(i int) {
	if len(p.pending) == 0 {
		return
	}
	tw := p.pending[i%len(p.pending)]
	if (tw[0].idx >= 0) != (tw[1].idx >= 0) {
		p.t.Fatalf("remove: queue pending %v heap pending %v", tw[0].idx >= 0, tw[1].idx >= 0)
	}
	p.q.remove(tw[0])
	p.heap.remove(tw[1])
	p.drop(tw[0].seq)
	if p.q.len() != p.heap.len() {
		p.t.Fatalf("len mismatch after remove: queue %d heap %d", p.q.len(), p.heap.len())
	}
}

func (p *queuePair) drain() {
	for p.pop() {
	}
	if p.q.len() != 0 || p.heap.len() != 0 {
		p.t.Fatalf("drain left queue %d heap %d events", p.q.len(), p.heap.len())
	}
}

// TestCalendarMatchesHeapRandomStreams is the core property test: on
// randomized interleavings of push / pop / bounded pop / mid-queue remove,
// the event queue and the reference heap agree on every removal, same-tick
// ties (decided by seq) included. It keeps the name it had when it checked
// the calendar queue the event queue replaced. In same_tick most pushes
// land on the current tick, so FIFO and heap entries share it, cancels hit
// both, and bounded pops reach below the current tick.
func TestCalendarMatchesHeapRandomStreams(t *testing.T) {
	regimes := []struct {
		name   string
		seed   uint64
		spread Duration // timestamp spread around the floor
		ties   int      // 1-in-n pushes reuse the exact floor timestamp
		lag    Duration // bounded pops reach this far below the floor
	}{
		{"dense_ties", 1, 50, 2, 0},
		{"interactive_mix", 2, 5000, 8, 0},
		{"wide_spread", 3, 90 * 1e6, 16, 0},
		{"sparse_years", 4, 3600 * 1e6, 4, 0},
		{"same_tick", 5, 3, 2, 2},
	}
	for _, reg := range regimes {
		t.Run(reg.name, func(t *testing.T) {
			r := NewRand(reg.seed)
			p := newQueuePair(t)
			for op := 0; op < 4000; op++ {
				switch v := r.Intn(10); {
				case v < 6:
					when := p.floor + Time(r.Int63n(int64(reg.spread)+1))
					if r.Intn(reg.ties) == 0 {
						when = p.floor
					}
					p.push(when)
				case v < 8:
					p.pop()
				case v == 8:
					p.popLE(p.floor - Time(reg.lag) + Time(r.Int63n(int64(reg.spread+reg.lag)+1)))
				default:
					p.remove(r.Intn(1 << 20))
				}
			}
			p.drain()
		})
	}
}

// TestQueueGrowShrink takes the queue from empty to 3,000 pending events
// and back down to about a hundred, a third of the removals by cancel,
// with order checked throughout, then adds a far-future outlier.
func TestQueueGrowShrink(t *testing.T) {
	p := newQueuePair(t)
	r := NewRand(99)
	for i := 0; i < 3000; i++ {
		p.push(Time(r.Int63n(20 * 1e6)))
	}
	for i := 0; i < 2900; i++ {
		if r.Intn(3) == 0 {
			p.remove(r.Intn(1 << 20))
		} else {
			p.pop()
		}
	}
	p.push(p.floor + 3600*1e6)
	p.drain()
}

// TestQueuePushBeforeMissedDeadline covers a bounded pop that finds only a
// far-future event, followed by pushes ahead of it: they must still come
// out first.
func TestQueuePushBeforeMissedDeadline(t *testing.T) {
	p := newQueuePair(t)
	p.push(90 * 1e6)
	if p.popLE(1e6) {
		t.Fatal("popLE returned an event past the deadline")
	}
	p.push(2e6) // ahead of the far-future event
	p.push(2e6) // same-tick tie
	if !p.popLE(5e6) || !p.popLE(5e6) {
		t.Fatal("events pushed ahead of the pending one were not found")
	}
	p.drain()
}

// FuzzEventQueue feeds arbitrary operation tapes through both queues.
// Byte pairs decode to (op, argument); push offsets grow with the cube of
// the argument, from the current tick (argument 0, the FIFO) up to about
// 17 s.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 10, 0, 10, 1, 0, 0, 200, 2, 50})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 1, 1, 0, 1, 0})
	// A burst of pushes at growing offsets.
	burst := make([]byte, 0, 64)
	for i := byte(0); i < 32; i++ {
		burst = append(burst, 0, i*8)
	}
	f.Add(burst)
	// Two pushes one tick ahead and a pop onto that tick leave a heap
	// entry at the current tick; two same-tick pushes queue behind it in
	// the FIFO, and the second of them is cancelled.
	f.Add([]byte{0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 3, 2, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newQueuePair(t)
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], int64(data[i+1])
			switch op % 4 {
			case 0: // push at an exponentially scaled offset
				p.push(p.floor + Time(arg*arg*arg))
			case 1:
				p.pop()
			case 2:
				p.popLE(p.floor + Time(arg*arg))
			case 3:
				p.remove(int(arg))
			}
		}
		p.drain()
	})
}
