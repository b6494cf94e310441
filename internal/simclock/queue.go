package simclock

// eventQueue holds the engine's pending events: a 4-ary min-heap ordered
// by (when, seq), plus a FIFO for events pushed at exactly the time of the
// last pop.
//
// The FIFO serves a callback scheduling more work at its own instant,
// about a third of all pushes on a steady echo workload. Only At pushes
// there, and an At's seq is the newest the engine has issued, so it is
// newer than every event pending at that tick. An event under a seq
// Reserve set aside earlier enters the heap (pushHeap), never the FIFO,
// even at the current tick, where AtReserved takes it only when its seq
// is older than every event the FIFO holds. So a FIFO event would sift to
// the end of the tick's run in the heap anyway; the FIFO keeps it there
// in O(1). Pop serves the heap's top while it sits at the current tick,
// then the FIFO, then the heap, which is exactly eventBefore's order.
// This needs every push at or after the last pop, which the engine's
// refusal to schedule before now guarantees. The FIFO empties before the
// clock leaves a tick, so it only ever holds events at the time of the
// last pop.
//
// Entries are pointer-free, so sifting copies them with no GC write
// barriers; the *Event parks in a slot table, and Event.idx holds its slot
// id. Cancel is lazy: it clears the slot, and the entry stays behind as a
// tombstone that pop discards. The slot id is freed only then, so no id is
// reused while a tombstone still names it.
type eventQueue struct {
	heap  []qEntry
	fifo  []int32 // slot ids, in push order; fifo[head:] is pending
	last  Time    // time of the last pop
	slots []*Event
	free  []int32
	// head is the FIFO's first pending position and live the pending
	// events, tombstones not counted. Both are 32-bit, so an Engine keeps
	// to 176 bytes.
	head, live int32
}

// qEntry is one heap entry: the dispatch key and the slot of its event.
type qEntry struct {
	when Time
	seq  uint64
	slot int32
}

// before mirrors eventBefore on the copied keys.
func (a qEntry) before(b qEntry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

const timeMax = Time(1<<63 - 1)

func (q *eventQueue) len() int { return int(q.live) }

// reset empties the queue, tombstones and slot table included, keeping
// every array's capacity.
func (q *eventQueue) reset() {
	clear(q.slots)
	*q = eventQueue{heap: q.heap[:0], fifo: q.fifo[:0], slots: q.slots[:0], free: q.free[:0]}
}

//thinlint:hotpath
func (q *eventQueue) push(ev *Event) {
	id := q.park(ev)
	if ev.when == q.last {
		q.fifo = append(q.fifo, id)
		return
	}
	q.heap = append(q.heap, qEntry{when: ev.when, seq: ev.seq, slot: id})
	q.up(len(q.heap) - 1)
}

// pushHeap queues ev in the heap, whatever its time.
func (q *eventQueue) pushHeap(ev *Event) {
	id := q.park(ev)
	q.heap = append(q.heap, qEntry{when: ev.when, seq: ev.seq, slot: id})
	q.up(len(q.heap) - 1)
}

// park gives ev a slot and returns the slot's id.
//
//thinlint:hotpath
func (q *eventQueue) park(ev *Event) int32 {
	var id int32
	if n := len(q.free); n > 0 {
		id = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		id = int32(len(q.slots))
		q.slots = append(q.slots, nil)
	}
	q.slots[id] = ev
	ev.idx = int(id)
	q.live++
	return id
}

// fifoHead returns the oldest event pending in the FIFO, nil when it
// holds none.
func (q *eventQueue) fifoHead() *Event {
	for _, id := range q.fifo[q.head:] {
		if ev := q.slots[id]; ev != nil {
			return ev
		}
	}
	return nil
}

func (q *eventQueue) pop() *Event { return q.popLE(timeMax) }

// popLE removes and returns the earliest pending event if it is due by
// deadline, and nil otherwise. Tombstones met on the way are discarded.
//
//thinlint:hotpath
func (q *eventQueue) popLE(deadline Time) *Event {
	for {
		var id int32
		var when Time
		if len(q.heap) > 0 && (q.heap[0].when == q.last || int(q.head) == len(q.fifo)) {
			top := q.heap[0]
			if top.when > deadline {
				return nil
			}
			id, when = top.slot, top.when
			n := len(q.heap) - 1
			q.heap[0] = q.heap[n]
			q.heap = q.heap[:n]
			if n > 0 {
				q.down(0)
			}
		} else if int(q.head) < len(q.fifo) {
			if q.last > deadline {
				return nil
			}
			id, when = q.fifo[q.head], q.last
			if q.head++; int(q.head) == len(q.fifo) {
				q.fifo, q.head = q.fifo[:0], 0
			}
		} else {
			return nil
		}
		ev := q.slots[id]
		q.slots[id] = nil
		q.free = append(q.free, id)
		if ev != nil {
			ev.idx = -1
			q.live--
			q.last = when
			return ev
		}
	}
}

// remove cancels a pending event, leaving its entry as a tombstone.
func (q *eventQueue) remove(ev *Event) {
	q.slots[ev.idx] = nil
	ev.idx = -1
	q.live--
}

//thinlint:hotpath
func (q *eventQueue) up(i int) {
	h := q.heap
	x := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

//thinlint:hotpath
func (q *eventQueue) down(i int) {
	h := q.heap
	x := h[i]
	for {
		c := 4*i + 1
		if c >= len(h) {
			break
		}
		m := c
		for k := c + 1; k < min(c+4, len(h)); k++ {
			if h[k].before(h[m]) {
				m = k
			}
		}
		if !h[m].before(x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}
