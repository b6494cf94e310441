package netsim

import (
	"testing"

	"thinbench/internal/simclock"
)

// BenchmarkLinkBatch measures the batched arbitration hot path: bursts of
// packets drained through the FIFO ring. Steady state should be
// allocation-free per packet — the delivery record lives in the reused
// pending ring and the callback is a shared method value.
func BenchmarkLinkBatch(b *testing.B) {
	b.ReportAllocs()
	eng := simclock.NewEngine()
	l := NewLink(eng, DefaultLinkConfig())
	var got int
	fn := simclock.Func(func(now simclock.Time, a, _ int) { got += a })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			l.Send(200, fn, 1, 0)
		}
		eng.Drain(1 << 20)
	}
	if got != 64*b.N {
		b.Fatalf("delivered %d packets, want %d", got, 64*b.N)
	}
}

// delivered is one observed delivery: the virtual time the last bit landed
// and the payload id carried by the packet.
type delivered struct {
	at simclock.Time
	id int
}

// refLink is the per-packet reference arbiter: the same queueing math as
// Link (one busyUntil horizon, a bounded queue, serialization + propagation
// delay) but with one closure-bearing engine event per packet and no
// batched drain. The property test checks the production Link's batched
// FIFO drain against it.
type refLink struct {
	eng       *simclock.Engine
	cfg       LinkConfig
	busyUntil simclock.Time
	inQueue   int
	drops     int64
	packets   int64
	bytes     int64
	seq       []delivered
	reenter   func(id, depth int)
}

func (r *refLink) txTime(bytes int) simclock.Duration {
	us := float64(bytes*8) / r.cfg.RateMbps
	return simclock.Duration(us)
}

func (r *refLink) send(bytes, id, depth int) bool {
	now := r.eng.Now()
	if r.inQueue >= r.cfg.QueuePackets {
		r.drops++
		return false
	}
	start := r.busyUntil
	if start < now {
		start = now
	}
	done := start.Add(r.txTime(bytes))
	r.busyUntil = done
	r.inQueue++
	r.eng.At(done.Add(r.cfg.Propagation), func(at simclock.Time, _, _ int) {
		r.inQueue--
		r.packets++
		r.bytes += int64(bytes)
		r.seq = append(r.seq, delivered{at: at, id: id})
		r.reenter(id, depth)
	}, 0, 0)
	return true
}

// trafficPlan is a deterministic random packet schedule. Times are drawn
// from a narrow range so same-microsecond sends (and hence same-tick
// deliveries) occur; sizes span input-sized to MTU-sized packets.
type plannedSend struct {
	at    simclock.Time
	bytes int
	id    int
}

func makePlan(seed uint64, n int, span simclock.Time) []plannedSend {
	rng := simclock.NewRand(seed)
	plan := make([]plannedSend, n)
	for i := range plan {
		plan[i] = plannedSend{
			at:    simclock.Time(rng.Int63n(int64(span))),
			bytes: 40 + rng.Intn(1500),
			id:    i,
		}
	}
	return plan
}

// reenterSize derives a deterministic packet size for a reentrant send.
func reenterSize(id int) int { return 40 + (id*131)%700 }

// TestBatchedDeliveryMatchesPerPacket is the batched-arbitration property
// test: on randomized traffic — bursty enough to coalesce same-tick
// deliveries, overloaded enough to exercise queue-full drops, with
// reentrant sends issued from inside delivery callbacks — the production
// Link's batched FIFO drain must produce the identical (deliverAt, payload)
// sequence, drop count, and byte accounting as per-packet delivery events.
//
// The reference intentionally reimplements the arbitration math rather
// than calling into Link: it is the original one-event-per-packet design
// the batched drain replaced, kept as the oracle for delivery order.
func TestBatchedDeliveryMatchesPerPacket(t *testing.T) {
	cases := []struct {
		name  string
		cfg   LinkConfig
		n     int
		span  simclock.Time
		seeds []uint64
	}{
		// The paper's segment, lightly loaded: order and timing only.
		{"default", DefaultLinkConfig(), 400, simclock.Time(500 * 1000), []uint64{1, 2, 3}},
		// A tiny queue under a packet storm: drops dominate.
		{"overload", LinkConfig{RateMbps: 10, Propagation: 100, QueuePackets: 4}, 800, simclock.Time(100 * 1000), []uint64{11, 12, 13}},
		// Zero propagation with a burst window so deliveries tie on the
		// same microsecond and drain in one batch.
		{"same-tick", LinkConfig{RateMbps: 1000, Propagation: 0, QueuePackets: 64}, 600, simclock.Time(2 * 1000), []uint64{21, 22, 23}},
	}
	for _, tc := range cases {
		for _, seed := range tc.seeds {
			plan := makePlan(seed, tc.n, tc.span)

			// Batched run: the production Link.
			beng := simclock.NewEngine()
			bl := NewLink(beng, tc.cfg)
			var bseq []delivered
			var bfn simclock.Func
			bfn = func(now simclock.Time, id, depth int) {
				bseq = append(bseq, delivered{at: now, id: id})
				if id%5 == 0 && depth < 2 {
					bl.Send(reenterSize(id), bfn, id+1000000*(depth+1), depth+1)
				}
			}
			send := func(_ simclock.Time, bytes, id int) { bl.Send(bytes, bfn, id, 0) }
			for _, s := range plan {
				beng.At(s.at, send, s.bytes, s.id)
			}
			beng.Drain(1 << 22)

			// Reference run: per-packet closures on a fresh engine.
			reng := simclock.NewEngine()
			rl := &refLink{eng: reng, cfg: bl.Config()}
			rl.reenter = func(id, depth int) {
				if id%5 == 0 && depth < 2 {
					rl.send(reenterSize(id), id+1000000*(depth+1), depth+1)
				}
			}
			rsend := func(_ simclock.Time, bytes, id int) { rl.send(bytes, id, 0) }
			for _, s := range plan {
				reng.At(s.at, rsend, s.bytes, s.id)
			}
			reng.Drain(1 << 22)

			if len(bseq) != len(rl.seq) {
				t.Fatalf("%s/seed=%d: batched delivered %d packets, reference %d",
					tc.name, seed, len(bseq), len(rl.seq))
			}
			for i := range bseq {
				if bseq[i] != rl.seq[i] {
					t.Fatalf("%s/seed=%d: delivery %d diverged: batched (%v, %d), reference (%v, %d)",
						tc.name, seed, i, bseq[i].at, bseq[i].id, rl.seq[i].at, rl.seq[i].id)
				}
			}
			if bl.Drops() != rl.drops {
				t.Fatalf("%s/seed=%d: batched dropped %d, reference %d", tc.name, seed, bl.Drops(), rl.drops)
			}
			if bl.SentPackets() != rl.packets || bl.SentBytes() != rl.bytes {
				t.Fatalf("%s/seed=%d: accounting diverged: batched (%d pkts, %d bytes), reference (%d, %d)",
					tc.name, seed, bl.SentPackets(), bl.SentBytes(), rl.packets, rl.bytes)
			}
			if got := len(bseq); got == 0 {
				t.Fatalf("%s/seed=%d: no deliveries observed; plan did not exercise the link", tc.name, seed)
			}
		}
	}
}
