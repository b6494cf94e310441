package netsim

import (
	"testing"

	"thinbench/internal/simclock"
)

func TestTxTime(t *testing.T) {
	eng := simclock.NewEngine()
	link := NewLink(eng, DefaultLinkConfig())
	// 1500 bytes at 10 Mbps = 1.2 ms.
	if got := link.TxTime(1500); got != 1200*simclock.Microsecond {
		t.Fatalf("TxTime(1500) = %v, want 1.2ms", got)
	}
	// 64 bytes = 51.2 us (truncated to 51).
	if got := link.TxTime(64); got != 51*simclock.Microsecond {
		t.Fatalf("TxTime(64) = %v, want 51us", got)
	}
}

func TestSendDelivers(t *testing.T) {
	eng := simclock.NewEngine()
	cfg := DefaultLinkConfig()
	link := NewLink(eng, cfg)
	var at simclock.Time
	if !link.Send(1500, func(now simclock.Time, _, _ int) { at = now }, 0, 0) {
		t.Fatal("Send failed on empty link")
	}
	eng.Drain(100)
	want := simclock.Time(1200 + 100) // tx + propagation
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
	if link.SentPackets() != 1 || link.SentBytes() != 1500 {
		t.Fatalf("counters = %d pkts %d bytes", link.SentPackets(), link.SentBytes())
	}
}

func TestSendQueuesSequentially(t *testing.T) {
	eng := simclock.NewEngine()
	link := NewLink(eng, DefaultLinkConfig())
	var times []simclock.Time
	for i := 0; i < 3; i++ {
		link.Send(1500, func(now simclock.Time, _, _ int) { times = append(times, now) }, 0, 0)
	}
	eng.Drain(100)
	// Serialized back-to-back: deliveries at 1.3, 2.5, 3.7 ms.
	want := []simclock.Time{1300, 2500, 3700}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("delivery times = %v, want %v", times, want)
		}
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	eng := simclock.NewEngine()
	cfg := DefaultLinkConfig()
	cfg.QueuePackets = 2
	link := NewLink(eng, cfg)
	ok1 := link.Send(1500, nil, 0, 0)
	ok2 := link.Send(1500, nil, 0, 0)
	ok3 := link.Send(1500, nil, 0, 0)
	if !ok1 || !ok2 {
		t.Fatal("first two sends should succeed")
	}
	if ok3 {
		t.Fatal("third send should drop with queue depth 2")
	}
	if link.Drops() != 1 {
		t.Fatalf("drops = %d, want 1", link.Drops())
	}
	eng.Drain(100)
	if link.QueueDepth() != 0 {
		t.Fatalf("queue depth = %d after drain, want 0", link.QueueDepth())
	}
}

func TestBackgroundLoadApproximatesOffered(t *testing.T) {
	eng := simclock.NewEngine()
	link := NewLink(eng, DefaultLinkConfig())
	rng := simclock.NewRand(3)
	stop := link.BackgroundLoad(4.0, rng)
	eng.RunFor(20 * simclock.Second)
	stop()
	eng.RunFor(simclock.Second)
	if n := eng.Pending(); n != 0 {
		t.Fatalf("%d events pending a second after the load stopped, want none", n)
	}
	gotMbps := float64(link.SentBytes()*8) / 1e6 / 20
	if gotMbps < 3.5 || gotMbps > 4.5 {
		t.Fatalf("background load delivered %.2f Mbps, want ~4", gotMbps)
	}
}

func TestPingUnloadedLink(t *testing.T) {
	eng := simclock.NewEngine()
	link := NewLink(eng, DefaultLinkConfig())
	p := NewPinger(link, 64)
	p.Run(simclock.Second, 10*simclock.Second)
	if p.Samples() < 10 {
		t.Fatalf("samples = %d, want >= 10", p.Samples())
	}
	// Unloaded RTT = 2*(51us + 100us) = ~0.3 ms.
	if p.MeanRTT() > 1.0 {
		t.Fatalf("unloaded mean RTT = %.3f ms, want well under 1ms", p.MeanRTT())
	}
	if p.RTTVariance() > 0.001 {
		t.Fatalf("unloaded RTT variance = %v, want ~0", p.RTTVariance())
	}
}

func TestRTTRisesWithLoad(t *testing.T) {
	points := SweepLoadLatency([]float64{0, 5, 9.6}, 200*simclock.Millisecond, 30*simclock.Second, 99)
	if points[0].MeanRTTms >= points[1].MeanRTTms || points[1].MeanRTTms >= points[2].MeanRTTms {
		t.Fatalf("RTT not monotone with load: %+v", points)
	}
	// The paper's 9.6 Mbps point: ~55 ms mean RTT. Accept the knee being
	// anywhere in the tens of milliseconds.
	if points[2].MeanRTTms < 20 || points[2].MeanRTTms > 120 {
		t.Fatalf("near-saturation RTT = %.1f ms, want tens of ms", points[2].MeanRTTms)
	}
	// Low-load RTT stays near zero.
	if points[0].MeanRTTms > 1 {
		t.Fatalf("idle RTT = %.2f ms, want < 1", points[0].MeanRTTms)
	}
}

func TestJitterExplodesNearSaturation(t *testing.T) {
	points := SweepLoadLatency([]float64{2, 9.6}, 200*simclock.Millisecond, 30*simclock.Second, 7)
	low, high := points[0].VarianceMs, points[1].VarianceMs
	if high < 50*low {
		t.Fatalf("variance did not explode near saturation: low=%.4f high=%.4f", low, high)
	}
}

func TestHeaderConstants(t *testing.T) {
	if TCPIPHeaderBytes != 40 || IPHeaderBytes != 20 {
		t.Fatal("header constants diverge from the paper's 20-byte IP / 40-byte TCP+IP model")
	}
}

func TestZeroBackgroundLoadIsNoop(t *testing.T) {
	eng := simclock.NewEngine()
	link := NewLink(eng, DefaultLinkConfig())
	stop := link.BackgroundLoad(0, simclock.NewRand(1))
	stop()
	eng.RunFor(simclock.Second)
	if link.SentPackets() != 0 {
		t.Fatal("zero offered load sent packets")
	}
}

// TestLinkByteLedger checks the link's byte invariant under overload:
// every byte offered to Send is delivered, refused or in flight, at every
// cut of the run and after it drains. The test tallies what it offers and
// what Send refuses itself. A third of the packets carry no callback, as
// ambient traffic does; the rest may send again from inside the drain, and
// the FIFO slides its live tail down under the sustained load.
func TestLinkByteLedger(t *testing.T) {
	eng := simclock.NewEngine()
	link := NewLink(eng, LinkConfig{RateMbps: 10, Propagation: 100, QueuePackets: 300})
	rng := simclock.NewRand(5)
	var offered, refused int64
	send := func(bytes int, fn simclock.Func) {
		offered += int64(bytes)
		if !link.Send(bytes, fn, 0, 0) {
			refused += int64(bytes)
		}
	}
	var echo simclock.Func
	echo = func(now simclock.Time, _, _ int) {
		if rng.Intn(4) == 0 {
			send(40+rng.Intn(200), echo)
		}
	}
	check := func(when string) {
		t.Helper()
		if link.OfferedBytes() != offered || link.RefusedBytes() != refused {
			t.Fatalf("%s: link counts %d offered and %d refused bytes, the sender %d and %d",
				when, link.OfferedBytes(), link.RefusedBytes(), offered, refused)
		}
		if got := link.SentBytes() + link.RefusedBytes() + link.InFlightBytes(); got != offered {
			t.Fatalf("%s: %d bytes offered, but %d delivered + %d refused + %d in flight = %d",
				when, offered, link.SentBytes(), link.RefusedBytes(), link.InFlightBytes(), got)
		}
	}
	for burst := 0; burst < 40; burst++ {
		for i := rng.Intn(400); i > 0; i-- {
			fn := echo
			if rng.Intn(3) == 0 {
				fn = nil // ambient traffic: no delivery callback
			}
			send(40+rng.Intn(EthernetMTU), fn)
		}
		check("after a burst")
		eng.RunFor(simclock.Duration(rng.Intn(200)) * simclock.Millisecond)
		check("mid-run")
	}
	eng.Drain(1 << 22)
	check("drained")
	if refused == 0 || link.InFlightBytes() != 0 {
		t.Fatalf("refused %d bytes and left %d in flight; want some refused and none in flight", refused, link.InFlightBytes())
	}
}
