// Package netsim simulates the paper's network testbed: a shared 10 Mbps
// Ethernet-class segment carrying thin-client traffic, background load, and
// ICMP-style probes. It provides the load-to-latency mapping of Figures 8
// and 9 (RTT and jitter versus offered load) and the TCP/IP versus VIP
// framing-overhead accounting used in §6.1.2.
package netsim

import (
	"thinbench/internal/metrics"
	"thinbench/internal/simclock"
)

// Header sizes used by the framing model, matching the paper's discussion
// of small-message overhead and the x-kernel virtual-IP (VIP) scheme that
// elides the 20-byte IP header in non-routed deployments.
const (
	IPHeaderBytes    = 20
	TCPHeaderBytes   = 20
	TCPIPHeaderBytes = IPHeaderBytes + TCPHeaderBytes
	// EthernetMTU is the payload capacity of the testbed's interface.
	EthernetMTU = 1500
)

// LinkConfig describes a shared network segment.
type LinkConfig struct {
	// RateMbps is the raw link rate (10 for the paper's aging Ethernet).
	RateMbps float64
	// Propagation is the one-way propagation + interface latency.
	Propagation simclock.Duration
	// QueuePackets bounds the transmit queue; packets beyond it drop.
	QueuePackets int
}

// DefaultLinkConfig is the paper's 10 Mbps shared segment.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		RateMbps:     10,
		Propagation:  100 * simclock.Microsecond,
		QueuePackets: 120,
	}
}

// Link is a single shared half-duplex medium: every sender (display
// traffic, input traffic, background load, probes) contends for the same
// transmission queue, as on the paper's non-switched Ethernet.
type Link struct {
	eng *simclock.Engine
	cfg LinkConfig

	busyUntil simclock.Time
	inQueue   int

	sentPackets int64
	sentBytes   int64
	drops       int64
	// offered and refused count the bytes Send was handed and the bytes
	// it refused: every offered byte is delivered (sentBytes), refused,
	// or still in flight (InFlightBytes).
	offered int64
	refused int64

	// pending is the in-flight delivery FIFO. Delivery times are monotone
	// (busyUntil never decreases and propagation is constant), so engine
	// events fire in FIFO order and each drains the head. Keeping the
	// callback and its payload here instead of in a per-packet closure
	// makes Send allocation-free in steady state: the event comes from the
	// engine's pool and deliverFn is bound once at construction.
	//
	// Arbitration is batched: when an event fires, EVERY pending delivery
	// whose time has come drains in FIFO order, so same-tick deliveries
	// complete under one dispatch and the events the link scheduled for
	// them find nothing left to do. Events are still created eagerly, one
	// per accepted packet at Send time, because those no-op events are
	// dispatched and counted in the engine's Fired, and so in every
	// baseline's sim_events: head-only scheduling would fire fewer and move
	// the counts, though not the delivered sequence. The delivered (time,
	// payload) sequence is bit-identical to per-packet arbitration
	// (property-tested in batch_test.go).
	pending   []delivery
	head      int
	deliverFn simclock.Func
}

// delivery is one packet in flight: its size, its arrival, and the
// callback, with its two caller-owned arguments, that fires on arrival.
type delivery struct {
	bytes     int
	deliverAt simclock.Time
	fn        simclock.Func
	a, b      int
}

// NewLink builds a link on the engine.
func NewLink(eng *simclock.Engine, cfg LinkConfig) *Link {
	l := &Link{eng: eng}
	l.deliverFn = l.deliverHead
	l.Reset(cfg)
	return l
}

// Reset returns the link to the state NewLink(eng, cfg) leaves it in, on
// its engine, keeping the delivery FIFO's backing array: an idle queue,
// every counter at zero. A caller resets the link's engine first, since
// the deliveries still in flight are dropped and their events die with
// the engine's.
func (l *Link) Reset(cfg LinkConfig) {
	if cfg.RateMbps <= 0 {
		panic("netsim: link rate must be positive")
	}
	if cfg.QueuePackets <= 0 {
		cfg.QueuePackets = 1
	}
	*l = Link{eng: l.eng, cfg: cfg, pending: l.pending[:0], deliverFn: l.deliverFn}
}

// Config reports the link configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// SentPackets reports delivered packet count.
func (l *Link) SentPackets() int64 { return l.sentPackets }

// SentBytes reports delivered byte count.
func (l *Link) SentBytes() int64 { return l.sentBytes }

// Drops reports packets rejected by the full queue.
func (l *Link) Drops() int64 { return l.drops }

// OfferedBytes reports the bytes of every packet handed to Send.
func (l *Link) OfferedBytes() int64 { return l.offered }

// RefusedBytes reports the bytes of the packets the full queue refused.
func (l *Link) RefusedBytes() int64 { return l.refused }

// InFlightBytes reports the bytes of the packets accepted and not yet
// delivered: queued, on the wire or propagating. OfferedBytes is always
// SentBytes + RefusedBytes + InFlightBytes.
func (l *Link) InFlightBytes() int64 {
	var n int64
	for _, d := range l.pending[l.head:] {
		n += int64(d.bytes)
	}
	return n
}

// TxTime reports the serialization delay for a packet of the given size.
func (l *Link) TxTime(bytes int) simclock.Duration {
	us := float64(bytes*8) / l.cfg.RateMbps // bits / (bits/us)
	return simclock.Duration(us)
}

// Send queues a packet of the given size. fn, if non-nil, fires with the
// arguments (a, b) when the last bit arrives at the receiver. Send reports
// false when the queue is full and the packet was dropped.
//
//thinlint:hotpath
func (l *Link) Send(bytes int, fn simclock.Func, a, b int) bool {
	now := l.eng.Now()
	l.offered += int64(bytes)
	if l.inQueue >= l.cfg.QueuePackets {
		l.drops++
		l.refused += int64(bytes)
		return false
	}
	start := l.busyUntil
	if start < now {
		start = now
	}
	done := start.Add(l.TxTime(bytes))
	l.busyUntil = done
	l.inQueue++
	deliverAt := done.Add(l.cfg.Propagation)
	l.pending = append(l.pending, delivery{bytes: bytes, deliverAt: deliverAt, fn: fn, a: a, b: b})
	l.eng.At(deliverAt, l.deliverFn, 0, 0)
	return true
}

// deliverHead is the link's arbitration event: every pending delivery
// whose time has arrived completes in FIFO order. In the common case the
// firing event drains exactly the one packet it was scheduled for;
// same-tick deliveries drain together under the first event, leaving the
// rest as no-ops.
//
//thinlint:hotpath
func (l *Link) deliverHead(at simclock.Time, _, _ int) {
	for l.head < len(l.pending) && l.pending[l.head].deliverAt <= at {
		l.deliverOne(at)
	}
}

// deliverOne completes the oldest in-flight packet. The head is popped
// before the callback runs so a reentrant Send sees a consistent FIFO.
//
//thinlint:hotpath
func (l *Link) deliverOne(at simclock.Time) {
	d := l.pending[l.head]
	l.pending[l.head] = delivery{}
	l.head++
	if l.head == len(l.pending) {
		l.pending = l.pending[:0]
		l.head = 0
	} else if l.head >= 256 && l.head*2 >= len(l.pending) {
		// Under sustained load the FIFO never empties; slide the live
		// tail down so the backing array stays bounded.
		n := copy(l.pending, l.pending[l.head:])
		for i := n; i < len(l.pending); i++ {
			l.pending[i] = delivery{}
		}
		l.pending = l.pending[:n]
		l.head = 0
	}
	l.inQueue--
	l.sentPackets++
	l.sentBytes += int64(d.bytes)
	if d.fn != nil {
		d.fn(at, d.a, d.b)
	}
}

// QueueDepth reports packets currently queued or in flight.
func (l *Link) QueueDepth() int { return l.inQueue }

// BackgroundLoad drives Poisson traffic at the given offered load until
// cancelled, modeling the synthetic load generator of §6.2. Packets are
// MTU-sized with TCP/IP headers.
func (l *Link) BackgroundLoad(offeredMbps float64, rng *simclock.Rand) (cancel func()) {
	if offeredMbps <= 0 {
		return func() {}
	}
	g := &loadGen{link: l, rng: rng, meanGap: simclock.Duration(float64(loadPacketBytes*8) / offeredMbps)}
	g.arriveFn = g.arrive
	l.eng.At(l.eng.Now().Add(rng.ExpDuration(g.meanGap)), g.arriveFn, 0, 0)
	return g.stop
}

// loadPacketBytes is the size of every background packet: a full MTU
// with TCP/IP headers.
const loadPacketBytes = EthernetMTU + TCPIPHeaderBytes

// loadGen is one BackgroundLoad stream: packets meanGap apart on average,
// their gaps drawn from rng.
type loadGen struct {
	link     *Link
	rng      *simclock.Rand
	meanGap  simclock.Duration // us between packets
	stopped  bool
	arriveFn simclock.Func
}

// arrive sends one packet, then draws the next arrival.
func (g *loadGen) arrive(now simclock.Time, _, _ int) {
	if g.stopped {
		return
	}
	g.link.Send(loadPacketBytes, nil, 0, 0)
	g.link.eng.At(now.Add(g.rng.ExpDuration(g.meanGap)), g.arriveFn, 0, 0)
}

func (g *loadGen) stop() { g.stopped = true }

// The Figure 8/9 probe: ProbeBytes is ping's 64-byte default, about the
// size of an input-channel message, and a Pinger sends one every
// probeInterval.
const (
	ProbeBytes    = 64
	probeInterval = 200 * simclock.Millisecond
)

// Pinger measures round-trip times through the link: each probe is
// transmitted, "echoed" by the far side, and transmitted back over the same
// shared medium, exactly as ping behaves on a non-switched segment.
type Pinger struct {
	link *Link
	rtts metrics.Summary
	// probeFn sends the probes; echoFn and landFn are a probe's two legs.
	// Each is bound once, and the probe's send time rides both legs as the
	// callback's argument a.
	probeFn, echoFn, landFn simclock.Func
}

// NewPinger builds a pinger of ProbeBytes probes over link.
func NewPinger(link *Link) *Pinger {
	p := &Pinger{link: link}
	p.probeFn, p.echoFn, p.landFn = p.probe, p.echo, p.land
	return p
}

// echo is the far side answering a probe sent at time sent: the reply
// crosses the same shared medium back.
func (p *Pinger) echo(_ simclock.Time, sent, _ int) {
	p.link.Send(ProbeBytes, p.landFn, sent, 0)
}

// land records the round trip of a probe sent at time sent.
func (p *Pinger) land(back simclock.Time, sent, _ int) {
	p.rtts.Add(back.Sub(simclock.Time(sent)).Milliseconds())
}

// probe sends one probe, then arms the next probeInterval on, up to the
// deadline.
func (p *Pinger) probe(now simclock.Time, deadline, _ int) {
	if now > simclock.Time(deadline) {
		return
	}
	p.link.Send(ProbeBytes, p.echoFn, int(now), 0)
	p.link.eng.At(now.Add(probeInterval), p.probeFn, deadline, 0)
}

// Run sends a probe every probeInterval for the given span, collecting
// RTTs.
func (p *Pinger) Run(span simclock.Duration) {
	eng := p.link.eng
	deadline := eng.Now().Add(span)
	eng.At(eng.Now(), p.probeFn, int(deadline), 0)
	eng.RunUntil(deadline.Add(5 * simclock.Second)) // let trailing echoes land
}

// MeanRTT reports the average round-trip time in milliseconds.
func (p *Pinger) MeanRTT() float64 { return p.rtts.Mean() }

// RTTVariance reports the RTT variance in ms^2, the paper's Figure 9 metric.
func (p *Pinger) RTTVariance() float64 { return p.rtts.Variance() }

// LoadLatencyPoint is one x/y pair of the Figure 8/9 sweeps.
type LoadLatencyPoint struct {
	OfferedMbps float64
	MeanRTTms   float64
	VarianceMs  float64
}

// SweepLoadLatency reproduces Figures 8 and 9: for each offered load, run
// pings for the span and record mean RTT and RTT variance.
func SweepLoadLatency(loads []float64, span simclock.Duration, seed uint64) []LoadLatencyPoint {
	out := make([]LoadLatencyPoint, 0, len(loads))
	for i, load := range loads {
		eng := simclock.NewEngine()
		link := NewLink(eng, DefaultLinkConfig())
		// Predates DeriveSeed; rewriting the derivation would shift every
		// Figure 8/9 point and the golden baselines with it.
		rng := simclock.NewRand(seed + uint64(i)*7919) //thinlint:allow seedflow.adhoc frozen: changing the stream would move published figure baselines
		stop := link.BackgroundLoad(load, rng)
		pinger := NewPinger(link)
		pinger.Run(span)
		stop()
		out = append(out, LoadLatencyPoint{
			OfferedMbps: load,
			MeanRTTms:   pinger.MeanRTT(),
			VarianceMs:  pinger.RTTVariance(),
		})
	}
	return out
}
