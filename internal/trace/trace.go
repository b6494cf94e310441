// Package trace is the reproduction's prototap: the protocol tracing tool
// the paper built on the pcap packet-sniffing library to produce its
// byte/message accounting tables and load-over-time figures.
//
// A Recorder observes timestamped protocol messages and maintains the
// paper's metrics per channel: byte counts, message counts, average message
// size, a time-bucketed load series, and a packetization model that maps
// messages onto MTU-bounded TCP/IP packets for the VIP header-elision
// analysis of §6.1.2.
package trace

import (
	"fmt"
	"strings"

	"thinbench/internal/metrics"
	"thinbench/internal/netsim"
	"thinbench/internal/proto"
	"thinbench/internal/simclock"
)

// ChannelStats accumulates per-channel accounting.
type ChannelStats struct {
	Bytes    int64
	Messages int64
}

// AvgMessageSize reports mean payload bytes per message.
func (c ChannelStats) AvgMessageSize() float64 {
	if c.Messages == 0 {
		return 0
	}
	return float64(c.Bytes) / float64(c.Messages)
}

// Recorder captures a protocol session's traffic.
type Recorder struct {
	input   ChannelStats
	display ChannelStats
	series  metrics.Series
	kinds   map[string]*ChannelStats

	// Packetization state: messages on the same channel within
	// nagleWindow coalesce into a pending packet up to Ethernet's MTU.
	pending [2]pendingPacket
	packets int64
}

// nagleWindow is how long a pending packet waits for more messages on its
// channel.
const nagleWindow = 5 * simclock.Millisecond

type pendingPacket struct {
	bytes    int
	deadline simclock.Time
	active   bool
}

// NewRecorder builds a recorder.
func NewRecorder() *Recorder {
	return &Recorder{kinds: make(map[string]*ChannelStats)}
}

// Record accounts one message observed at time now.
func (r *Recorder) Record(now simclock.Time, m proto.Message) {
	n := int64(m.Size())
	switch m.Channel {
	case proto.Input:
		r.input.Bytes += n
		r.input.Messages++
	default:
		r.display.Bytes += n
		r.display.Messages++
	}
	ks, ok := r.kinds[m.Kind]
	if !ok {
		ks = &ChannelStats{}
		r.kinds[m.Kind] = ks
	}
	ks.Bytes += n
	ks.Messages++
	r.series.Add(now, float64(n))
	r.packetize(now, int(m.Channel), m.Size())
}

// packetize models TCP segmentation with Nagle-style coalescing: messages
// on one channel arriving within the window share a packet until the MTU
// fills; each emitted packet carries one TCP/IP header.
func (r *Recorder) packetize(now simclock.Time, ch int, size int) {
	p := &r.pending[ch]
	if p.active && now > p.deadline {
		r.flushPacket(ch)
	}
	for size > 0 {
		if !p.active {
			p.active = true
			p.deadline = now.Add(nagleWindow)
		}
		room := netsim.EthernetMTU - p.bytes
		if size < room {
			p.bytes += size
			return
		}
		p.bytes = netsim.EthernetMTU
		size -= room
		r.flushPacket(ch)
	}
}

func (r *Recorder) flushPacket(ch int) {
	p := &r.pending[ch]
	if p.active {
		r.packets++
		*p = pendingPacket{}
	}
}

// Flush finalizes any pending packets (end of capture).
func (r *Recorder) Flush() {
	r.flushPacket(0)
	r.flushPacket(1)
}

// Input reports input-channel stats.
func (r *Recorder) Input() ChannelStats { return r.input }

// Display reports display-channel stats.
func (r *Recorder) Display() ChannelStats { return r.display }

// Total reports combined stats.
func (r *Recorder) Total() ChannelStats {
	return ChannelStats{
		Bytes:    r.input.Bytes + r.display.Bytes,
		Messages: r.input.Messages + r.display.Messages,
	}
}

// Packets reports the modeled TCP/IP packet count (call Flush first).
func (r *Recorder) Packets() int64 { return r.packets }

// Series reports the byte-load series by the second; use Series.Mbps for
// megabits/second.
func (r *Recorder) Series() *metrics.Series { return &r.series }

// KindStats reports per-message-kind accounting, sorted by bytes.
func (r *Recorder) KindStats() map[string]ChannelStats {
	out := make(map[string]ChannelStats, len(r.kinds))
	for k, v := range r.kinds {
		out[k] = *v
	}
	return out
}

// WireBytes reports total bytes on the wire including per-packet TCP/IP
// headers, the figure tcpdump would report.
func (r *Recorder) WireBytes() int64 {
	return r.Total().Bytes + r.packets*int64(netsim.TCPIPHeaderBytes)
}

// VIPSavings reports the §6.1.2 virtual-IP analysis: bytes saved by
// omitting the 20-byte IP header from every packet, and the savings as a
// fraction of payload bytes.
func (r *Recorder) VIPSavings() (bytes int64, frac float64) {
	saved := r.packets * int64(netsim.IPHeaderBytes)
	total := r.Total().Bytes
	if total == 0 {
		return saved, 0
	}
	return saved, float64(saved) / float64(total)
}

// Summary renders a prototap-style capture summary.
func (r *Recorder) Summary(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "capture: %s\n", title)
	fmt.Fprintf(&b, "  input:   %10s bytes  %8d messages  avg %7.2f\n",
		metrics.FormatBytes(r.input.Bytes), r.input.Messages, r.input.AvgMessageSize())
	fmt.Fprintf(&b, "  display: %10s bytes  %8d messages  avg %7.2f\n",
		metrics.FormatBytes(r.display.Bytes), r.display.Messages, r.display.AvgMessageSize())
	tot := r.Total()
	fmt.Fprintf(&b, "  total:   %10s bytes  %8d messages  avg %7.2f\n",
		metrics.FormatBytes(tot.Bytes), tot.Messages, tot.AvgMessageSize())
	fmt.Fprintf(&b, "  packets: %d, wire bytes w/ TCP/IP: %s\n", r.packets, metrics.FormatBytes(r.WireBytes()))
	saved, frac := r.VIPSavings()
	fmt.Fprintf(&b, "  VIP savings: %s bytes (%.2f%%)\n", metrics.FormatBytes(saved), frac*100)
	return b.String()
}
