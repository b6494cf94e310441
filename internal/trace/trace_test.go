package trace

import (
	"strings"
	"testing"

	"thinbench/internal/proto"
	"thinbench/internal/simclock"
)

func msg(ch proto.Channel, kind string, n int) proto.Message {
	return proto.Message{Channel: ch, Kind: kind, Payload: make([]byte, n)}
}

func TestChannelAccounting(t *testing.T) {
	r := NewRecorder()
	r.Record(0, msg(proto.Input, "Events", 32))
	r.Record(0, msg(proto.Input, "Events", 64))
	r.Record(0, msg(proto.Display, "PutImage", 1000))
	r.Flush()
	if in := r.Input(); in.Bytes != 96 || in.Messages != 2 {
		t.Fatalf("input = %+v", in)
	}
	if d := r.Display(); d.Bytes != 1000 || d.Messages != 1 {
		t.Fatalf("display = %+v", d)
	}
	if tot := r.Total(); tot.Bytes != 1096 || tot.Messages != 3 {
		t.Fatalf("total = %+v", tot)
	}
	if got := r.Input().AvgMessageSize(); got != 48 {
		t.Fatalf("avg input size = %v, want 48", got)
	}
	if (ChannelStats{}).AvgMessageSize() != 0 {
		t.Fatal("empty channel avg should be 0")
	}
}

func TestKindStats(t *testing.T) {
	r := NewRecorder()
	r.Record(0, msg(proto.Display, "PutImage", 500))
	r.Record(0, msg(proto.Display, "PutImage", 700))
	r.Record(0, msg(proto.Display, "CopyArea", 28))
	ks := r.KindStats()
	if ks["PutImage"].Bytes != 1200 || ks["PutImage"].Messages != 2 {
		t.Fatalf("PutImage stats = %+v", ks["PutImage"])
	}
	if ks["CopyArea"].Messages != 1 {
		t.Fatalf("CopyArea stats = %+v", ks["CopyArea"])
	}
}

func TestPacketizationCoalescesSmallMessages(t *testing.T) {
	r := NewRecorder()
	// Five 100-byte messages within the Nagle window share one packet.
	for i := 0; i < 5; i++ {
		r.Record(simclock.Time(i*100), msg(proto.Display, "small", 100))
	}
	r.Flush()
	if r.Packets() != 1 {
		t.Fatalf("packets = %d, want 1 (coalesced)", r.Packets())
	}
}

func TestPacketizationSplitsLargeMessages(t *testing.T) {
	r := NewRecorder()
	// 4000 bytes over a 1500-byte MTU: 3 packets (1500+1500+1000).
	r.Record(0, msg(proto.Display, "big", 4000))
	r.Flush()
	if r.Packets() != 3 {
		t.Fatalf("packets = %d, want 3", r.Packets())
	}
}

func TestPacketizationWindowExpiry(t *testing.T) {
	r := NewRecorder()
	r.Record(0, msg(proto.Display, "a", 100))
	// Next message far outside the 5ms window: separate packet.
	r.Record(simclock.Time(50*simclock.Millisecond), msg(proto.Display, "b", 100))
	r.Flush()
	if r.Packets() != 2 {
		t.Fatalf("packets = %d, want 2 (window expired)", r.Packets())
	}
}

func TestChannelsPacketizeIndependently(t *testing.T) {
	r := NewRecorder()
	r.Record(0, msg(proto.Display, "d", 100))
	r.Record(0, msg(proto.Input, "i", 100))
	r.Flush()
	if r.Packets() != 2 {
		t.Fatalf("packets = %d, want 2 (one per channel)", r.Packets())
	}
}

func TestVIPSavings(t *testing.T) {
	r := NewRecorder()
	r.Record(0, msg(proto.Display, "d", 1000))
	r.Flush()
	saved, frac := r.VIPSavings()
	if saved != 20 {
		t.Fatalf("saved = %d, want 20 (one packet, one IP header)", saved)
	}
	if frac != 0.02 {
		t.Fatalf("frac = %v, want 0.02", frac)
	}
	if r.WireBytes() != 1040 {
		t.Fatalf("wire bytes = %d, want 1040", r.WireBytes())
	}
}

func TestVIPSavingsEmptyCapture(t *testing.T) {
	r := NewRecorder()
	r.Flush()
	if _, frac := r.VIPSavings(); frac != 0 {
		t.Fatal("empty capture should report zero fraction")
	}
}

func TestSeriesMbps(t *testing.T) {
	r := NewRecorder()
	// 125,000 bytes in second 0 = 1 Mbps.
	r.Record(simclock.Time(simclock.Millisecond), msg(proto.Display, "d", 125000))
	mbps := r.Series().Mbps()
	if len(mbps) == 0 || mbps[0] < 0.99 || mbps[0] > 1.01 {
		t.Fatalf("series Mbps = %v, want [~1]", mbps)
	}
}

func TestSummaryRendering(t *testing.T) {
	r := NewRecorder()
	r.Record(0, msg(proto.Input, "Events", 32))
	r.Record(0, msg(proto.Display, "PutImage", 888))
	r.Flush()
	out := r.Summary("office workload over x")
	for _, want := range []string{"office workload over x", "input:", "display:", "total:", "VIP savings"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}
