package protos_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"thinbench/internal/display"
	"thinbench/internal/proto"
	"thinbench/internal/proto/protos"
	"thinbench/internal/simclock"
)

// wireDigests pins every codec's wire bytes over the randomized streams of
// TestWireDigests. A codec refactor must reproduce them exactly: a changed
// digest means a changed byte on the wire, and with it every simulated
// number the byte counts feed.
var wireDigests = map[string]uint64{
	"rdp":  0x61738dab38fbd3ec,
	"x":    0x76e4404a9531433b,
	"lbx":  0x530f6db5820ecfbb,
	"vnc":  0x1c3d8f18cffdf948,
	"slim": 0xd0a2738283c9afc2,
}

// inputGen draws randomized input-event batches: keys across the code
// range, pointer motion both near the last position (lbx's relative form)
// and far from it (its absolute form), long motion runs (rdp's sampler),
// and button presses and releases.
type inputGen struct {
	r      *simclock.Rand
	w, h   int
	px, py int
}

func (g *inputGen) batch() []display.InputEvent {
	evs := make([]display.InputEvent, 1+g.r.Intn(20))
	for i := range evs {
		switch g.r.Intn(5) {
		case 0:
			evs[i] = display.KeyEvent{Down: g.r.Intn(2) == 0, Code: uint16(g.r.Intn(1 << 15))}
		case 1:
			evs[i] = display.MouseButton{Down: g.r.Intn(2) == 0, Button: uint8(1 + g.r.Intn(5))}
		case 2:
			g.px, g.py = g.r.Intn(g.w), g.r.Intn(g.h)
			evs[i] = display.MouseMove{X: g.px, Y: g.py}
		default:
			g.px += g.r.Intn(41) - 20
			g.py += g.r.Intn(41) - 20
			evs[i] = display.MouseMove{X: g.px, Y: g.py}
		}
	}
	return evs
}

// digestMessages folds each message's channel, kind, and payload into h.
func digestMessages(h interface{ Write([]byte) (int, error) }, msgs []proto.Message) {
	for _, m := range msgs {
		var hdr [5]byte
		hdr[0] = byte(m.Channel)
		binary.LittleEndian.PutUint32(hdr[1:], uint32(len(m.Payload)))
		h.Write(hdr[:])
		h.Write([]byte(m.Kind))
		h.Write([]byte{0})
		h.Write(m.Payload)
	}
}

// TestWireDigests drives every codec through randomized display-op and
// input-event streams — every op kind, text with multi-byte runes, reused
// bitmaps for cache hits, and bitmaps both above lbx's framing chunk and
// compression threshold, compressible and not — and checks an FNV digest
// of every message's (Channel, Kind, Payload) against the pinned value.
// Every display message must also apply cleanly and every input message
// decode cleanly, so the digest covers a valid stream.
func TestWireDigests(t *testing.T) {
	for _, name := range protos.Names() {
		t.Run(name, func(t *testing.T) {
			h := fnv.New64a()
			for seed := uint64(1); seed <= 3; seed++ {
				srv, cli, _, err := protos.New(name)
				if err != nil {
					t.Fatal(err)
				}
				fb := cli.Framebuffer()
				g := &opGen{r: simclock.NewRand(seed), w: fb.W, h: fb.H, big: true}
				in := &inputGen{r: simclock.NewRand(simclock.DeriveSeed(seed, 1)), w: fb.W, h: fb.H}
				var tape display.OpTape
				for round := 0; round < 150; round++ {
					tape.Reset()
					g.batch(&tape)
					msgs := srv.Update(&tape, 0, tape.Len(), &proto.Scratch{})
					digestMessages(h, msgs)
					for _, m := range msgs {
						if err := cli.Apply(m); err != nil {
							t.Fatalf("seed %d round %d: apply %s: %v", seed, round, m.Kind, err)
						}
					}
					msgs = cli.EncodeInput(in.batch(), &proto.Scratch{})
					digestMessages(h, msgs)
					for _, m := range msgs {
						if _, err := srv.DecodeInput(m); err != nil {
							t.Fatalf("seed %d round %d: decode input: %v", seed, round, err)
						}
					}
				}
			}
			if got := h.Sum64(); got != wireDigests[name] {
				t.Errorf("%s wire digest %#016x, pinned %#016x", name, got, wireDigests[name])
			}
		})
	}
}
