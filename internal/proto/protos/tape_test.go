package protos_test

import (
	"fmt"
	"testing"

	"thinbench/internal/display"
	"thinbench/internal/proto"
	"thinbench/internal/proto/protos"
	"thinbench/internal/simclock"
)

// opGen draws randomized op-tape entries: every op kind, geometry
// hanging off the screen edges, multi-byte text, and a bitmap pool reused
// across rounds so cache-bearing protocols exercise hits as well as misses.
//
// With big set, half the fresh bitmaps are large: striped ones that
// compress well and noisy ones that do not, both well past lbx's 256-byte
// framing chunk and 128-byte compression threshold.
type opGen struct {
	r    *simclock.Rand
	w, h int
	big  bool
	imgs []*display.Bitmap
}

func (g *opGen) bitmap() *display.Bitmap {
	if len(g.imgs) > 0 && g.r.Intn(2) == 0 {
		return g.imgs[g.r.Intn(len(g.imgs))]
	}
	var img *display.Bitmap
	switch {
	case g.big && g.r.Intn(4) == 0:
		img = display.NewBitmap(17+g.r.Intn(96), 9+g.r.Intn(48))
		for i := range img.Pix {
			img.Pix[i] = byte(i / img.W / (1 + g.r.Intn(2)) % 4)
		}
	case g.big && g.r.Intn(3) == 0:
		img = display.NewBitmap(17+g.r.Intn(48), 9+g.r.Intn(32))
		for i := range img.Pix {
			img.Pix[i] = byte(g.r.Uint64())
		}
	default:
		img = display.NewBitmap(1+g.r.Intn(24), 1+g.r.Intn(16))
		for i := range img.Pix {
			img.Pix[i] = byte(g.r.Uint64())
		}
	}
	g.imgs = append(g.imgs, img)
	return img
}

func (g *opGen) rect() display.Rect {
	return display.Rect{X: g.r.Intn(g.w), Y: g.r.Intn(g.h), W: 1 + g.r.Intn(64), H: 1 + g.r.Intn(32)}
}

// tapeAlphabet includes multi-byte runes so the tape's UTF-8 arena is
// exercised, not just ASCII.
var tapeAlphabet = []rune("abcdefghijklmnopqrstuvwxyz0123456789 éλ→")

// op draws one random entry onto t.
func (g *opGen) op(t *display.OpTape) {
	switch g.r.Intn(4) {
	case 0:
		t.Fill(g.rect(), byte(g.r.Intn(256)))
	case 1:
		t.Copy(g.rect(), g.r.Intn(g.w), g.r.Intn(g.h))
	case 2:
		s := make([]rune, 1+g.r.Intn(12))
		for i := range s {
			s[i] = tapeAlphabet[g.r.Intn(len(tapeAlphabet))]
		}
		t.Text(g.r.Intn(g.w), g.r.Intn(g.h), string(s), byte(g.r.Intn(256)))
	default:
		t.Blit(g.r.Intn(g.w), g.r.Intn(g.h), g.bitmap())
	}
}

// batch draws one to six random entries onto t.
func (g *opGen) batch(t *display.OpTape) {
	for n := 1 + g.r.Intn(6); n > 0; n-- {
		g.op(t)
	}
}

// TestTapeMatchesOpsRandomStreams is the codec round-trip property test.
// For every protocol, randomized op streams go onto a tape, and after the
// client applies the server's encode of each window its framebuffer must
// equal a reference rendered by ApplyTape over the same windows. Windows
// may start mid-tape, where the absolute text offsets and bitmap indices
// earn their keep, and one tape and one scratch serve every round, as in
// the simulator.
func TestTapeMatchesOpsRandomStreams(t *testing.T) {
	for _, name := range protos.Names() {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s_seed%d", name, seed), func(t *testing.T) {
				srv, cli, _, err := protos.New(name)
				if err != nil {
					t.Fatal(err)
				}
				fb := cli.Framebuffer()
				ref := display.NewFramebuffer(fb.W, fb.H)
				g := &opGen{r: simclock.NewRand(seed), w: fb.W, h: fb.H, big: true}
				var tape display.OpTape
				var sc proto.Scratch
				for round := 0; round < 200; round++ {
					tape.Reset()
					from := 0
					if g.r.Intn(3) == 0 {
						// A decoy prefix forces a strict [from, to) encode
						// window over non-zero arena offsets.
						g.batch(&tape)
						from = tape.Len()
					}
					g.batch(&tape)
					for _, m := range srv.Update(&tape, from, tape.Len(), &sc) {
						if err := cli.Apply(m); err != nil {
							t.Fatalf("round %d: apply %s: %v", round, m.Kind, err)
						}
					}
					ref.ApplyTape(&tape, from, tape.Len())
					if !fb.Equal(ref) {
						t.Fatalf("round %d: client framebuffer diverged from the ApplyTape reference", round)
					}
				}
			})
		}
	}
}
