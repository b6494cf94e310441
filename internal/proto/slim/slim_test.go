package slim

import (
	"errors"
	"testing"

	"thinbench/internal/display"
	"thinbench/internal/proto"
	"thinbench/internal/simclock"
)

func pair() (*Server, *Client) {
	return NewServer(DefaultConfig()), NewClient(DefaultConfig())
}

// encode encodes the whole tape into a fresh scratch, so the messages are
// the caller's to keep.
func encode(srv *Server, t *display.OpTape) []proto.Message {
	return srv.Update(t, 0, t.Len(), &proto.Scratch{})
}

// reference renders the whole tape onto a fresh screen of the default size.
func reference(t *display.OpTape) *display.Framebuffer {
	fb := display.NewFramebuffer(DefaultConfig().ScreenW, DefaultConfig().ScreenH)
	fb.ApplyTape(t, 0, t.Len())
	return fb
}

func TestTextAsTwoColorBitmap(t *testing.T) {
	srv, cli := pair()
	const text = "sunray"
	var ops display.OpTape
	ops.Text(20, 30, text, 6)
	msgs := encode(srv, &ops)
	if len(msgs) != 1 || msgs[0].Kind != "BITMAP" {
		t.Fatalf("text encoded as %v, want one BITMAP command", msgs)
	}
	// 1 bpp: payload ~ header + width*height/8, far below raw pixels.
	raw := len(text) * display.GlyphW * display.GlyphH
	if msgs[0].Size() > raw/4 {
		t.Fatalf("BITMAP size %d not ≪ raw %d", msgs[0].Size(), raw)
	}
	if err := cli.Apply(msgs[0]); err != nil {
		t.Fatal(err)
	}
	if !cli.Framebuffer().Equal(reference(&ops)) {
		t.Fatal("BITMAP text rendering diverged from reference")
	}
}

func TestSETIsRawAndStateless(t *testing.T) {
	srv, _ := pair()
	img := display.SyntheticPhoto(3, 0, 50, 40)
	var ops display.OpTape
	ops.Blit(0, 0, img)
	a := encode(srv, &ops)[0].Size()
	b := encode(srv, &ops)[0].Size()
	if a != b {
		t.Fatal("SLIM is stateless; repeat cost must equal first cost")
	}
	if a < img.Bytes() {
		t.Fatalf("SET %d bytes < raw %d", a, img.Bytes())
	}
}

func TestFillAndCopyCompact(t *testing.T) {
	srv, _ := pair()
	var ops display.OpTape
	ops.Fill(display.Rect{X: 1, Y: 2, W: 300, H: 200}, 9)
	ops.Copy(display.Rect{X: 0, Y: 0, W: 100, H: 100}, 50, 50)
	msgs := encode(srv, &ops)
	if len(msgs) != 2 {
		t.Fatalf("got %d messages, want one per command", len(msgs))
	}
	if msgs[0].Size() != 10 || msgs[1].Size() != 13 {
		t.Fatalf("FILL/COPY sizes = %d/%d, want 10/13", msgs[0].Size(), msgs[1].Size())
	}
}

func TestSetupTiny(t *testing.T) {
	srv, _ := pair()
	if n := srv.SetupBytes(); n > 2000 {
		t.Fatalf("SLIM setup = %d bytes; the protocol's point is minimal session state", n)
	}
}

func TestBitmapBitPackingWidthNotMultipleOf8(t *testing.T) {
	// 3 glyphs = 24 px wide; 13 rows = 312 bits = 39 bytes exactly; also
	// try 1 glyph (8 px * 13 = 104 bits = 13 bytes).
	for _, text := range []string{"abc", "x", "hello"} {
		srv, cli := pair()
		var ops display.OpTape
		ops.Text(3, 7, text, 2)
		for _, m := range encode(srv, &ops) {
			if err := cli.Apply(m); err != nil {
				t.Fatalf("%q: %v", text, err)
			}
		}
		if !cli.Framebuffer().Equal(reference(&ops)) {
			t.Fatalf("%q: bit packing corrupted glyphs", text)
		}
	}
}

// TestBitmapMatchesPerPixelOracle: a BITMAP of any width, its rows
// byte-aligned or not, anywhere on or off a screen of bands 64, 64 and 22
// rows, paints what painting each set bit's pixel alone paints, color 0
// over drawn rows included. Its data is exactly (w×h+7)/8 bytes: the
// client reads no further, and a message one byte short is truncated.
func TestBitmapMatchesPerPixelOracle(t *testing.T) {
	cfg := Config{ScreenW: 100, ScreenH: 150}
	r := simclock.NewRand(5)
	for round := 0; round < 500; round++ {
		w, h := 1+r.Intn(40), 1+r.Intn(20)
		x, y := r.Intn(160)-50, r.Intn(190)-30
		fg := byte(r.Intn(3) * 100)
		data := make([]byte, (w*h+7)/8)
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		msg := proto.NewWriter(0)
		cmdHeader(msg, cmdBitmap, x, y, w, h)
		msg.U8(fg).U8(0).Raw(data)
		background := display.Rect{X: 0, Y: 50, W: 100, H: 30}
		cli := NewClient(cfg)
		cli.Framebuffer().ApplyFill(background, 7)
		if err := cli.Apply(proto.Message{Channel: proto.Display, Payload: msg.Bytes()}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := display.NewFramebuffer(cfg.ScreenW, cfg.ScreenH)
		want.ApplyFill(background, 7)
		for bit := 0; bit < w*h; bit++ {
			if data[bit/8]>>uint(bit%8)&1 == 1 {
				want.PaintBits(x+bit%w, y+bit/w, 1, fg)
			}
		}
		if !cli.Framebuffer().Equal(want) {
			t.Fatalf("round %d: %dx%d BITMAP at (%d,%d) painted other pixels than its bits one by one", round, w, h, x, y)
		}
		short := msg.Bytes()[:msg.Len()-1]
		if err := NewClient(cfg).Apply(proto.Message{Channel: proto.Display, Payload: short}); !errors.Is(err, proto.ErrTruncated) {
			t.Fatalf("round %d: a BITMAP one byte short: %v, want truncated", round, err)
		}
	}
}
