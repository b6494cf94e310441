package slim

import (
	"errors"
	"testing"

	"thinbench/internal/display"
	"thinbench/internal/proto"
	"thinbench/internal/simclock"
)

func pair() (*Server, *Client) {
	return NewServer(), NewClient()
}

// encode encodes the whole tape into a fresh scratch, so the messages are
// the caller's to keep.
func encode(srv *Server, t *display.OpTape) []proto.Message {
	return srv.Update(t, 0, t.Len(), &proto.Scratch{})
}

// reference renders the whole tape onto a fresh screen.
func reference(t *display.OpTape) *display.Framebuffer {
	fb := display.NewFramebuffer(display.TypicalScreenW, display.TypicalScreenH)
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

// TestBitmapBitPackingWidthNotMultipleOf8: the server packs text as whole
// glyph cells, so its BITMAP rows are whole bytes: 3 glyphs are 24 pixels
// and 13 rows 39 bytes exactly, 1 glyph 13 bytes. The same glyph bits
// repacked at a width that is not a multiple of 8, the cells cut short so
// that every row after the first starts inside a byte, paint the text cut
// at that width.
func TestBitmapBitPackingWidthNotMultipleOf8(t *testing.T) {
	const x, y, fg = 3, 7, 2
	for _, text := range []string{"abc", "x", "hello"} {
		srv, cli := pair()
		var ops display.OpTape
		ops.Text(x, y, text, fg)
		for _, m := range encode(srv, &ops) {
			if err := cli.Apply(m); err != nil {
				t.Fatalf("%q: %v", text, err)
			}
		}
		if !cli.Framebuffer().Equal(reference(&ops)) {
			t.Fatalf("%q: bit packing corrupted glyphs", text)
		}
		full := len(text) * display.GlyphW
		for _, w := range []int{1, 5, full - 3, full - 1} {
			data := make([]byte, (w*display.GlyphH+7)/8)
			for yy := 0; yy < display.GlyphH; yy++ {
				for xx := 0; xx < w; xx++ {
					if display.GlyphRowBits(rune(text[xx/display.GlyphW]), yy)>>uint(xx%display.GlyphW)&1 == 1 {
						bit := yy*w + xx
						data[bit/8] |= 1 << uint(bit%8)
					}
				}
			}
			msg := proto.NewWriter(0)
			cmdHeader(msg, cmdBitmap, x, y, w, display.GlyphH)
			msg.U8(fg).U8(0).Raw(data)
			cut := NewClient()
			if err := cut.Apply(proto.Message{Channel: proto.Display, Payload: msg.Bytes()}); err != nil {
				t.Fatalf("%q cut to %d pixels: %v", text, w, err)
			}
			want := reference(&ops)
			want.ApplyFill(display.Rect{X: x + w, Y: y, W: full - w, H: display.GlyphH}, 0)
			if !cut.Framebuffer().Equal(want) {
				t.Fatalf("%q cut to %d pixels painted other pixels than the text's first %d columns", text, w, w)
			}
		}
	}
}

// TestBitmapMatchesPerPixelOracle: a BITMAP of any width, its rows
// byte-aligned or not, across or past any of the screen's four edges or
// across the top of its partial last band, paints what painting each set
// bit's pixel alone paints, color 0 over drawn rows included. Its data is
// exactly (w×h+7)/8 bytes: the client reads no further, and a message one
// byte short is truncated.
func TestBitmapMatchesPerPixelOracle(t *testing.T) {
	const sw, sh = display.TypicalScreenW, display.TypicalScreenH
	var left, right, top, bottom int
	r := simclock.NewRand(5)
	for round := 0; round < 500; round++ {
		w, h := 1+r.Intn(40), 1+r.Intn(20)
		x, y := r.Intn(sw-w), r.Intn(sh-h)
		switch r.Intn(3) {
		case 0:
			x = r.Intn(w+20) - w - 10
		case 1:
			x = sw - 10 + r.Intn(w+20) - w
		}
		switch r.Intn(4) {
		case 0:
			y = r.Intn(h+20) - h - 10
		case 1:
			y = sh - 10 + r.Intn(h+20) - h
		case 2:
			y = sh/64*64 - h + r.Intn(h) // across the partial last band's top
		}
		left += btoi(x < 0)
		right += btoi(x+w > sw)
		top += btoi(y < 0)
		bottom += btoi(y+h > sh)
		fg := byte(r.Intn(3) * 100)
		data := make([]byte, (w*h+7)/8)
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		msg := proto.NewWriter(0)
		cmdHeader(msg, cmdBitmap, x, y, w, h)
		msg.U8(fg).U8(0).Raw(data)
		background := display.Rect{X: 0, Y: y + r.Intn(h+10) - 10, W: sw, H: 10}
		cli := NewClient()
		cli.Framebuffer().ApplyFill(background, 7)
		if err := cli.Apply(proto.Message{Channel: proto.Display, Payload: msg.Bytes()}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := display.NewFramebuffer(sw, sh)
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
		if err := NewClient().Apply(proto.Message{Channel: proto.Display, Payload: short}); !errors.Is(err, proto.ErrTruncated) {
			t.Fatalf("round %d: a BITMAP one byte short: %v, want truncated", round, err)
		}
	}
	if left == 0 || right == 0 || top == 0 || bottom == 0 {
		t.Fatalf("bitmaps across the left, right, top and bottom edges: %d, %d, %d, %d; want each above 0", left, right, top, bottom)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
