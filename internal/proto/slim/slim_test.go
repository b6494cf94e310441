package slim

import (
	"testing"

	"thinbench/internal/display"
	"thinbench/internal/proto"
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
