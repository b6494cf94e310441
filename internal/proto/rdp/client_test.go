package rdp

import (
	"errors"
	"testing"

	"thinbench/internal/bitmapcache"
	"thinbench/internal/display"
	"thinbench/internal/proto"
)

// pdu frames orders as one display PDU for Client.Apply.
func pdu(orders int, body func(w *proto.Writer)) proto.Message {
	w := proto.NewWriter(64)
	w.Zero(4)
	w.U16(uint16(orders))
	w.Zero(pduHeaderSize - 6)
	body(w)
	return proto.Message{Channel: proto.Display, Payload: w.Bytes()}
}

// memBlt is a MemBlt order drawing a w×h slot at the origin.
func memBlt(slot uint16, w, h int) proto.Message {
	return pdu(1, func(pw *proto.Writer) {
		pw.U8(ordMemBlt).U16(slot).I16(0).I16(0).U16(uint16(w)).U16(uint16(h))
	})
}

// cacheBitmap is a CacheBitmap order filling slot with a w×h image from
// an RLE body.
func cacheBitmap(slot uint16, w, h int, body []byte) proto.Message {
	return pdu(1, func(pw *proto.Writer) {
		pw.U8(ordCacheBitmap).U16(slot).U16(uint16(w)).U16(uint16(h)).U32(uint32(len(body))).Raw(body)
	})
}

// glyphRun is a GlyphIndex order drawing glyph idx at the origin.
func glyphRun(idx uint16) proto.Message {
	return pdu(1, func(pw *proto.Writer) {
		pw.U8(ordGlyphIndex).I16(0).I16(0).U8(1).U8(1).U16(idx)
	})
}

// TestClientReusesCachedBitmaps checks the client's bitmap and glyph
// stores across a session reset: a reset slot reads as absent, a session
// replayed after the reset draws the same pixels and decodes into the
// bitmaps the last session left, allocating none, and a body that fails
// to decode leaves its slot as it was, live or dead.
func TestClientReusesCachedBitmaps(t *testing.T) {
	srv, cli := NewServer(bitmapcache.LRU), NewClient()
	img := display.SyntheticPhoto(3, 1, 100, 80)
	var ops display.OpTape
	ops.Blit(10, 20, img)
	ops.Text(200, 40, "reuse", 1)
	var msgs []proto.Message
	for _, m := range srv.Update(&ops, 0, ops.Len(), &proto.Scratch{}) {
		m.Payload = append([]byte(nil), m.Payload...)
		msgs = append(msgs, m)
	}
	apply := func(ms ...proto.Message) error {
		for _, m := range ms {
			if err := cli.Apply(m); err != nil {
				return err
			}
		}
		return nil
	}
	if err := apply(msgs...); err != nil {
		t.Fatal(err)
	}
	want := cli.Framebuffer().Hash()
	if cli.CachedBitmaps() != 1 {
		t.Fatalf("client holds %d bitmaps, want 1", cli.CachedBitmaps())
	}

	// A reset slot reads as absent.
	cli.ResetSession()
	if n := cli.CachedBitmaps(); n != 0 {
		t.Fatalf("client holds %d bitmaps after a reset, want 0", n)
	}
	if err := apply(memBlt(0, img.W, img.H)); !errors.Is(err, proto.ErrBadMessage) {
		t.Fatalf("MemBlt of a reset slot: %v, want a bad message", err)
	}
	if err := apply(glyphRun(0)); !errors.Is(err, proto.ErrBadMessage) {
		t.Fatalf("GlyphIndex of a reset glyph: %v, want a bad message", err)
	}

	// A body that fails to decode into a dead slot leaves it absent.
	good := encodeRLE(img.Pix)
	short := good[:len(good)-1]
	if err := apply(cacheBitmap(0, img.W, img.H, short)); err == nil {
		t.Fatal("a truncated body decoded")
	}
	if err := apply(memBlt(0, img.W, img.H)); !errors.Is(err, proto.ErrBadMessage) {
		t.Fatalf("MemBlt of a slot whose fill failed: %v, want a bad message", err)
	}

	// The replay draws the same screen and allocates nothing.
	cli.ResetSession()
	if err := apply(msgs...); err != nil {
		t.Fatal(err)
	}
	if cli.Framebuffer().Hash() != want {
		t.Fatal("a session replayed after a reset drew different pixels")
	}
	if n := testing.AllocsPerRun(20, func() {
		cli.ResetSession()
		if err := apply(msgs...); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a replayed session allocates %v times, want 0", n)
	}

	// A body that fails to decode into a live slot of its size leaves the
	// slot's image as it was: neither a short body nor one that expands
	// past the bitmap writes a pixel.
	flat := encodeRLE(make([]byte, img.W*img.H))
	long := append(append([]byte(nil), flat...), 0x00, 0x07)
	for _, body := range [][]byte{short, flat[:len(flat)-1], long} {
		if err := apply(cacheBitmap(0, img.W, img.H, body)); err == nil {
			t.Fatal("a malformed body decoded")
		}
	}
	cli.Framebuffer().Reset()
	if err := apply(memBlt(0, img.W, img.H)); err != nil {
		t.Fatal(err)
	}
	ref := display.NewFramebuffer(display.TypicalScreenW, display.TypicalScreenH)
	ref.ApplyBlit(0, 0, img)
	if !cli.Framebuffer().Equal(ref) {
		t.Fatal("a failed fill changed the live slot's image")
	}
}
