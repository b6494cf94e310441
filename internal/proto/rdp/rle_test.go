package rdp

import (
	"bytes"
	"testing"
	"testing/quick"

	"thinbench/internal/display"
	"thinbench/internal/proto"
)

func TestRLERoundTripBasics(t *testing.T) {
	cases := [][]byte{
		{},
		{1},
		{1, 1, 1, 1, 1},
		{1, 2, 3, 4, 5},
		{0, 0, 0, 7, 7, 7, 7, 1, 2, 3},
		bytes.Repeat([]byte{9}, 1000),
		// Regression: a literal stretch longer than the 128-literal control
		// byte limit (alternating bytes defeat run detection entirely).
		bytes.Repeat([]byte{1, 2}, 300),
	}
	for _, in := range cases {
		enc := rleEncode(in)
		out, err := rleDecode(enc, len(in))
		if err != nil {
			t.Fatalf("decode(%v): %v", in, err)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("round trip: got %v, want %v", out, in)
		}
	}
}

func TestRLECompressesFlatContent(t *testing.T) {
	flat := display.SyntheticFrame(1, 0, 120, 90) // blocky UI-like content
	enc := rleEncode(flat.Pix)
	if len(enc) >= len(flat.Pix)/2 {
		t.Fatalf("RLE on flat content: %d -> %d, want at least 2x", len(flat.Pix), len(enc))
	}
}

func TestRLEBarelyExpandsPhotoContent(t *testing.T) {
	photo := display.SyntheticPhoto(1, 0, 120, 90)
	enc := rleEncode(photo.Pix)
	// Worst case literal overhead is 1 byte per 128.
	if len(enc) > len(photo.Pix)+len(photo.Pix)/64 {
		t.Fatalf("RLE expanded photo content too much: %d -> %d", len(photo.Pix), len(enc))
	}
}

func TestRLEDecodeErrors(t *testing.T) {
	if _, err := rleDecode([]byte{5}, 6); err == nil {
		t.Fatal("truncated run accepted")
	}
	if _, err := rleDecode([]byte{0x85, 1, 2}, 6); err == nil {
		t.Fatal("truncated literals accepted")
	}
	if _, err := rleDecode([]byte{0, 1}, 5); err == nil {
		t.Fatal("wrong decoded length accepted")
	}
}

func TestRLERoundTripProperty(t *testing.T) {
	f := func(in []byte) bool {
		enc := rleEncode(in)
		out, err := rleDecode(enc, len(in))
		return err == nil && bytes.Equal(out, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSlotRecycling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 30000 // room for ~3 of the 100x80 test bitmaps
	srv := NewServer(cfg)
	cli := NewClient(cfg)
	// Push 10 distinct bitmaps through; eviction must recycle slots and the
	// client must keep rendering correctly.
	for i := 0; i < 10; i++ {
		img := display.SyntheticPhoto(uint64(i), i, 100, 80)
		var ops display.OpTape
		ops.Blit(0, 0, img)
		for _, m := range srv.Update(&ops, 0, ops.Len(), &proto.Scratch{}) {
			if err := cli.Apply(m); err != nil {
				t.Fatalf("bitmap %d: %v", i, err)
			}
		}
		want := display.NewFramebuffer(cfg.ScreenW, cfg.ScreenH)
		want.ApplyBlit(0, 0, img)
		if !cli.Framebuffer().Equal(want) {
			t.Fatalf("bitmap %d: pixels diverged", i)
		}
	}
	if stats := srv.CacheStats(); stats.Evictions == 0 {
		t.Fatal("no evictions despite over-capacity stream")
	}
}
