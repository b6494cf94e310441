package rdp

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"thinbench/internal/bitmapcache"
	"thinbench/internal/display"
	"thinbench/internal/proto"
)

// encodeRLE returns rleAppend's encoding of src.
func encodeRLE(src []byte) []byte {
	w := proto.NewWriter(0)
	rleAppend(w, src)
	return w.Bytes()
}

// decodeRLE expands enc through rleDecodeInto into a fresh buffer of want
// bytes.
func decodeRLE(enc []byte, want int) ([]byte, error) {
	out := make([]byte, want)
	return out, rleDecodeInto(out, enc)
}

// rleEncode builds src's encoding in a fresh slice, the plain form of
// rleAppend, kept as its oracle.
func rleEncode(src []byte) []byte {
	out := make([]byte, 0, len(src)/4+16)
	i := 0
	for i < len(src) {
		// Measure the run starting at i.
		run := 1
		for i+run < len(src) && src[i+run] == src[i] && run < 128 {
			run++
		}
		if run >= 3 {
			out = append(out, byte(run-1), src[i])
			i += run
			continue
		}
		// Gather literals until the next run of >= 3, capped at the
		// control byte's maximum of 128 literals.
		start := i
		for i < len(src) && i-start < 128 {
			run = 1
			for i+run < len(src) && src[i+run] == src[i] && run < 3 {
				run++
			}
			if run >= 3 {
				break
			}
			i += run
		}
		if i-start > 128 {
			i = start + 128
		}
		n := i - start
		if n == 0 { // at a run boundary immediately
			continue
		}
		out = append(out, byte(0x7F+n))
		out = append(out, src[start:i]...)
	}
	return out
}

// rleDecode expands enc into a fresh buffer of exactly want bytes, the
// plain form of rleDecodeInto, kept as its oracle.
func rleDecode(enc []byte, want int) ([]byte, error) {
	out := make([]byte, 0, min(want, 64*len(enc)))
	i := 0
	for i < len(enc) {
		c := enc[i]
		i++
		if c <= 0x7F {
			if i >= len(enc) {
				return nil, proto.ErrTruncated
			}
			v := enc[i]
			i++
			for j := 0; j <= int(c); j++ {
				out = append(out, v)
			}
		} else {
			n := int(c) - 0x7F
			if i+n > len(enc) {
				return nil, proto.ErrTruncated
			}
			out = append(out, enc[i:i+n]...)
			i += n
		}
	}
	if len(out) != want {
		return nil, fmt.Errorf("%w: RLE decoded %d bytes, want %d", proto.ErrBadMessage, len(out), want)
	}
	return out, nil
}

// FuzzRLEMatchesOracle checks the codec against the fresh-buffer oracles:
// rleAppend writes rleEncode's bytes behind what the writer already
// holds, and rleDecodeInto, reading the input as an encoded body, yields
// rleDecode's bytes or its exact error. Any input also round-trips.
func FuzzRLEMatchesOracle(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0, 0, 0, 7, 7, 7, 7, 1, 2, 3}, uint16(10))
	f.Add(bytes.Repeat([]byte{1, 2}, 300), uint16(600))
	f.Add([]byte{0x7F, 9}, uint16(128))
	f.Add([]byte{0x7F, 9, 0x7F}, uint16(128))
	f.Add([]byte{0x85, 1, 2}, uint16(6))
	f.Fuzz(func(t *testing.T, data []byte, want uint16) {
		w := proto.NewWriter(0)
		w.U8(0xEE)
		rleAppend(w, data)
		if got, ref := w.Bytes()[1:], rleEncode(data); !bytes.Equal(got, ref) {
			t.Fatalf("rleAppend(%x) = %x, oracle %x", data, got, ref)
		}
		got, err := decodeRLE(data, int(want))
		ref, refErr := rleDecode(data, int(want))
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("decoding %x to %d bytes: err %v, oracle %v", data, want, err, refErr)
		}
		if err == nil && !bytes.Equal(got, ref) {
			t.Fatalf("decoding %x: %x, oracle %x", data, got, ref)
		}
		if back, err := decodeRLE(encodeRLE(data), len(data)); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("round trip of %x: %x, %v", data, back, err)
		}
	})
}

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
		enc := encodeRLE(in)
		out, err := decodeRLE(enc, len(in))
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
	enc := encodeRLE(flat.Pix)
	if len(enc) >= len(flat.Pix)/2 {
		t.Fatalf("RLE on flat content: %d -> %d, want at least 2x", len(flat.Pix), len(enc))
	}
}

func TestRLEBarelyExpandsPhotoContent(t *testing.T) {
	photo := display.SyntheticPhoto(1, 0, 120, 90)
	enc := encodeRLE(photo.Pix)
	// Worst case literal overhead is 1 byte per 128.
	if len(enc) > len(photo.Pix)+len(photo.Pix)/64 {
		t.Fatalf("RLE expanded photo content too much: %d -> %d", len(photo.Pix), len(enc))
	}
}

func TestRLEDecodeErrors(t *testing.T) {
	if _, err := decodeRLE([]byte{5}, 6); err == nil {
		t.Fatal("truncated run accepted")
	}
	if _, err := decodeRLE([]byte{0x85, 1, 2}, 6); err == nil {
		t.Fatal("truncated literals accepted")
	}
	if _, err := decodeRLE([]byte{0, 1}, 5); err == nil {
		t.Fatal("wrong decoded length accepted")
	}
}

func TestRLERoundTripProperty(t *testing.T) {
	f := func(in []byte) bool {
		enc := encodeRLE(in)
		out, err := decodeRLE(enc, len(in))
		return err == nil && bytes.Equal(out, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSlotRecycling pushes more distinct bitmaps through the 1.5 MB cache
// than it holds: 320x240 photos, 20 of which fit. Eviction must recycle
// their slots, so the server never numbers more slots than the cache
// holds bitmaps, and the client must keep rendering correctly.
func TestSlotRecycling(t *testing.T) {
	const w, h = 320, 240
	srv, cli := NewServer(bitmapcache.LRU), NewClient()
	for i := 0; i < 30; i++ {
		img := display.SyntheticPhoto(uint64(i), i, w, h)
		var ops display.OpTape
		ops.Blit(0, 0, img)
		for _, m := range srv.Update(&ops, 0, ops.Len(), &proto.Scratch{}) {
			if err := cli.Apply(m); err != nil {
				t.Fatalf("bitmap %d: %v", i, err)
			}
		}
		want := display.NewFramebuffer(display.TypicalScreenW, display.TypicalScreenH)
		want.ApplyBlit(0, 0, img)
		if !cli.Framebuffer().Equal(want) {
			t.Fatalf("bitmap %d: pixels diverged", i)
		}
	}
	if stats := srv.CacheStats(); stats.Evictions == 0 {
		t.Fatal("no evictions despite over-capacity stream")
	}
	if fit := bitmapcache.DefaultCapacity / (w * h); int(srv.nextSlot) > fit {
		t.Fatalf("the server numbered %d slots for a cache of %d bitmaps", srv.nextSlot, fit)
	}
}
