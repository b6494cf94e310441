package rdp

import (
	"fmt"

	"thinbench/internal/proto"
)

// RLE8 is the era-appropriate run-length bitmap codec: RDP compressed
// bitmap payloads with an RLE family long before any general-purpose
// compression was negotiated. Flat UI content (window bodies, menus,
// toolbars) compresses extremely well; photographic animation frames
// barely compress at all, which is why the bitmap *cache*, not the codec,
// is what tames animations.
//
// Format: a control byte C, then
//
//	C <= 0x7F: a run of C+1 copies of the next byte
//	C >= 0x80: C-0x7F literal bytes follow

// rleEncode compresses src.
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

// rleDecode expands enc into a buffer of exactly want bytes. A two-byte
// run yields at most 128 bytes, so the preallocation is bounded by what
// enc can expand to, whatever want claims.
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
