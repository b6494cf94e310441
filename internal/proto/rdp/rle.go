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

// rleAppend appends src's encoding to w.
func rleAppend(w *proto.Writer, src []byte) {
	i := 0
	for i < len(src) {
		// Measure the run starting at i.
		run := 1
		for i+run < len(src) && src[i+run] == src[i] && run < 128 {
			run++
		}
		if run >= 3 {
			w.U8(byte(run - 1)).U8(src[i])
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
		w.U8(byte(0x7F + n)).Raw(src[start:i])
	}
}

// rleMaxExpansion is the most bytes one encoded byte can stand for: a
// two-byte run yields 128.
const rleMaxExpansion = 64

// rleDecodeInto expands enc into dst, which it must fill exactly. A first
// pass only measures enc, so a body that does not fill dst exactly fails
// with dst as it was; it writes nothing past dst and allocates nothing,
// whatever enc claims.
func rleDecodeInto(dst, enc []byte) error {
	n, i := 0, 0
	for i < len(enc) {
		c := enc[i]
		i++
		if c <= 0x7F {
			if i >= len(enc) {
				return proto.ErrTruncated
			}
			i++
			n += int(c) + 1
		} else {
			k := int(c) - 0x7F
			if i+k > len(enc) {
				return proto.ErrTruncated
			}
			n += k
			i += k
		}
	}
	if n != len(dst) {
		return fmt.Errorf("%w: RLE decoded %d bytes, want %d", proto.ErrBadMessage, n, len(dst))
	}
	for i, n = 0, 0; i < len(enc); {
		c := enc[i]
		if c <= 0x7F {
			run := dst[n : n+int(c)+1]
			for j := range run {
				run[j] = enc[i+1]
			}
			n += len(run)
			i += 2
		} else {
			k := int(c) - 0x7F
			n += copy(dst[n:], enc[i+1:i+1+k])
			i += 1 + k
		}
	}
	return nil
}
