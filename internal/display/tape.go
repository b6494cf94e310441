package display

import (
	"fmt"
	"unicode/utf8"
)

// OpKind tags one entry of an OpTape.
type OpKind uint8

// Tape entry kinds.
const (
	KindFill OpKind = iota // solid rectangle
	KindCopy               // on-screen copy (scrolling)
	KindText               // text in the cell font
	KindBlit               // bitmap pixels
)

// tapeLanes is the fixed per-entry argument stride. A copy is the widest
// entry (src x/y/w/h + dst x/y); the others leave trailing lanes unused.
const tapeLanes = 6

// OpTape is the display-channel drawing-op stream, the one op form every
// protocol (RDP-like, X-like, LBX, VNC, SLIM) encodes in its own wire
// format. It is pointer-free struct-of-arrays: entry kinds and geometry
// live in flat arrays, text bytes are carved from one shared byte arena,
// and bitmaps are referenced by index into a side table. Appending to a
// warm tape allocates nothing, so the steady-state echo pipeline rebuilds
// its per-interaction op stream without allocating.
//
// Entry argument lanes (all int32):
//
//	KindFill: x, y, w, h, color
//	KindCopy: srcX, srcY, w, h, dstX, dstY
//	KindText: x, y, textOff, textLen, color
//	KindBlit: x, y, imgIdx
//
// Text offsets and bitmap indices are absolute into the tape's arena and
// side table, so any [from, to) window of a tape remains self-describing —
// workload batches reference shared tapes by span.
type OpTape struct {
	kinds []OpKind
	args  []int32
	text  []byte
	imgs  []*Bitmap
}

// Len reports the number of entries on the tape.
func (t *OpTape) Len() int { return len(t.kinds) }

// Reset empties the tape, retaining all backing capacity.
func (t *OpTape) Reset() {
	t.kinds = t.kinds[:0]
	t.args = t.args[:0]
	t.text = t.text[:0]
	for i := range t.imgs {
		t.imgs[i] = nil
	}
	t.imgs = t.imgs[:0]
}

//thinlint:hotpath
func (t *OpTape) push(k OpKind, a0, a1, a2, a3, a4, a5 int32) {
	t.kinds = append(t.kinds, k) //thinlint:allow hotpath.alloc tape growth: amortized to zero once the backing arrays reach their high-water mark
	t.args = append(t.args, a0, a1, a2, a3, a4, a5)
}

// Fill appends a solid-rectangle entry.
func (t *OpTape) Fill(r Rect, color byte) {
	t.push(KindFill, int32(r.X), int32(r.Y), int32(r.W), int32(r.H), int32(color), 0)
}

// Copy appends an on-screen copy entry.
func (t *OpTape) Copy(src Rect, dstX, dstY int) {
	t.push(KindCopy, int32(src.X), int32(src.Y), int32(src.W), int32(src.H), int32(dstX), int32(dstY))
}

// Text appends a text entry, copying the string bytes into the tape arena.
func (t *OpTape) Text(x, y int, s string, color byte) {
	off := len(t.text)
	t.text = append(t.text, s...)
	t.push(KindText, int32(x), int32(y), int32(off), int32(len(s)), int32(color), 0)
}

// TextBytes appends a text entry from raw UTF-8 bytes.
func (t *OpTape) TextBytes(x, y int, s []byte, color byte) {
	off := len(t.text)
	t.text = append(t.text, s...)
	t.push(KindText, int32(x), int32(y), int32(off), int32(len(s)), int32(color), 0)
}

// Blit appends a bitmap entry. The tape retains the *Bitmap pointer in its
// side table; the pixels are not copied.
func (t *OpTape) Blit(x, y int, img *Bitmap) {
	idx := len(t.imgs)
	t.imgs = append(t.imgs, img)
	t.push(KindBlit, int32(x), int32(y), int32(idx), 0, 0, 0)
}

// Kind reports the kind of entry i.
func (t *OpTape) Kind(i int) OpKind { return t.kinds[i] }

// FillAt decodes entry i as a fill.
func (t *OpTape) FillAt(i int) (r Rect, color byte) {
	a := t.args[i*tapeLanes:]
	return Rect{int(a[0]), int(a[1]), int(a[2]), int(a[3])}, byte(a[4])
}

// CopyAt decodes entry i as a copy.
func (t *OpTape) CopyAt(i int) (src Rect, dstX, dstY int) {
	a := t.args[i*tapeLanes:]
	return Rect{int(a[0]), int(a[1]), int(a[2]), int(a[3])}, int(a[4]), int(a[5])
}

// TextAt decodes entry i as text. The returned bytes alias the tape arena
// and stay valid until the next Reset.
func (t *OpTape) TextAt(i int) (x, y int, text []byte, color byte) {
	a := t.args[i*tapeLanes:]
	return int(a[0]), int(a[1]), t.text[a[2] : a[2]+a[3]], byte(a[4])
}

// BlitAt decodes entry i as a bitmap draw.
func (t *OpTape) BlitAt(i int) (x, y int, img *Bitmap) {
	a := t.args[i*tapeLanes:]
	return int(a[0]), int(a[1]), t.imgs[a[2]]
}

// BoundsAt reports the damaged region of entry i. A text entry's width
// counts one cell per UTF-8 byte, not per rune.
func (t *OpTape) BoundsAt(i int) Rect {
	a := t.args[i*tapeLanes:]
	switch t.kinds[i] {
	case KindFill:
		return Rect{int(a[0]), int(a[1]), int(a[2]), int(a[3])}
	case KindCopy:
		return Rect{int(a[4]), int(a[5]), int(a[2]), int(a[3])}
	case KindText:
		return Rect{int(a[0]), int(a[1]), int(a[3]) * GlyphW, GlyphH}
	case KindBlit:
		img := t.imgs[a[2]]
		return Rect{int(a[0]), int(a[1]), img.W, img.H}
	default:
		panic(fmt.Sprintf("display: unknown tape kind %d", t.kinds[i]))
	}
}

// AppendTape appends entries [from, to) of src to t, re-basing text offsets
// and bitmap indices into t's own arena and side table.
func (t *OpTape) AppendTape(src *OpTape, from, to int) {
	for i := from; i < to; i++ {
		switch src.kinds[i] {
		case KindFill:
			r, c := src.FillAt(i)
			t.Fill(r, c)
		case KindCopy:
			r, dx, dy := src.CopyAt(i)
			t.Copy(r, dx, dy)
		case KindText:
			x, y, s, c := src.TextAt(i)
			t.TextBytes(x, y, s, c)
		case KindBlit:
			x, y, img := src.BlitAt(i)
			t.Blit(x, y, img)
		}
	}
}

// GlyphRowBits reports row y of GlyphMask(r) packed LSB-first into one byte
// (the cell is GlyphW = 8 pixels wide): bit x is set exactly when mask pixel
// (x, y) is on. It is the allocation-free form of GlyphMask for encoders and
// rasterizers that walk rows.
func GlyphRowBits(r rune, y int) byte {
	seed := uint64(r)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	return byte(seed >> (uint(y%8) * 7))
}

// CountRunes reports the rune count of UTF-8 text, capped at max when max
// is positive. Decoding matches a range loop over string(text): invalid
// bytes yield one U+FFFD per byte.
func CountRunes(text []byte, max int) int {
	n := 0
	for off := 0; off < len(text); {
		_, size := utf8.DecodeRune(text[off:])
		off += size
		n++
		if n == max {
			break
		}
	}
	return n
}
