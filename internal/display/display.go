// Package display models the graphical substrate shared by every remote
// display protocol in the reproduction: bitmaps, the op tape (OpTape) that
// is the one form of a drawing-operation stream, a software framebuffer
// that actually renders it, input events, and deterministic synthetic
// content generators (animation frames, banner ads, ticker strips) for the
// paper's workloads.
//
// Both the server and the client render into framebuffers, so integration
// tests can assert that a protocol round-trip reproduces the server's
// pixels exactly.
//
// A Framebuffer stores its pixels in fixed bands of 64 rows. A band is
// allocated on the first non-zero write to it, and an unstored band reads
// as zero, so a screen costs memory only for the rows drawn on it, never
// more than W×H bytes. A simulated session's echo caret touches a few rows
// of an 800×600 screen, and a login that draws nothing costs no pixel
// memory at all. Reset clears the stored bands and keeps them, so a pooled
// client reuses them. Every draw goes through the Apply forms or the two
// row writes they share: PaintBits paints one 8-pixel group of a 1-bpp
// row (a glyph row, a two-colour bitmap's run of bits) and PutRow copies
// an 8-bpp row. Both clip to the screen, and every Apply form clips before
// it loops or stages pixels, so a hostile rectangle costs no more than the
// screen does. Nothing reads or writes one pixel at a time.
package display

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"unicode/utf8"
)

// Bitmap is an 8-bit-per-pixel image (the paper's testbed era color depth).
type Bitmap struct {
	W, H int
	Pix  []byte // len W*H, row-major
}

// NewBitmap allocates a zeroed bitmap.
func NewBitmap(w, h int) *Bitmap {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("display: invalid bitmap size %dx%d", w, h))
	}
	return &Bitmap{W: w, H: h, Pix: make([]byte, w*h)}
}

// Bytes reports the raw pixel payload size.
func (b *Bitmap) Bytes() int { return len(b.Pix) }

// Hash returns a content digest used as the bitmap-cache key.
func (b *Bitmap) Hash() uint64 {
	h := fnv.New64a()
	var dims [8]byte
	dims[0], dims[1] = byte(b.W), byte(b.W>>8)
	dims[2], dims[3] = byte(b.H), byte(b.H>>8)
	h.Write(dims[:4])
	h.Write(b.Pix)
	return h.Sum64()
}

// At reads pixel (x, y); out-of-range reads return 0.
func (b *Bitmap) At(x, y int) byte {
	if x < 0 || y < 0 || x >= b.W || y >= b.H {
		return 0
	}
	return b.Pix[y*b.W+x]
}

// Set writes pixel (x, y); out-of-range writes are ignored.
func (b *Bitmap) Set(x, y int, v byte) {
	if x < 0 || y < 0 || x >= b.W || y >= b.H {
		return
	}
	b.Pix[y*b.W+x] = v
}

// Equal reports whether two bitmaps have identical dimensions and pixels.
func (b *Bitmap) Equal(o *Bitmap) bool {
	if b.W != o.W || b.H != o.H {
		return false
	}
	for i := range b.Pix {
		if b.Pix[i] != o.Pix[i] {
			return false
		}
	}
	return true
}

// Clone deep-copies the bitmap.
func (b *Bitmap) Clone() *Bitmap {
	n := NewBitmap(b.W, b.H)
	copy(n.Pix, b.Pix)
	return n
}

// Rect is an axis-aligned rectangle.
type Rect struct {
	X, Y, W, H int
}

// Empty reports whether the rectangle covers no pixels.
func (r Rect) Empty() bool { return r.W <= 0 || r.H <= 0 }

// Union returns the bounding rectangle of r and o.
func (r Rect) Union(o Rect) Rect {
	if r.Empty() {
		return o
	}
	if o.Empty() {
		return r
	}
	x0, y0 := min(r.X, o.X), min(r.Y, o.Y)
	x1 := max(r.X+r.W, o.X+o.W)
	y1 := max(r.Y+r.H, o.Y+o.H)
	return Rect{x0, y0, x1 - x0, y1 - y0}
}

// Glyph cell dimensions for the synthetic fixed-width font.
const (
	GlyphW = 8
	GlyphH = 13
)

// GlyphMask deterministically synthesizes the 1-bit coverage mask for a
// rune: a fixed-width cell whose on-pixels (value 1) derive from the code
// point, standing in for a real font rasterizer. Identical runes always
// produce identical masks, which is what glyph caches exploit; text color
// is applied at draw time, independent of the mask.
func GlyphMask(r rune) *Bitmap {
	b := NewBitmap(GlyphW, GlyphH)
	seed := uint64(r)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	for y := 0; y < GlyphH; y++ {
		rowBits := seed >> (uint(y%8) * 7)
		for x := 0; x < GlyphW; x++ {
			if rowBits>>(uint(x))&1 == 1 {
				b.Set(x, y, 1)
			}
		}
	}
	return b
}

// bandRows is the height of one framebuffer storage band.
const bandRows = 64

// Framebuffer is a renderable screen whose pixels are stored in bands of
// bandRows rows (see the package doc).
type Framebuffer struct {
	W, H int
	// bands[i] holds rows [i*bandRows, min((i+1)*bandRows, H)) row-major,
	// or is nil while no non-zero pixel has been written to them.
	bands [][]byte
	ops   int64
	// copyBuf is the reusable staging buffer for overlapping copies, so a
	// steady-state scroll renders without allocating.
	copyBuf []byte
}

// NewFramebuffer allocates a screen of the given size. It stores no band:
// pixel memory comes with the first non-zero write to each band.
func NewFramebuffer(w, h int) *Framebuffer {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("display: invalid framebuffer size %dx%d", w, h))
	}
	return &Framebuffer{W: w, H: h, bands: make([][]byte, (h+bandRows-1)/bandRows)}
}

// Reset returns the framebuffer to its freshly allocated state — every
// pixel zero, op counter cleared. It clears only the bands
// already stored and keeps them, with the copy-staging buffer, so a
// session pool can recycle a client's screen without reallocating it.
func (fb *Framebuffer) Reset() {
	for _, b := range fb.bands {
		clear(b)
	}
	fb.ops = 0
}

// Row returns row y's W pixels for reading. It returns nil for a row off
// the screen or in an unstored band; a nil row reads as W zeros.
func (fb *Framebuffer) Row(y int) []byte {
	if y < 0 || y >= fb.H {
		return nil
	}
	return fb.row(y, false)
}

// row returns on-screen row y for writing. An unstored band is stored
// first when store is set; otherwise row returns nil for it.
func (fb *Framebuffer) row(y int, store bool) []byte {
	i := y / bandRows
	b := fb.bands[i]
	if b == nil {
		if !store {
			return nil
		}
		b = fb.storeBand(i)
	}
	off := y % bandRows * fb.W
	return b[off : off+fb.W]
}

// storeBand allocates band i, sized to the rows it covers. It is the only
// place a framebuffer allocates pixel memory.
func (fb *Framebuffer) storeBand(i int) []byte {
	b := make([]byte, min(bandRows, fb.H-i*bandRows)*fb.W)
	fb.bands[i] = b
	return b
}

// PutRow copies the 8-bpp pixels pix into row y from column x: pix[i]
// lands on (x+i, y). Pixels off the screen are dropped, and the row's band
// is stored only when an on-screen pixel is non-zero, so a zero written to
// an unstored band stores nothing.
//
//thinlint:hotpath
func (fb *Framebuffer) PutRow(x, y int, pix []byte) {
	if y < 0 || y >= fb.H || x >= fb.W {
		return
	}
	if x < 0 {
		if -x >= len(pix) {
			return
		}
		pix, x = pix[-x:], 0
	}
	pix = pix[:min(len(pix), fb.W-x)]
	row := fb.row(y, false)
	if row == nil {
		if allZero(pix) {
			return
		}
		row = fb.row(y, true)
	}
	copy(row[x:], pix)
}

// PaintBits paints one 8-pixel group of a 1-bpp row: bit i of bits, least
// significant first, paints (x+i, y) in color, and a clear bit leaves its
// pixel as it was. Pixels off the screen are dropped, and the row's band
// is stored only when an on-screen set bit paints a non-zero color.
//
//thinlint:hotpath
func (fb *Framebuffer) PaintBits(x, y int, bits, color byte) {
	if y < 0 || y >= fb.H || x >= fb.W || x <= -8 {
		return
	}
	if x < 0 {
		bits, x = bits>>uint(-x), 0
	}
	if over := x + 8 - fb.W; over > 0 {
		bits &= 0xFF >> uint(over)
	}
	if bits == 0 {
		return
	}
	row := fb.row(y, color != 0)
	if row == nil {
		return
	}
	for ; bits != 0; x, bits = x+1, bits>>1 {
		if bits&1 != 0 {
			row[x] = color
		}
	}
}

func allZero(p []byte) bool {
	for _, v := range p {
		if v != 0 {
			return false
		}
	}
	return true
}

// Hash returns the digest Bitmap.Hash gives a W×H bitmap holding the same
// pixels, an unstored band hashing as the zeros it reads as.
func (fb *Framebuffer) Hash() uint64 {
	h := fnv.New64a()
	h.Write([]byte{byte(fb.W), byte(fb.W >> 8), byte(fb.H), byte(fb.H >> 8)})
	zero := make([]byte, fb.W)
	for y := 0; y < fb.H; y++ {
		if row := fb.Row(y); row != nil {
			h.Write(row)
		} else {
			h.Write(zero)
		}
	}
	return h.Sum64()
}

// Equal reports whether two framebuffers have identical dimensions and
// pixels. Every pixel is compared: an unstored band equals a stored one
// exactly when all of the stored band's pixels are zero.
func (fb *Framebuffer) Equal(o *Framebuffer) bool {
	if fb.W != o.W || fb.H != o.H {
		return false
	}
	for i, a := range fb.bands {
		b := o.bands[i]
		if (a == nil || b == nil) && allZero(a) && allZero(b) {
			continue
		}
		if !bytes.Equal(a, b) {
			return false
		}
	}
	return true
}

// clip intersects r with the screen. The result is Empty when r lies
// entirely off it.
func (fb *Framebuffer) clip(r Rect) Rect {
	x0, y0 := max(r.X, 0), max(r.Y, 0)
	x1, y1 := min(r.X+r.W, fb.W), min(r.Y+r.H, fb.H)
	return Rect{x0, y0, x1 - x0, y1 - y0}
}

// Ops reports how many operations have been applied.
func (fb *Framebuffer) Ops() int64 { return fb.ops }

// ApplyFill renders a solid rectangle.
func (fb *Framebuffer) ApplyFill(r Rect, color byte) {
	fb.ops++
	d := fb.clip(r)
	if d.Empty() {
		return
	}
	for y := d.Y; y < d.Y+d.H; y++ {
		if row := fb.row(y, color != 0); row != nil {
			span := row[d.X : d.X+d.W]
			for i := range span {
				span[i] = color
			}
		}
	}
}

// ApplyCopy renders an on-screen copy (scrolling), staging through a
// reusable buffer so overlapping regions behave. Only the on-screen part
// of the destination is staged; source pixels off the screen copy as 0.
func (fb *Framebuffer) ApplyCopy(src Rect, dstX, dstY int) {
	fb.ops++
	d := fb.clip(Rect{dstX, dstY, src.W, src.H})
	if d.Empty() {
		return
	}
	n := d.W * d.H
	if cap(fb.copyBuf) < n {
		fb.copyBuf = make([]byte, n)
	}
	tmp := fb.copyBuf[:n]
	// (sx, sy) is the source pixel that lands on the clipped corner (d.X, d.Y).
	sx, sy := src.X+d.X-dstX, src.Y+d.Y-dstY
	lo, hi := max(sx, 0), min(sx+d.W, fb.W)
	for y := 0; y < d.H; y++ {
		line := tmp[y*d.W : (y+1)*d.W]
		clear(line)
		if row := fb.Row(sy + y); row != nil && lo < hi {
			copy(line[lo-sx:], row[lo:hi])
		}
	}
	for y := 0; y < d.H; y++ {
		fb.PutRow(d.X, d.Y+y, tmp[y*d.W:(y+1)*d.W])
	}
}

// ApplyBlit renders bitmap pixels at (x, y), one PutRow per on-screen row.
func (fb *Framebuffer) ApplyBlit(x, y int, img *Bitmap) {
	fb.ops++
	for yy := max(y, 0); yy < min(y+img.H, fb.H); yy++ {
		off := (yy - y) * img.W
		fb.PutRow(x, yy, img.Pix[off:off+img.W])
	}
}

// ApplyText renders UTF-8 text bytes with the cell font, painting each
// glyph row from GlyphRowBits so no mask bitmap is allocated, and stopping
// at the screen's right edge.
func (fb *Framebuffer) ApplyText(x, y int, text []byte, color byte) {
	fb.ops++
	if y >= fb.H || y+GlyphH <= 0 {
		return
	}
	y0, y1 := max(y, 0), min(y+GlyphH, fb.H)
	if color == 0 && fb.bands[y0/bandRows] == nil && fb.bands[(y1-1)/bandRows] == nil {
		return // color 0 on rows no band stores paints nothing
	}
	for off, cx := 0, x; off < len(text) && cx < fb.W; cx += GlyphW {
		r, size := utf8.DecodeRune(text[off:])
		off += size
		for yy := y0; yy < y1; yy++ {
			fb.PaintBits(cx, yy, GlyphRowBits(r, yy-y), color)
		}
	}
}

// ApplyTape renders tape entries [from, to), each through its Apply form.
func (fb *Framebuffer) ApplyTape(t *OpTape, from, to int) {
	for i := from; i < to; i++ {
		switch t.Kind(i) {
		case KindFill:
			r, c := t.FillAt(i)
			fb.ApplyFill(r, c)
		case KindCopy:
			src, dx, dy := t.CopyAt(i)
			fb.ApplyCopy(src, dx, dy)
		case KindText:
			x, y, s, c := t.TextAt(i)
			fb.ApplyText(x, y, s, c)
		case KindBlit:
			x, y, img := t.BlitAt(i)
			fb.ApplyBlit(x, y, img)
		}
	}
}

// InputEvent is an input-channel event.
type InputEvent interface {
	inputName() string
}

// KeyEvent is a key press or release.
type KeyEvent struct {
	Down bool
	Code uint16
}

func (KeyEvent) inputName() string { return "Key" }

// MouseMove reports pointer motion.
type MouseMove struct {
	X, Y int
}

func (MouseMove) inputName() string { return "MouseMove" }

// MouseButton is a button press or release.
type MouseButton struct {
	Down   bool
	Button uint8
}

func (MouseButton) inputName() string { return "MouseButton" }
