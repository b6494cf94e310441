package display

import (
	"testing"
	"testing/quick"

	"thinbench/internal/simclock"
)

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(4, 3)
	if b.Bytes() != 12 {
		t.Fatalf("Bytes = %d, want 12", b.Bytes())
	}
	b.Set(1, 2, 9)
	if b.At(1, 2) != 9 {
		t.Fatal("Set/At round trip failed")
	}
	// Out-of-range accesses are safe.
	b.Set(99, 99, 1)
	if b.At(-1, 0) != 0 || b.At(99, 99) != 0 {
		t.Fatal("out-of-range At should return 0")
	}
}

func TestBitmapHashDistinguishesContent(t *testing.T) {
	a := NewBitmap(8, 8)
	b := NewBitmap(8, 8)
	if a.Hash() != b.Hash() {
		t.Fatal("identical bitmaps hash differently")
	}
	b.Set(3, 3, 1)
	if a.Hash() == b.Hash() {
		t.Fatal("different bitmaps hash identically")
	}
	// Same pixels, different shape must differ.
	c := NewBitmap(4, 16)
	if a.Hash() == c.Hash() {
		t.Fatal("shape not part of hash")
	}
}

func TestBitmapEqualAndClone(t *testing.T) {
	a := SyntheticFrame(1, 0, 16, 16)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Set(0, 0, b.At(0, 0)+1)
	if a.Equal(b) {
		t.Fatal("mutated clone still equal")
	}
	if a.Equal(NewBitmap(16, 15)) {
		t.Fatal("different dims equal")
	}
}

func TestNewBitmapPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBitmap(0,5) did not panic")
		}
	}()
	NewBitmap(0, 5)
}

func TestRectUnion(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 10, 10}
	u := a.Union(b)
	if u != (Rect{0, 0, 15, 15}) {
		t.Fatalf("union = %+v", u)
	}
	if got := (Rect{}).Union(a); got != a {
		t.Fatal("union with empty should return other")
	}
	if got := a.Union(Rect{}); got != a {
		t.Fatal("union with empty should return other")
	}
	if !(Rect{1, 1, 0, 5}).Empty() {
		t.Fatal("zero-width rect should be empty")
	}
}

func TestFillRect(t *testing.T) {
	fb := NewFramebuffer(10, 10)
	fb.ApplyFill(Rect{2, 2, 3, 3}, 7)
	if pixel(fb, 2, 2) != 7 || pixel(fb, 4, 4) != 7 {
		t.Fatal("fill missed interior")
	}
	if pixel(fb, 5, 5) != 0 || pixel(fb, 1, 1) != 0 {
		t.Fatal("fill leaked outside")
	}
}

func TestCopyAreaOverlapping(t *testing.T) {
	fb := NewFramebuffer(10, 1)
	for x := 0; x < 10; x++ {
		setPixel(fb, x, 0, byte(x))
	}
	// Shift left by 2 with overlapping ranges (marquee scroll).
	fb.ApplyCopy(Rect{2, 0, 8, 1}, 0, 0)
	for x := 0; x < 8; x++ {
		if pixel(fb, x, 0) != byte(x+2) {
			t.Fatalf("pixel %d = %d, want %d", x, pixel(fb, x, 0), x+2)
		}
	}
}

func TestPutBitmap(t *testing.T) {
	fb := NewFramebuffer(20, 20)
	img := SyntheticFrame(5, 0, 8, 8)
	fb.ApplyBlit(4, 4, img)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if pixel(fb, 4+x, 4+y) != img.At(x, y) {
				t.Fatalf("blit mismatch at %d,%d", x, y)
			}
		}
	}
}

func TestDrawTextDeterministic(t *testing.T) {
	fb1 := NewFramebuffer(100, 20)
	fb2 := NewFramebuffer(100, 20)
	fb1.ApplyText(0, 0, []byte("hello"), 3)
	fb2.ApplyText(0, 0, []byte("hello"), 3)
	if !fb1.Equal(fb2) {
		t.Fatal("identical text rendered differently")
	}
	fb3 := NewFramebuffer(100, 20)
	fb3.ApplyText(0, 0, []byte("world"), 3)
	if fb1.Equal(fb3) {
		t.Fatal("different text rendered identically")
	}
}

func TestGlyphBitmapStable(t *testing.T) {
	a := GlyphMask('A')
	b := GlyphMask('A')
	if !a.Equal(b) {
		t.Fatal("glyph not deterministic")
	}
	c := GlyphMask('B')
	if a.Equal(c) {
		t.Fatal("distinct runes produced identical glyphs")
	}
	if a.W != GlyphW || a.H != GlyphH {
		t.Fatal("glyph cell size wrong")
	}
}

func TestFramebufferOpsCount(t *testing.T) {
	fb := NewFramebuffer(10, 10)
	fb.ApplyFill(Rect{0, 0, 2, 2}, 1)
	fb.ApplyFill(Rect{8, 8, 2, 2}, 1)
	if fb.Ops() != 2 {
		t.Fatalf("Ops = %d, want 2", fb.Ops())
	}
}

func TestSyntheticFrameProperties(t *testing.T) {
	// Same (seed, i) => identical; different i => different.
	a := SyntheticFrame(42, 3, 64, 48)
	b := SyntheticFrame(42, 3, 64, 48)
	c := SyntheticFrame(42, 4, 64, 48)
	if !a.Equal(b) {
		t.Fatal("synthetic frame not deterministic")
	}
	if a.Equal(c) {
		t.Fatal("distinct frames identical")
	}
	if a.Hash() == c.Hash() {
		t.Fatal("distinct frames hash-collide")
	}
}

func TestBannerAndMarqueeDimensions(t *testing.T) {
	bf := BannerFrame(0)
	if bf.W != 468 || bf.H != 60 {
		t.Fatalf("banner = %dx%d, want 468x60 (the paper's ad size)", bf.W, bf.H)
	}
	mf := MarqueeFrame(5, 10)
	if mf.W != MarqueeW || mf.H != MarqueeH {
		t.Fatal("marquee dimensions wrong")
	}
	// Looping: position i and i+period are identical.
	if !MarqueeFrame(3, 10).Equal(MarqueeFrame(13, 10)) {
		t.Fatal("marquee does not loop with its period")
	}
}

// Property: ApplyBlit followed by readback returns the same pixels for any
// in-range placement.
func TestBlitRoundTripProperty(t *testing.T) {
	f := func(seed uint64, px, py uint8) bool {
		fb := NewFramebuffer(64, 64)
		img := SyntheticFrame(seed, 0, 16, 16)
		x, y := int(px)%48, int(py)%48
		fb.ApplyBlit(x, y, img)
		for yy := 0; yy < 16; yy++ {
			for xx := 0; xx < 16; xx++ {
				if pixel(fb, x+xx, y+yy) != img.At(xx, yy) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInputEventNames(t *testing.T) {
	// The interface methods exist to seal the type set; exercise them.
	events := []InputEvent{KeyEvent{Down: true, Code: 30}, MouseMove{X: 1, Y: 2}, MouseButton{Down: true, Button: 1}}
	names := map[string]bool{}
	for _, e := range events {
		names[e.inputName()] = true
	}
	if len(names) != 3 {
		t.Fatalf("input event names = %v", names)
	}
}

// storedBands counts the bands a framebuffer holds memory for.
func storedBands(fb *Framebuffer) int {
	n := 0
	for _, b := range fb.bands {
		if b != nil {
			n++
		}
	}
	return n
}

var sinkFB *Framebuffer

// TestFramebufferStorageFollowsDrawing pins the storage contract a login's
// cost rests on: a fresh screen stores no pixels, drawing stores only the
// bands it writes non-zero pixels to, Reset keeps them without allocating,
// and an unstored band compares as the zeros it reads as.
func TestFramebufferStorageFollowsDrawing(t *testing.T) {
	const w, h = TypicalScreenW, TypicalScreenH
	fb := NewFramebuffer(w, h)
	if n := storedBands(fb); n != 0 {
		t.Fatalf("fresh framebuffer stores %d bands", n)
	}

	// One glyph on rows 80-92 lies inside band 1.
	glyph := []byte("a")
	fb.ApplyText(56, 80, glyph, 7)
	if n := storedBands(fb); n != 1 || len(fb.bands[1]) != bandRows*w {
		t.Fatalf("one glyph stores %d bands (band 1 holds %d bytes), want band 1 alone", n, len(fb.bands[1]))
	}
	if a := testing.AllocsPerRun(20, func() {
		sinkFB = NewFramebuffer(w, h)
		sinkFB.ApplyText(56, 80, glyph, 7)
	}); a > 3 {
		t.Fatalf("a fresh framebuffer drawing one glyph costs %v allocations, want at most 3", a)
	}

	if a := testing.AllocsPerRun(20, fb.Reset); a != 0 {
		t.Fatalf("Reset costs %v allocations", a)
	}
	if !fb.Equal(NewFramebuffer(w, h)) || fb.Ops() != 0 {
		t.Fatal("a reset framebuffer differs from a fresh one")
	}
	if storedBands(fb) != 1 {
		t.Fatal("Reset dropped a stored band instead of clearing it")
	}

	// Zeros written to unstored bands, by every draw form, store nothing.
	fb.PaintBits(3, 599, 0xFF, 0)
	fb.PutRow(-4, 598, make([]byte, 20))
	fb.ApplyFill(Rect{0, 300, w, 100}, 0)
	fb.ApplyText(0, 500, []byte("zero"), 0)
	fb.ApplyBlit(10, 200, NewBitmap(30, 30))
	fb.ApplyCopy(Rect{0, 300, 100, 100}, 0, 400)
	if n := storedBands(fb); n != 1 {
		t.Fatalf("writing zeros stored %d bands, want the 1 already stored", n)
	}

	// A one-pixel difference in an unstored band is a difference. Band 9
	// covers only the screen's last 24 rows, so storage stays within W×H.
	other := NewFramebuffer(w, h)
	setPixel(other, w-1, h-1, 1)
	if fb.Equal(other) || other.Equal(fb) {
		t.Fatal("framebuffers differing in one pixel of an unstored band compare equal")
	}
	if got := len(other.bands[9]); got != (h-9*bandRows)*w {
		t.Fatalf("the last band stores %d bytes, want %d", got, (h-9*bandRows)*w)
	}
	other.ApplyFill(Rect{-5, -5, w + 10, h + 10}, 2)
	total := 0
	for _, b := range other.bands {
		total += len(b)
	}
	if total != w*h {
		t.Fatalf("a fully drawn screen stores %d bytes, want %d", total, w*h)
	}
}

// denseRender is the renderer the bands replaced, kept as the oracle: one
// W×H bitmap, per-pixel loops over each tape entry's whole rectangle,
// Bitmap.Set dropping off-screen writes and Bitmap.At reading off-screen
// pixels as 0, and text drawn by ranging over a string with GlyphMask
// rather than decoding bytes with GlyphRowBits.
func denseRender(w, h int, t *OpTape) *Bitmap {
	b := NewBitmap(w, h)
	for i := 0; i < t.Len(); i++ {
		switch t.Kind(i) {
		case KindFill:
			r, c := t.FillAt(i)
			for y := r.Y; y < r.Y+r.H; y++ {
				for x := r.X; x < r.X+r.W; x++ {
					b.Set(x, y, c)
				}
			}
		case KindCopy:
			src, dx, dy := t.CopyAt(i)
			old := b.Clone()
			for y := 0; y < src.H; y++ {
				for x := 0; x < src.W; x++ {
					b.Set(dx+x, dy+y, old.At(src.X+x, src.Y+y))
				}
			}
		case KindBlit:
			px, py, img := t.BlitAt(i)
			for y := 0; y < img.H; y++ {
				for x := 0; x < img.W; x++ {
					b.Set(px+x, py+y, img.At(x, y))
				}
			}
		case KindText:
			tx, ty, text, c := t.TextAt(i)
			cx := tx
			for _, r := range string(text) {
				m := GlyphMask(r)
				for y := 0; y < GlyphH; y++ {
					for x := 0; x < GlyphW; x++ {
						if m.At(x, y) == 1 {
							b.Set(cx+x, ty+y, c)
						}
					}
				}
				cx += GlyphW
			}
		}
	}
	return b
}

// randomScreenTape draws a tape of n entries whose geometry hangs off
// every edge of a w×h screen, with zero colors and all-zero bitmap rows
// common enough that band storage is exercised both ways.
func randomScreenTape(r *simclock.Rand, w, h, n int) *OpTape {
	coord := func(span int) int { return r.Intn(span+80) - 40 }
	color := func() byte {
		if r.Intn(3) == 0 {
			return 0
		}
		return byte(1 + r.Intn(255))
	}
	rect := func() Rect { return Rect{coord(w), coord(h), r.Intn(120), r.Intn(90)} }
	runes := []rune("ab9 éλ→")
	t := new(OpTape)
	for i := 0; i < n; i++ {
		switch r.Intn(4) {
		case 0:
			t.Fill(rect(), color())
		case 1:
			t.Copy(rect(), coord(w), coord(h))
		case 2:
			img := NewBitmap(1+r.Intn(40), 1+r.Intn(30))
			for y := 0; y < img.H; y++ {
				if r.Intn(2) == 0 {
					continue
				}
				for x := 0; x < img.W; x++ {
					img.Set(x, y, color())
				}
			}
			t.Blit(coord(w), coord(h), img)
		default:
			s := make([]rune, 1+r.Intn(6))
			for j := range s {
				s[j] = runes[r.Intn(len(runes))]
			}
			t.Text(coord(w), coord(h), string(s), color())
		}
	}
	return t
}

// TestFramebufferMatchesDenseOracle: over random op tapes on a screen
// whose last band is partial, band storage renders every pixel the dense
// oracle does, hashes as the oracle's bitmap does, and compares unequal
// as soon as one pixel differs.
func TestFramebufferMatchesDenseOracle(t *testing.T) {
	const w, h = 100, 150 // bands of 64, 64 and 22 rows
	r := simclock.NewRand(11)
	for round := 0; round < 200; round++ {
		tape := randomScreenTape(r, w, h, 1+r.Intn(20))
		fb := NewFramebuffer(w, h)
		fb.ApplyTape(tape, 0, tape.Len())
		want := denseRender(w, h, tape)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if got := pixel(fb, x, y); got != want.At(x, y) {
					t.Fatalf("round %d: pixel (%d,%d) = %d, oracle %d", round, x, y, got, want.At(x, y))
				}
			}
		}
		if fb.Hash() != want.Hash() {
			t.Fatalf("round %d: Hash %#x, oracle bitmap's %#x", round, fb.Hash(), want.Hash())
		}
		copied := NewFramebuffer(w, h)
		copied.ApplyBlit(0, 0, want)
		if !fb.Equal(copied) || !copied.Equal(fb) {
			t.Fatalf("round %d: equal screens compare unequal", round)
		}
		x, y := r.Intn(w), r.Intn(h)
		setPixel(copied, x, y, want.At(x, y)+1)
		if fb.Equal(copied) || copied.Equal(fb) {
			t.Fatalf("round %d: screens differing at (%d,%d) compare equal", round, x, y)
		}
	}
}

// TestHostileRectanglesCostOneScreen: each Apply form clips its destination
// to the screen before it loops or stages pixels, so a 65535×65535
// rectangle writes and stages at most W×H pixels, and a source pixel off
// the screen still copies as 0.
func TestHostileRectanglesCostOneScreen(t *testing.T) {
	const w, h = TypicalScreenW, TypicalScreenH
	huge := Rect{-100, -100, 65535, 65535}
	fb := NewFramebuffer(w, h)
	fb.ApplyFill(huge, 9)
	// Destination pixel (x, y) takes source pixel (x-50, y-120).
	fb.ApplyCopy(huge, -50, 20)
	if cap(fb.copyBuf) > w*h {
		t.Fatalf("copy staging holds %d bytes, more than one %dx%d screen", cap(fb.copyBuf), w, h)
	}
	if pixel(fb, 0, 0) != 9 || pixel(fb, 10, 50) != 0 || pixel(fb, w-1, h-1) != 9 {
		t.Fatalf("pixels %d %d %d after fill and copy, want 9 0 9", pixel(fb, 0, 0), pixel(fb, 10, 50), pixel(fb, w-1, h-1))
	}
}
