package display

// Synthetic content generators for the paper's animation workloads. All
// output is deterministic in its parameters so protocol comparisons see
// byte-identical streams, and all content is "image-like": regions of flat
// color with structured variation, so stream compressors (LBX) get
// realistic ratios rather than incompressible noise.

// SyntheticFrame generates frame i of an animation: w x h pixels with
// blocky structure derived from (seed, i). Distinct (seed, i) pairs give
// distinct pixels — a looping animation player replays identical frames.
func SyntheticFrame(seed uint64, i, w, h int) *Bitmap {
	return SyntheticBlocky(seed, i, w, h, 12)
}

// SyntheticBlocky generates flat-colored block content with a configurable
// block size. Larger blocks model plain UI surfaces (highly compressible);
// small blocks model busy content such as anti-aliased text strips, which
// run-length coding only partially compresses.
func SyntheticBlocky(seed uint64, i, w, h, block int) *Bitmap {
	if block < 1 {
		block = 1
	}
	b := NewBitmap(w, h)
	state := seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for by := 0; by < h; by += block {
		for bx := 0; bx < w; bx += block {
			color := byte(next())
			for y := by; y < by+block && y < h; y++ {
				base := y * w
				for x := bx; x < bx+block && x < w; x++ {
					b.Pix[base+x] = color
				}
			}
		}
	}
	// A moving accent so consecutive frames differ visibly.
	pos := (i * 7) % w
	for y := 0; y < h; y++ {
		b.Set(pos, y, byte(i))
	}
	return b
}

// SyntheticPhoto generates photographic-entropy content: every pixel is
// independently pseudo-random, so neither run-length coding nor DEFLATE
// gains much. Animated GIF advertisements and photo-editing canvases are
// modeled with this generator; flat UI chrome uses SyntheticFrame.
func SyntheticPhoto(seed uint64, i, w, h int) *Bitmap {
	b := NewBitmap(w, h)
	state := seed ^ (uint64(i)+1)*0xbf58476d1ce4e5b9
	for p := range b.Pix {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		b.Pix[p] = byte(z ^ (z >> 31))
	}
	return b
}

// Banner dimensions from the paper's synthetic web page: a 468x60 pixel
// animated GIF advertisement.
const (
	BannerW = 468
	BannerH = 60
)

// BannerFrame generates frame i of the ad banner. Ad GIFs are
// photographic, so frames are compression-resistant.
func BannerFrame(i int) *Bitmap {
	return SyntheticPhoto(0xadba11, i, BannerW, BannerH)
}

// Marquee dimensions: an HTML scrolling news ticker strip.
const (
	MarqueeW = 600
	MarqueeH = 24
)

// MarqueeFrame generates scroll position i of a ticker that loops over
// positions strips, so the same strips repeat each cycle —
// the property that lets a bitmap cache absorb it when it fits. Strip
// content is fine-grained (anti-aliased text over a gradient), so
// run-length coding compresses it only modestly.
func MarqueeFrame(i, positions int) *Bitmap {
	if positions <= 0 {
		positions = 1
	}
	return SyntheticBlocky(0x7ec4e5, i%positions, MarqueeW, MarqueeH, 3)
}

// TypicalScreenW/H are the testbed's remote desktop dimensions.
const (
	TypicalScreenW = 800
	TypicalScreenH = 600
)
