package workload

import (
	"fmt"
	"math"

	"thinbench/internal/display"
	"thinbench/internal/simclock"
)

// AnimationConfig describes a looping animation, the workload family behind
// Figures 5, 6, and 7.
type AnimationConfig struct {
	Seed uint64
	// Frames is the loop length (the paper sweeps 25..100 in Figure 7).
	Frames int
	// FPS is the playback rate (Figure 5 uses a 50 ms delay GIF = 20 Hz).
	FPS float64
	// W, H are the frame dimensions.
	W, H int
	// X, Y place the animation on screen.
	X, Y int
	// Span is how long the animation plays.
	Span simclock.Duration
	// Photo selects photographic (incompressible) frame content, the
	// realistic choice for GIF advertisements.
	Photo bool
	// Block, when positive, overrides content generation with flat blocks
	// of the given size: partially compressible content between the Photo
	// and flat-UI extremes (dithered GIF art).
	Block int
}

// Figure7FrameW/H size the Figure 7 sweep's frames so that 65 frames fit
// the 1.5 MB TSE cache and 70 do not: 160x143 = 22,880 bytes per frame,
// 65 x 22,880 = 1,487,200 <= 1,572,864 < 1,601,600 = 70 x 22,880.
const (
	Figure7FrameW = 160
	Figure7FrameH = 143
)

// AnimationTrace plays the animation: one bitmap blit per frame tick, with
// the frame content cycling over the loop. It panics unless the frame
// count is positive and the frame period, 1e6/FPS µs, is at least 1 µs
// and fits a Duration.
func AnimationTrace(cfg AnimationConfig) Trace {
	us := 1e6 / cfg.FPS
	if cfg.Frames <= 0 || !(us >= 1 && us < math.MaxInt64) {
		panic("workload: animation needs a positive frame count and a frame period from 1 µs to the longest Duration")
	}
	t := Trace{Name: "animation"}
	period := simclock.Duration(us)
	gen := display.SyntheticFrame
	if cfg.Photo {
		gen = display.SyntheticPhoto
	}
	if cfg.Block > 0 {
		block := cfg.Block
		gen = func(seed uint64, i, w, h int) *display.Bitmap {
			return display.SyntheticBlocky(seed, i, w, h, block)
		}
	}
	// Pre-render the loop's frames once; playback reuses them, exactly as a
	// GIF decoder does.
	frames := make([]*display.Bitmap, cfg.Frames)
	for i := range frames {
		frames[i] = gen(cfg.Seed, i, cfg.W, cfg.H)
	}
	tape := new(display.OpTape)
	for at := simclock.Time(0); at < simclock.Time(cfg.Span); at = at.Add(period) {
		i := int(int64(at)/int64(period)) % cfg.Frames
		from := tape.Len()
		tape.Blit(cfg.X, cfg.Y, frames[i])
		t.Display = append(t.Display, DisplayBatch{At: at, Tape: tape, From: from, To: tape.Len()})
	}
	return t
}

// WebPageConfig composes the paper's Figure 4 synthetic web page, modeled
// after msnbc.com: one animated GIF banner advertisement plus an HTML
// scrolling news ticker, over the browser's ambient redraws.
type WebPageConfig struct {
	// Banner toggles the 468x60 advertisement.
	Banner bool
	// Marquee toggles the scrolling ticker.
	Marquee bool
	// Span is the browsing duration.
	Span simclock.Duration
}

// The page's elements. The combined working set (36 banner frames x
// 28,080 B + 100 ticker strips x 14,400 B = 2.4 MB) overflows the 1.5 MB
// client cache so decisively that both elements keep missing — between
// two uses of any banner frame, more than a full cache of distinct
// bitmaps passes through — while either element alone fits comfortably.
// That is the paper's non-linearity.
const (
	// bannerFrames is the ad's loop length and bannerFPS its frame rate.
	bannerFrames = 36
	bannerFPS    = 5
	// marqueePositions is the ticker's cycle length in scroll positions
	// and marqueeHz its scroll rate.
	marqueePositions = 100
	marqueeHz        = 10
	// marqueeDuty is the fraction of each cycle the ticker scrolls
	// (tickers pause between headlines — the source of Figure 4's
	// periodicity).
	marqueeDuty = 0.85
	// freshStrips is how many ticker strips are new content each cycle
	// (headline rotation), defeating the cache even when the loop fits.
	freshStrips = 10
)

// DefaultWebPageConfig reproduces the Figure 4 combined page.
func DefaultWebPageConfig() WebPageConfig {
	return WebPageConfig{
		Banner:  true,
		Marquee: true,
		Span:    160 * simclock.Second,
	}
}

// WebPageTrace generates the page's display traffic.
func WebPageTrace(cfg WebPageConfig) Trace {
	t := Trace{Name: "webpage"}
	tape := new(display.OpTape)
	// The banner loops over its frames and the marquee over its strips,
	// and a frame is a pure function of its index, so each is built once
	// and every later blit of it shares the bitmap.
	if cfg.Banner {
		period := simclock.Duration(1e6 / bannerFPS)
		frames := make([]*display.Bitmap, bannerFrames)
		for at := simclock.Time(0); at < simclock.Time(cfg.Span); at = at.Add(period) {
			i := int(int64(at)/int64(period)) % bannerFrames
			if frames[i] == nil {
				frames[i] = display.BannerFrame(i)
			}
			from := tape.Len()
			tape.Blit(160, 40, frames[i])
			t.Display = append(t.Display, DisplayBatch{At: at, Tape: tape, From: from, To: tape.Len()})
		}
	}
	// Browser chrome: status text and a throbber strip, once a second: a
	// small constant load present however many animations run.
	for at := simclock.Time(500 * simclock.Millisecond); at < simclock.Time(cfg.Span); at = at.Add(simclock.Second) {
		i := int(int64(at) / int64(simclock.Second))
		from := tape.Len()
		tape.Fill(display.Rect{X: 0, Y: 580, W: 800, H: 20}, 7)
		tape.Text(8, 582, fmt.Sprintf("Loading... %d items remaining", i%9), 0)
		tape.Blit(766, 2, display.SyntheticPhoto(0x7b0b, i, 32, 32))
		t.Display = append(t.Display, DisplayBatch{At: at, Tape: tape, From: from, To: tape.Len()})
	}
	if cfg.Marquee {
		period := simclock.Duration(1e6 / marqueeHz)
		cycle := simclock.Duration(float64(marqueePositions) * float64(period) / marqueeDuty)
		tick := 0
		strips := make([]*display.Bitmap, marqueePositions)
		for at := simclock.Time(0); at < simclock.Time(cfg.Span); {
			cycleStart := at
			for p := 0; p < marqueePositions && at < simclock.Time(cfg.Span); p++ {
				// Headline rotation: a few strips per cycle carry fresh
				// content keyed by the cycle number.
				strip := strips[p]
				if p < freshStrips {
					strip = display.SyntheticFrame(0xfeed0+uint64(tick/marqueePositions), p, display.MarqueeW, display.MarqueeH)
				} else if strip == nil {
					strip = display.MarqueeFrame(p, marqueePositions)
					strips[p] = strip
				}
				from := tape.Len()
				tape.Blit(100, 520, strip)
				t.Display = append(t.Display, DisplayBatch{At: at, Tape: tape, From: from, To: tape.Len()})
				at = at.Add(period)
				tick++
			}
			// Pause until the cycle period elapses (the ticker's rest).
			next := cycleStart.Add(cycle)
			if next > at {
				at = next
			}
		}
	}
	sortTrace(&t)
	return t
}

// typingRate is the Figure 3 input source's keystrokes per second: the
// paper holds a key down with the client's repeat rate at 20 Hz.
const typingRate = 20

// KeystrokeTimes lists the arrival time of each repeat keystroke while a
// key is held for span.
func KeystrokeTimes(span simclock.Duration) []simclock.Time {
	period := simclock.Duration(1e6 / typingRate)
	var out []simclock.Time
	for at := simclock.Time(period); at <= simclock.Time(span); at = at.Add(period) {
		out = append(out, at)
	}
	return out
}

// sortTrace orders batches by timestamp after interleaved generation.
func sortTrace(t *Trace) {
	t.Merge(Trace{})
}
