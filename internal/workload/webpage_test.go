package workload

import (
	"bytes"
	"fmt"
	"testing"

	"thinbench/internal/display"
	"thinbench/internal/simclock"
)

// webPageTracePerBlit is WebPageTrace as it was before frames were
// shared: every blit builds its bitmap afresh, and the marquee builds its
// looping strip even where a fresh strip replaces it. It is the oracle
// the shared frames must match.
func webPageTracePerBlit(cfg WebPageConfig) Trace {
	t := Trace{Name: "webpage"}
	tape := new(display.OpTape)
	if cfg.Banner {
		period := simclock.Duration(1e6 / bannerFPS)
		for at := simclock.Time(0); at < simclock.Time(cfg.Span); at = at.Add(period) {
			i := int(int64(at)/int64(period)) % bannerFrames
			from := tape.Len()
			tape.Blit(160, 40, display.BannerFrame(i))
			t.Display = append(t.Display, DisplayBatch{At: at, Tape: tape, From: from, To: tape.Len()})
		}
	}
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
		for at := simclock.Time(0); at < simclock.Time(cfg.Span); {
			cycleStart := at
			for p := 0; p < marqueePositions && at < simclock.Time(cfg.Span); p++ {
				strip := display.MarqueeFrame(p, marqueePositions)
				if p < freshStrips {
					strip = display.SyntheticFrame(0xfeed0+uint64(tick/marqueePositions), p, display.MarqueeW, display.MarqueeH)
				}
				from := tape.Len()
				tape.Blit(100, 520, strip)
				t.Display = append(t.Display, DisplayBatch{At: at, Tape: tape, From: from, To: tape.Len()})
				at = at.Add(period)
				tick++
			}
			next := cycleStart.Add(cycle)
			if next > at {
				at = next
			}
		}
	}
	sortTrace(&t)
	return t
}

// sameEntry reports whether entry i of tape a and entry j of tape b draw
// the same thing, bitmap pixels included.
func sameEntry(a *display.OpTape, i int, b *display.OpTape, j int) bool {
	if a.Kind(i) != b.Kind(j) {
		return false
	}
	switch a.Kind(i) {
	case display.KindFill:
		r, c := a.FillAt(i)
		s, d := b.FillAt(j)
		return r == s && c == d
	case display.KindCopy:
		r, x, y := a.CopyAt(i)
		s, u, v := b.CopyAt(j)
		return r == s && x == u && y == v
	case display.KindText:
		x, y, txt, c := a.TextAt(i)
		u, v, tx2, d := b.TextAt(j)
		return x == u && y == v && bytes.Equal(txt, tx2) && c == d
	default:
		x, y, img := a.BlitAt(i)
		u, v, im2 := b.BlitAt(j)
		return x == u && y == v && img.W == im2.W && img.H == im2.H && bytes.Equal(img.Pix, im2.Pix)
	}
}

// TestWebPageSharesFramesByteForByte checks the shared banner frames and
// marquee strips against the per-blit construction: every batch at the
// same instant, drawing the same entries with the same pixels, on the
// default page and on each element alone.
func TestWebPageSharesFramesByteForByte(t *testing.T) {
	def := DefaultWebPageConfig()
	def.Span = 30 * simclock.Second
	bannerOnly, marqueeOnly := def, def
	bannerOnly.Marquee = false
	marqueeOnly.Banner = false
	for name, cfg := range map[string]WebPageConfig{"default": def, "banner": bannerOnly, "marquee": marqueeOnly} {
		got, want := WebPageTrace(cfg), webPageTracePerBlit(cfg)
		if len(got.Display) != len(want.Display) || len(got.Input) != len(want.Input) {
			t.Fatalf("%s: %d display and %d input batches, want %d and %d",
				name, len(got.Display), len(got.Input), len(want.Display), len(want.Input))
		}
		for k, g := range got.Display {
			w := want.Display[k]
			if g.At != w.At || g.Len() != w.Len() {
				t.Fatalf("%s: batch %d at %v with %d entries, want %v with %d", name, k, g.At, g.Len(), w.At, w.Len())
			}
			for e := 0; e < g.Len(); e++ {
				if !sameEntry(g.Tape, g.From+e, w.Tape, w.From+e) {
					t.Fatalf("%s: batch %d entry %d differs from the per-blit construction", name, k, e)
				}
			}
		}
	}
}
