package workload

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"thinbench/internal/display"
	"thinbench/internal/proto/protos"
	"thinbench/internal/simclock"
	"thinbench/internal/trace"
)

func TestTraceTimeOrdering(t *testing.T) {
	for _, tr := range []Trace{
		OfficeTrace(DefaultOfficeConfig()),
		WebPageTrace(DefaultWebPageConfig()),
		AnimationTrace(AnimationConfig{Frames: 10, FPS: 20, W: 32, H: 32, Span: 3 * simclock.Second}),
	} {
		for i := 1; i < len(tr.Display); i++ {
			if tr.Display[i].At < tr.Display[i-1].At {
				t.Fatalf("%s: display batches out of order at %d", tr.Name, i)
			}
		}
		for i := 1; i < len(tr.Input); i++ {
			if tr.Input[i].At < tr.Input[i-1].At {
				t.Fatalf("%s: input batches out of order at %d", tr.Name, i)
			}
		}
	}
}

func TestTraceDeterminism(t *testing.T) {
	a := OfficeTrace(DefaultOfficeConfig())
	b := OfficeTrace(DefaultOfficeConfig())
	if a.Ops() != b.Ops() || a.Events() != b.Events() || a.Duration() != b.Duration() {
		t.Fatal("office trace not deterministic")
	}
}

func TestTraceMerge(t *testing.T) {
	a := AnimationTrace(AnimationConfig{Frames: 2, FPS: 10, W: 8, H: 8, Span: simclock.Second})
	c := AnimationTrace(AnimationConfig{Frames: 2, FPS: 7, W: 8, H: 8, Span: simclock.Second})
	want := a.Ops() + c.Ops()
	a.Merge(c)
	if a.Ops() != want {
		t.Fatalf("merged ops = %d, want %d", a.Ops(), want)
	}
	for i := 1; i < len(a.Display); i++ {
		if a.Display[i].At < a.Display[i-1].At {
			t.Fatal("merge broke ordering")
		}
	}
}

func TestOfficeTraceComposition(t *testing.T) {
	tr := OfficeTrace(DefaultOfficeConfig())
	if tr.Events() < 5000 {
		t.Fatalf("office trace has only %d input events; motion+typing missing", tr.Events())
	}
	if tr.Ops() < 2000 {
		t.Fatalf("office trace has only %d display ops", tr.Ops())
	}
	// It must contain all op kinds.
	kinds := map[display.OpKind]bool{}
	for _, b := range tr.Display {
		for i := b.From; i < b.To; i++ {
			kinds[b.Tape.Kind(i)] = true
		}
	}
	if len(kinds) != 4 {
		t.Fatalf("op kinds present: %v", kinds)
	}
}

func TestKeystrokeTimes(t *testing.T) {
	times := KeystrokeTimes(simclock.Second)
	if len(times) != 20 {
		t.Fatalf("20Hz for 1s = %d keystrokes, want 20", len(times))
	}
	if times[0] != simclock.Time(50*simclock.Millisecond) {
		t.Fatalf("first keystroke at %v, want 50ms", times[0])
	}
}

// interleaving schedules nUsers' keystroke streams, each shifted by a
// seeded phase, on one shared clock and returns the fired log: (time,
// user, keystroke) in dispatch order.
func interleaving(nUsers int, seed uint64) []string {
	eng := simclock.NewEngine()
	var log []string
	for u := 0; u < nUsers; u++ {
		rng := simclock.NewRand(simclock.DeriveSeed(seed, uint64(u)))
		shift := rng.UniformDuration(0, 50*simclock.Millisecond)
		for k, at := range KeystrokeTimes(2 * simclock.Second) {
			eng.At(at.Add(shift), func(now simclock.Time, u, k int) {
				log = append(log, fmt.Sprintf("%d:u%d#%d", now, u, k))
			}, u, k)
		}
	}
	eng.Drain(1 << 20)
	return log
}

// TestSharedClockInterleavingDeterministic is the contention model's
// foundation: N users' keystrokes on one clock must interleave
// identically for identical seeds — the property that makes a
// shared-server run reproducible at any farm worker count.
func TestSharedClockInterleavingDeterministic(t *testing.T) {
	ref := interleaving(8, 99)
	if len(ref) != 8*40 {
		t.Fatalf("8 users x 40 keystrokes produced %d events", len(ref))
	}
	for run := 0; run < 3; run++ {
		if got := interleaving(8, 99); !reflect.DeepEqual(got, ref) {
			t.Fatalf("run %d interleaved differently", run)
		}
	}
	if other := interleaving(8, 100); reflect.DeepEqual(other, ref) {
		t.Fatal("different seeds produced identical interleavings")
	}
}

func TestAnimationLoopReusesFrames(t *testing.T) {
	tr := AnimationTrace(AnimationConfig{Frames: 4, FPS: 20, W: 16, H: 16, Span: simclock.Second})
	if len(tr.Display) != 20 {
		t.Fatalf("20Hz for 1s = %d frames, want 20", len(tr.Display))
	}
	frame := func(i int) *display.Bitmap {
		b := tr.Display[i]
		if b.Tape.Kind(b.From) != display.KindBlit {
			t.Fatalf("frame %d starts with op kind %d, want a bitmap", i, b.Tape.Kind(b.From))
		}
		_, _, img := b.Tape.BlitAt(b.From)
		return img
	}
	// Frame 0 and frame 4 are the same loop position: identical bitmaps.
	img0, img4 := frame(0), frame(4)
	if !img0.Equal(img4) {
		t.Fatal("loop frames not identical")
	}
	img1 := frame(1)
	if img0.Equal(img1) {
		t.Fatal("consecutive frames identical; animation is static")
	}
}

// TestWebPageComponentsSeparable: the page's elements add up. The
// browser chrome is drawn on every variant, the page with neither element
// included, so the combined page's ops plus the chrome's equal the banner
// page's plus the marquee page's.
func TestWebPageComponentsSeparable(t *testing.T) {
	cfg := DefaultWebPageConfig()
	cfg.Span = 20 * simclock.Second
	both := WebPageTrace(cfg)
	bannerOnly := cfg
	bannerOnly.Marquee = false
	marqueeOnly := cfg
	marqueeOnly.Banner = false
	bt, mt, ct := WebPageTrace(bannerOnly), WebPageTrace(marqueeOnly), WebPageTrace(WebPageConfig{Span: cfg.Span})
	nb, nm, nc := bt.Ops(), mt.Ops(), ct.Ops()
	if nc == 0 || both.Ops()+nc != nb+nm {
		t.Fatalf("combined ops %d + chrome %d != banner %d + marquee %d", both.Ops(), nc, nb, nm)
	}
}

// TestReplayOverAllProtocols replays the office trace over every registry
// codec, each with its registry flush windows, and every client must end
// on the same screen.
func TestReplayOverAllProtocols(t *testing.T) {
	cfg := DefaultOfficeConfig()
	cfg.TypingChars = 120
	cfg.PaintStrokes = 6
	cfg.PanelActions = 3
	tr := OfficeTrace(cfg)
	var first *display.Framebuffer
	for _, name := range protos.Names() {
		srv, cli, opts, err := protos.New(name)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		if err := Replay(tr, srv, cli, rec, opts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rec.Total().Messages == 0 {
			t.Fatalf("%s: recorder saw no traffic", name)
		}
		if first == nil {
			first = cli.Framebuffer()
		} else if !cli.Framebuffer().Equal(first) {
			t.Errorf("%s disagrees with %s on the final framebuffer", name, protos.Names()[0])
		}
	}
}

// uiStrip draws a taskbar every 400 ms on a tape of its own: a fill, a
// clock label and one of three button bitmaps, like a session's chrome.
func uiStrip(span simclock.Duration) Trace {
	tr := Trace{Name: "ui-strip"}
	tape := new(display.OpTape)
	for at := simclock.Time(0); at < simclock.Time(span); at = at.Add(400 * simclock.Millisecond) {
		i, from := len(tr.Display), tape.Len()
		tape.Fill(display.Rect{X: 0, Y: 570, W: 800, H: 30}, byte(1+i%3))
		tape.Text(700, 578, fmt.Sprintf("12:%02d", i), 7)
		tape.Blit(10+i%3*30, 573, display.SyntheticFrame(uint64(i%3), 0, 24, 24))
		tr.Display = append(tr.Display, DisplayBatch{At: at, Tape: tape, From: from, To: tape.Len()})
	}
	return tr
}

// TestReplayMergesTracesOnDifferentTapes: a merged trace keeps each
// source's batches on that source's tape, so a display window spanning
// both copies them onto the merge tape (extendBatch, OpTape.AppendTape),
// re-basing text offsets and bitmap indices. Within a 250 ms window every
// registry codec must keep every op and end on the screen its windowless
// replay ends on.
func TestReplayMergesTracesOnDifferentTapes(t *testing.T) {
	const span = 3 * simclock.Second
	tr := AnimationTrace(AnimationConfig{Seed: 3, Frames: 6, FPS: 10, W: 40, H: 30, X: 100, Y: 80, Span: span})
	anim := tr.Display[0].Tape
	ui := uiStrip(span)
	tr.Merge(ui)
	window := 250 * simclock.Millisecond

	ops, merged := 0, false
	for _, b := range coalesceDisplay(tr.Display, window) {
		ops += b.Len()
		merged = merged || b.Tape != anim && b.Tape != ui.Display[0].Tape
	}
	if ops != tr.Ops() {
		t.Fatalf("coalescing kept %d of %d ops", ops, tr.Ops())
	}
	if !merged {
		t.Fatal("no coalesced batch reached the merge tape")
	}

	for _, name := range protos.Names() {
		final := func(opts protos.Opts) *display.Framebuffer {
			srv, cli, _, err := protos.New(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := Replay(tr, srv, cli, nil, opts); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return cli.Framebuffer()
		}
		if !final(protos.Opts{DisplayCoalesce: window}).Equal(final(protos.Opts{})) {
			t.Errorf("%s: the windowed replay ends on a different screen", name)
		}
	}
}

func TestReplayInputCoalescing(t *testing.T) {
	cfg := DefaultOfficeConfig()
	cfg.TypingChars = 200
	cfg.PaintStrokes = 4
	cfg.PanelActions = 2
	tr := OfficeTrace(cfg)
	count := func(co simclock.Duration) int64 {
		srv, cli, _, err := protos.New("rdp")
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		if err := Replay(tr, srv, cli, rec, protos.Opts{InputCoalesce: co}); err != nil {
			t.Fatal(err)
		}
		return rec.Input().Messages
	}
	fine := count(0)
	coarse := count(200 * simclock.Millisecond)
	if coarse >= fine {
		t.Fatalf("coalescing did not reduce input messages: %d vs %d", coarse, fine)
	}
}

func TestCoalesceInputPreservesEvents(t *testing.T) {
	tr := OfficeTrace(DefaultOfficeConfig())
	total := 0
	for _, b := range coalesceInput(tr.Input, 100*simclock.Millisecond) {
		total += len(b.Events)
	}
	if total != tr.Events() {
		t.Fatalf("coalescing lost events: %d vs %d", total, tr.Events())
	}
	if got := coalesceInput(nil, simclock.Second); got != nil {
		t.Fatal("empty input should stay empty")
	}
}

// TestAnimationPanics: no frame, a frame rate that leaves no whole
// microsecond between frames, or one so slow its period overflows a
// Duration, panics before any frame is drawn.
func TestAnimationPanics(t *testing.T) {
	for _, c := range []struct {
		frames int
		fps    float64
	}{
		{1, 0}, {1, -5}, {0, 20}, {-1, 20},
		{1, 1e6 + 1}, {1, math.Inf(1)}, {1, math.NaN()}, {1, 1e-300},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d frames at %v fps did not panic", c.frames, c.fps)
				}
			}()
			AnimationTrace(AnimationConfig{Frames: c.frames, FPS: c.fps, W: 1, H: 1, Span: simclock.Second})
		}()
	}
}

func TestFigure7FrameSizing(t *testing.T) {
	frameBytes := Figure7FrameW * Figure7FrameH
	if 65*frameBytes > 1536*1024 {
		t.Fatal("65 frames must fit the 1.5MB cache")
	}
	if 70*frameBytes <= 1536*1024 {
		t.Fatal("70 frames must overflow the 1.5MB cache")
	}
}
