package vnc

import (
	"bytes"
	"testing"
	"testing/quick"

	"thinbench/internal/display"
	"thinbench/internal/proto"
	"thinbench/internal/simclock"
)

func pair() (*Server, *Client) {
	return NewServer(DefaultConfig()), NewClient(DefaultConfig())
}

// encode encodes the whole tape into a fresh scratch, so the messages are
// the caller's to keep.
func encode(srv *Server, t *display.OpTape) []proto.Message {
	return srv.Update(t, 0, t.Len(), &proto.Scratch{})
}

func TestDamageRectCoversBatch(t *testing.T) {
	srv, cli := pair()
	var ops display.OpTape
	ops.Fill(display.Rect{X: 10, Y: 10, W: 50, H: 40}, 5)
	ops.Fill(display.Rect{X: 200, Y: 300, W: 20, H: 20}, 9)
	msgs := encode(srv, &ops)
	if len(msgs) != 1 {
		t.Fatalf("VNC should ship one FramebufferUpdate per flush, got %d", len(msgs))
	}
	for _, m := range msgs {
		if err := cli.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	if !cli.Framebuffer().Equal(srv.Framebuffer()) {
		t.Fatal("client diverged from server framebuffer")
	}
}

func TestRREWinsOnFlatContent(t *testing.T) {
	srv, _ := pair()
	// A mostly-flat region: RRE should beat Raw decisively.
	var ops display.OpTape
	ops.Fill(display.Rect{X: 0, Y: 0, W: 200, H: 100}, 3)
	msgs := encode(srv, &ops)
	if got := msgs[0].Size(); got > 200 {
		t.Fatalf("flat 200x100 fill encoded as %d bytes; RRE not engaging", got)
	}
}

func TestRawWinsOnPhotoContent(t *testing.T) {
	srv, cli := pair()
	img := display.SyntheticPhoto(1, 0, 80, 60)
	var ops display.OpTape
	ops.Blit(5, 5, img)
	msgs := encode(srv, &ops)
	// Raw: 16 header + 4800 pixels.
	if got := msgs[0].Size(); got < img.Bytes() {
		t.Fatalf("photo content encoded as %d bytes < raw %d; RRE misfired", got, img.Bytes())
	}
	for _, m := range msgs {
		if err := cli.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	if !cli.Framebuffer().Equal(srv.Framebuffer()) {
		t.Fatal("photo round trip diverged")
	}
}

func TestStatelessnessAcrossRepeats(t *testing.T) {
	srv, _ := pair()
	img := display.SyntheticPhoto(2, 0, 64, 64)
	var ops display.OpTape
	ops.Blit(0, 0, img)
	first := encode(srv, &ops)[0].Size()
	second := encode(srv, &ops)[0].Size()
	if second != first {
		t.Fatalf("VNC has no cache: repeat cost %d, first cost %d — must be equal", second, first)
	}
}

func TestPointerDeduplication(t *testing.T) {
	srv, cli := pair()
	events := []display.InputEvent{
		display.MouseMove{X: 10, Y: 10},
		display.MouseMove{X: 10, Y: 10}, // duplicate position
		display.MouseMove{X: 11, Y: 10},
	}
	var got []display.InputEvent
	for _, m := range cli.EncodeInput(events, &proto.Scratch{}) {
		evs, err := srv.DecodeInput(m)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, evs...)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d events, want 2 (duplicate position dropped)", len(got))
	}
}

func TestSetupBytesSmall(t *testing.T) {
	srv, _ := pair()
	if n := srv.SetupBytes(); n < 40 || n > 200 {
		t.Fatalf("RFB setup = %d bytes, expected a tiny handshake", n)
	}
}

func TestEmptyUpdateShipsNothing(t *testing.T) {
	srv, _ := pair()
	if msgs := encode(srv, &display.OpTape{}); msgs != nil {
		t.Fatal("empty op batch produced messages")
	}
}

// Property: server and client framebuffers stay identical across random op
// batches.
func TestConvergenceProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		srv, cli := pair()
		state := seed
		next := func(mod int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int((state >> 33) % uint64(mod))
		}
		for i := 0; i < int(n)%8+1; i++ {
			var ops display.OpTape
			for j := 0; j < next(3)+1; j++ {
				switch next(3) {
				case 0:
					ops.Fill(display.Rect{X: next(700), Y: next(500), W: next(80) + 1, H: next(60) + 1}, byte(next(256)))
				case 1:
					ops.Blit(next(700), next(500), display.SyntheticFrame(uint64(next(99)), j, next(40)+2, next(30)+2))
				default:
					ops.Text(next(700), next(500), "vnc", byte(next(256)))
				}
			}
			for _, m := range encode(srv, &ops) {
				if err := cli.Apply(m); err != nil {
					return false
				}
			}
			if !cli.Framebuffer().Equal(srv.Framebuffer()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// perPixelEncodeRect is encodeRect as it stood before tryRRE read rows,
// kept as its oracle: the RRE analysis reads the framebuffer one pixel at
// a time, counts colors in a fresh histogram and takes the first of the
// most frequent, the lowest color among those tied.
func perPixelEncodeRect(w *proto.Writer, fb *display.Framebuffer, d display.Rect, maxSubs int) {
	at := func(x, y int) byte {
		if row := fb.Row(y); row != nil && x >= 0 && x < fb.W {
			return row[x]
		}
		return 0
	}
	w.I16(int16(d.X)).I16(int16(d.Y))
	w.U16(uint16(d.W)).U16(uint16(d.H))
	rre, ok := func() ([]byte, bool) {
		var hist [256]int
		for y := d.Y; y < d.Y+d.H; y++ {
			for x := d.X; x < d.X+d.W; x++ {
				hist[at(x, y)]++
			}
		}
		bg, best := byte(0), -1
		for c, n := range hist {
			if n > best {
				bg, best = byte(c), n
			}
		}
		var subs []rreSub
		for y := d.Y; y < d.Y+d.H; y++ {
			x := d.X
			for x < d.X+d.W {
				c := at(x, y)
				if c == bg {
					x++
					continue
				}
				run := 1
				for x+run < d.X+d.W && at(x+run, y) == c {
					run++
				}
				subs = append(subs, rreSub{x - d.X, y - d.Y, run, c})
				if len(subs) > maxSubs {
					return nil, false
				}
				x += run
			}
		}
		body := proto.NewWriter(0)
		body.U32(uint32(len(subs)))
		body.U8(bg)
		for _, r := range subs {
			body.U8(r.color)
			body.U16(uint16(r.x)).U16(uint16(r.y))
			body.U16(uint16(r.w)).U16(1)
		}
		return body.Bytes(), true
	}()
	if ok && len(rre) < d.W*d.H {
		w.U32(encRRE)
		w.U32(uint32(len(rre)))
		w.Raw(rre)
		return
	}
	w.U32(encRaw)
	for y := d.Y; y < d.Y+d.H; y++ {
		for x := d.X; x < d.X+d.W; x++ {
			w.U8(at(x, y))
		}
	}
}

// TestEncodeRectMatchesPerPixelOracle: on random screens of bands 64, 64
// and 22 rows high, drawn in a few colors with the last band left
// unstored, encodeRect writes exactly the oracle's bytes for every
// on-screen rectangle — ties for the dominant color, rectangles over
// unstored rows, and analyses cut off at the subrectangle bound included —
// and leaves the server's histogram all zero.
func TestEncodeRectMatchesPerPixelOracle(t *testing.T) {
	const w, h = 100, 150
	check := func(srv *Server, d display.Rect) {
		t.Helper()
		got, want := proto.NewWriter(0), proto.NewWriter(0)
		srv.encodeRect(got, d)
		perPixelEncodeRect(want, srv.fb, d, srv.cfg.MaxRRESubrects)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("rect %+v: encodeRect wrote % x, oracle % x", d, got.Bytes(), want.Bytes())
		}
		if srv.hist != [256]int32{} {
			t.Fatalf("rect %+v: tryRRE left a count in its histogram", d)
		}
	}
	cfg := Config{ScreenW: w, ScreenH: h, MaxRRESubrects: 64}

	// Pinned ties, each won by the lower color counted second: a row half
	// 9 and half 4, and a row of 5 over an unstored row's zeros.
	tie := NewServer(cfg)
	var ties display.OpTape
	ties.Fill(display.Rect{X: 0, Y: 60, W: w / 2, H: 1}, 9)
	ties.Fill(display.Rect{X: w / 2, Y: 60, W: w / 2, H: 1}, 4)
	ties.Fill(display.Rect{X: 0, Y: 127, W: w, H: 1}, 5)
	tie.Update(&ties, 0, ties.Len(), &proto.Scratch{})
	check(tie, display.Rect{X: 0, Y: 60, W: w, H: 1})
	check(tie, display.Rect{X: 0, Y: 127, W: w, H: 2})

	r := simclock.NewRand(17)
	for round := 0; round < 300; round++ {
		cfg.MaxRRESubrects = 1 + r.Intn(64)
		srv := NewServer(cfg)
		palette := []byte{0, byte(1 + r.Intn(255)), byte(1 + r.Intn(255)), byte(1 + r.Intn(255))}
		var ops display.OpTape
		for i := r.Intn(30); i > 0; i-- {
			fill := display.Rect{X: r.Intn(w+20) - 10, Y: r.Intn(128+10) - 10, W: 1 + r.Intn(40), H: 1 + r.Intn(20)}
			fill.H = min(fill.H, 128-fill.Y) // rows 128-149 stay unstored
			ops.Fill(fill, palette[r.Intn(len(palette))])
		}
		srv.Update(&ops, 0, ops.Len(), &proto.Scratch{})
		for k := 0; k < 20; k++ {
			d := display.Rect{X: r.Intn(w), Y: r.Intn(h)}
			d.W, d.H = 1+r.Intn(w-d.X), 1+r.Intn(min(h-d.Y, 40))
			if k%4 == 0 {
				// Small rectangles tie for the dominant color often.
				d.W, d.H = 1+r.Intn(min(4, w-d.X)), 1+r.Intn(min(2, h-d.Y))
			}
			check(srv, d)
		}
	}
}
