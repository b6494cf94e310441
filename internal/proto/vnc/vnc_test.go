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
	return NewServer(), NewClient()
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

// TestEncodeRectMatchesPerPixelOracle: on random screens drawn in a few
// colors, encodeRect writes exactly the oracle's bytes for every
// on-screen rectangle and leaves the server's histogram all zero. Pinned
// cases tie for the dominant color and sit on both sides of the
// MaxRRESubrects cutoff. The test requires of the random rectangles that
// some stay within the bound and some pass it, and that some reach the
// screen's right edge, its bottom edge and unstored rows of the partial
// last band, rows 576-599.
func TestEncodeRectMatchesPerPixelOracle(t *testing.T) {
	const w, h = display.TypicalScreenW, display.TypicalScreenH
	const lastBand = h / 64 * 64 // the partial last band's first row
	// check reports whether the RRE analysis stayed within the bound.
	check := func(srv *Server, d display.Rect) (within bool) {
		t.Helper()
		got, want := proto.NewWriter(0), proto.NewWriter(0)
		srv.encodeRect(got, d)
		perPixelEncodeRect(want, srv.fb, d, MaxRRESubrects)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("rect %+v: encodeRect wrote % x, oracle % x", d, got.Bytes(), want.Bytes())
		}
		if srv.hist != [256]int32{} {
			t.Fatalf("rect %+v: tryRRE left a count in its histogram", d)
		}
		_, within = srv.tryRRE(d)
		return within
	}

	// Pinned ties, each won by the lower color counted second: a row half
	// 9 and half 4, and a row of 5 over an unstored row's zeros.
	tie := NewServer()
	var ties display.OpTape
	ties.Fill(display.Rect{X: 0, Y: 60, W: w / 2, H: 1}, 9)
	ties.Fill(display.Rect{X: w / 2, Y: 60, W: w / 2, H: 1}, 4)
	ties.Fill(display.Rect{X: 0, Y: lastBand - 1, W: w, H: 1}, 5)
	tie.Update(&ties, 0, ties.Len(), &proto.Scratch{})
	check(tie, display.Rect{X: 0, Y: 60, W: w, H: 1})
	check(tie, display.Rect{X: 0, Y: lastBand - 1, W: w, H: 2})

	// Pinned cutoff: a row of one-pixel runs ten pixels apart encodes RRE
	// over MaxRRESubrects of them and ships Raw over one more.
	cut := NewServer()
	var dots display.OpTape
	for i := 0; i <= MaxRRESubrects; i++ {
		dots.Fill(display.Rect{X: 10 * i, Y: 300, W: 1, H: 1}, 1)
	}
	cut.Update(&dots, 0, dots.Len(), &proto.Scratch{})
	if !check(cut, display.Rect{X: 0, Y: 300, W: 10 * MaxRRESubrects, H: 1}) {
		t.Fatalf("%d runs were cut off", MaxRRESubrects)
	}
	if check(cut, display.Rect{X: 0, Y: 300, W: 10*MaxRRESubrects + 1, H: 1}) {
		t.Fatalf("%d runs were not cut off", MaxRRESubrects+1)
	}

	// Each round draws and encodes inside one 120x100 window, a third of
	// the time on the right edge and a third on the bottom one. Half the
	// rounds leave the partial last band unstored; in the rest, fills may
	// run off the bottom edge, as they may off the right edge in every
	// round.
	var within, cutOff, right, bottom, unstored int
	r := simclock.NewRand(17)
	for round := 0; round < 200; round++ {
		srv := NewServer()
		palette := []byte{0, byte(1 + r.Intn(255)), byte(1 + r.Intn(255)), byte(1 + r.Intn(255))}
		wx, wy := r.Intn(w-120), r.Intn(h-100)
		switch r.Intn(3) {
		case 0:
			wx = w - 120
		case 1:
			wy = h - 100
		}
		floor := h + 10
		if r.Intn(2) == 0 {
			floor = lastBand
		}
		var ops display.OpTape
		for i := r.Intn(30); i > 0; i-- {
			fill := display.Rect{X: wx + r.Intn(130) - 10, Y: wy + r.Intn(110) - 10, W: 1 + r.Intn(40), H: 1 + r.Intn(20)}
			if fill.H = min(fill.H, floor-fill.Y); fill.H > 0 {
				ops.Fill(fill, palette[r.Intn(len(palette))])
			}
		}
		srv.Update(&ops, 0, ops.Len(), &proto.Scratch{})
		for k := 0; k < 20; k++ {
			d := display.Rect{X: wx + r.Intn(120), Y: wy + r.Intn(100)}
			d.W, d.H = 1+r.Intn(min(w-d.X, 120)), 1+r.Intn(min(h-d.Y, 40))
			switch k % 4 {
			case 0:
				// Small rectangles tie for the dominant color often.
				d.W, d.H = 1+r.Intn(min(4, w-d.X)), 1+r.Intn(min(2, h-d.Y))
			case 1:
				d.W = min(w-d.X, 120)
			case 2:
				d.H = min(h-d.Y, 40)
			case 3:
				// Large rectangles pass the subrectangle bound often.
				d.X, d.Y = wx+r.Intn(20), wy+r.Intn(20)
				d.W, d.H = min(w-d.X, 100), min(h-d.Y, 80)
			}
			if check(srv, d) {
				within++
			} else {
				cutOff++
			}
			if d.X+d.W == w {
				right++
			}
			if d.Y+d.H == h {
				bottom++
				if srv.fb.Row(h-1) == nil {
					unstored++
				}
			}
		}
	}
	if within == 0 || cutOff == 0 || right == 0 || bottom == 0 || unstored == 0 {
		t.Fatalf("rectangles: %d within the bound, %d past it, %d on the right edge, %d on the bottom edge, %d over unstored rows; want each above 0",
			within, cutOff, right, bottom, unstored)
	}
}
