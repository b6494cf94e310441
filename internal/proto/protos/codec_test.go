package protos_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	"time"

	"thinbench/internal/display"
	"thinbench/internal/proto"
	"thinbench/internal/proto/protos"
	"thinbench/internal/simclock"
)

// inputMessages splits fuzz bytes into an input-message sequence: each
// message is one header byte (low 7 bits the payload length, high bit
// set for a display-channel message) followed by its payload, truncated
// at the end of the data.
func inputMessages(data []byte) []proto.Message {
	var msgs []proto.Message
	for len(data) > 0 {
		hdr := data[0]
		data = data[1:]
		n := min(int(hdr&0x7F), len(data))
		ch := proto.Input
		if hdr&0x80 != 0 {
			ch = proto.Display
		}
		msgs = append(msgs, proto.Message{Channel: ch, Payload: data[:n]})
		data = data[n:]
	}
	return msgs
}

// seedInput frames a client's encoding of a few event batches in
// inputMessages' format, so the fuzzer starts from well-formed streams.
func seedInput(cli proto.Client) []byte {
	var out []byte
	for _, evs := range [][]display.InputEvent{
		{display.KeyEvent{Down: true, Code: 30}},
		{display.MouseMove{X: 5, Y: 9}, display.MouseMove{X: 300, Y: 200}},
		{display.MouseButton{Down: true, Button: 1}, display.MouseMove{X: 301, Y: 199}},
	} {
		for _, m := range cli.EncodeInput(evs, &proto.Scratch{}) {
			out = append(out, byte(len(m.Payload)))
			out = append(out, m.Payload...)
		}
	}
	return out
}

// FuzzInputDecoders feeds every codec a fuzzed sequence of input messages:
// one server decodes each message and a twin server validates it. Message
// by message the two must agree on error versus success, the validated
// count must equal the decoded event count, and neither may panic. The
// sequence matters: vnc and lbx carry pointer state from one message to
// the next, so the twins must also leave identical state behind.
func FuzzInputDecoders(f *testing.F) {
	for _, name := range protos.Names() {
		_, cli, _, err := protos.New(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seedInput(cli))
	}
	f.Add([]byte{0x82, 1, 2, 5, 0xFF, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs := inputMessages(data)
		for _, name := range protos.Names() {
			dec, _, _, _ := protos.New(name)
			val, _, _, _ := protos.New(name)
			for i, m := range msgs {
				events, errD := dec.DecodeInput(m)
				n, errV := val.ValidateInput(m)
				if (errD == nil) != (errV == nil) {
					t.Fatalf("%s message %d: DecodeInput error %v, ValidateInput error %v", name, i, errD, errV)
				}
				if errD == nil && n != len(events) {
					t.Fatalf("%s message %d: ValidateInput counted %d events, DecodeInput returned %d", name, i, n, len(events))
				}
			}
		}
	})
}

// TestResetSessionIsPristine: a codec pair that served one session — and
// was left holding half of a fragmented transfer, as a departure
// mid-update leaves it — must, once reset, encode, decode, and render a
// second session exactly as a brand-new pair does: the same wire digest,
// and a client framebuffer equal to the fresh one's pixel for pixel. The
// server's session pool relies on this to hand a departed user's codecs
// to a successor.
func TestResetSessionIsPristine(t *testing.T) {
	session := func(seed uint64, srv proto.Server, cli proto.Client) uint64 {
		h := fnv.New64a()
		fb := cli.Framebuffer()
		g := &opGen{r: simclock.NewRand(seed), w: fb.W, h: fb.H, big: true}
		in := &inputGen{r: simclock.NewRand(simclock.DeriveSeed(seed, 1)), w: fb.W, h: fb.H}
		var tape display.OpTape
		for round := 0; round < 60; round++ {
			tape.Reset()
			g.batch(&tape)
			msgs := srv.Update(&tape, 0, tape.Len(), &proto.Scratch{})
			digestMessages(h, msgs)
			for _, m := range msgs {
				if err := cli.Apply(m); err != nil {
					t.Fatalf("round %d: apply: %v", round, err)
				}
			}
			msgs = cli.EncodeInput(in.batch(), &proto.Scratch{})
			digestMessages(h, msgs)
			for _, m := range msgs {
				events, err := srv.DecodeInput(m)
				if err != nil {
					t.Fatalf("round %d: decode input: %v", round, err)
				}
				fmt.Fprint(h, events)
			}
		}
		return h.Sum64()
	}
	for _, name := range protos.Names() {
		t.Run(name, func(t *testing.T) {
			used, usedCli, _, _ := protos.New(name)
			fresh, freshCli, _, _ := protos.New(name)
			session(1, used, usedCli)
			noise := display.NewBitmap(40, 40)
			r := simclock.NewRand(7)
			for i := range noise.Pix {
				noise.Pix[i] = byte(r.Uint64())
			}
			var ops display.OpTape
			ops.Blit(3, 4, noise)
			partial := used.Update(&ops, 0, ops.Len(), &proto.Scratch{})
			if err := usedCli.Apply(partial[0]); err != nil {
				t.Fatal(err)
			}
			used.ResetSession()
			usedCli.ResetSession()
			if !usedCli.Framebuffer().Equal(freshCli.Framebuffer()) {
				t.Fatalf("reset %s client's screen differs from a fresh client's", name)
			}
			if a, b := session(2, used, usedCli), session(2, fresh, freshCli); a != b {
				t.Fatalf("reset %s pair diverged from a fresh one: digest %#x vs %#x", name, a, b)
			}
			if !usedCli.Framebuffer().Equal(freshCli.Framebuffer()) {
				t.Fatalf("reset %s client rendered a different screen from a fresh one", name)
			}
		})
	}
}

// hostileDisplay are well-framed display messages, each claiming an absurd
// size, that once broke a client, hung it, or made it allocate what they
// claim. Every one must now come back quickly with bounded allocation,
// with err (nil for a draw the client clips to its screen).
var hostileDisplay = []struct {
	name, proto string
	payload     []byte
	err         error
}{
	// A 21-byte 65535×65535 PolyFillRect at (0, 0): it spun for 4.5 s
	// before fills were clipped to the screen.
	{"x-fill", "x", []byte{70, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 1}, nil},
	// A 28-byte 65535×65535 CopyArea from (0, 0) to (0, 0): it staged
	// 4,095 MB over 22.6 s before copies were clipped.
	{"x-copy", "x", []byte{62, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}, nil},
	// 25-byte rdp PDUs (a 14-byte header counting one order) holding a
	// CacheBitmap with an empty RLE body: a 0×5 image panicked in
	// NewBitmap, and a 65535×65535 one made rleDecode preallocate 4,095 MB.
	{"rdp-cache-0x5", "rdp", []byte{25, 0, 3, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		4, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0}, proto.ErrBadMessage},
	{"rdp-cache-65535x65535", "rdp", []byte{25, 0, 3, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		4, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}, proto.ErrBadMessage},
	// An 800×600 CacheBitmap whose two-byte RLE body yields 128 pixels:
	// rleDecode preallocated the whole screen before failing.
	{"rdp-cache-short-rle", "rdp", []byte{27, 0, 3, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		4, 0, 0, 0x20, 0x03, 0x58, 0x02, 2, 0, 0, 0, 0x7F, 9}, proto.ErrBadMessage},
	// A whole lbx PutImage of 65535×65535 compressed into an empty
	// two-byte DEFLATE stream: inflateBytes preallocated 4,095 MB.
	{"lbx-put-65535x65535", "lbx", []byte{0x10, 3, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF,
		1, 2, 0, 0, 0, 0x03, 0x00}, proto.ErrBadMessage},
	// A vnc FramebufferUpdate with one 10×10 RRE rectangle whose five-byte
	// body claims 2^32-1 subrectangles: the client looped through them all.
	{"vnc-rre-subrects", "vnc", []byte{0, 0, 1, 0, 0, 0, 0, 0, 10, 0, 10, 0, 2, 0, 0, 0,
		5, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 1}, proto.ErrTruncated},
}

// allocated reports the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHostileDisplayMessagesAreBounded applies each hostile message to a
// fresh client of its protocol. Each must return its error within a
// second. A draw clipped to the screen may allocate no more than an x
// PolyFillRect of exactly the screen does: one screen of pixels, as the
// allocator charges its 64-row bands. A rejected message may allocate its
// decoder's own state, under 64 KB, but never the image it claims.
func TestHostileDisplayMessagesAreBounded(t *testing.T) {
	// apply reports the fewest bytes any of three fresh clients allocates
	// applying the payload, so a stray background allocation cannot fail
	// the test, and the longest any of them takes.
	apply := func(name string, payload []byte) (least uint64, took time.Duration, err error) {
		least = math.MaxUint64
		for range 3 {
			_, cli, _, _ := protos.New(name)
			start := time.Now()
			n := allocated(func() { err = cli.Apply(proto.Message{Channel: proto.Display, Payload: payload}) })
			least, took = min(least, n), max(took, time.Since(start))
		}
		return least, took, err
	}
	screen, _, err := apply("x", []byte{70, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0x20, 0x03, 0x58, 0x02, 1}) // 800×600 at (0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range hostileDisplay {
		n, took, err := apply(m.proto, m.payload)
		if !errors.Is(err, m.err) {
			t.Errorf("%s: Apply error %v, want %v", m.name, err, m.err)
		}
		if took > time.Second {
			t.Errorf("%s: Apply took %v", m.name, took)
		}
		limit := screen
		if m.err != nil {
			limit = 64 << 10
		}
		if n > limit {
			t.Errorf("%s: Apply allocated %d bytes, limit %d", m.name, n, limit)
		}
	}
}

// FuzzClientApply feeds every codec's client a fuzzed sequence of display
// messages, in FuzzInputDecoders' framing with the channel bit set. Apply
// may reject a message or render it, but must never panic, and the
// hostile messages above seed the corpus alongside each server's encoding
// of every op kind.
func FuzzClientApply(f *testing.F) {
	// frame writes msgs as display messages in inputMessages' format,
	// leaving out any too long for its 7-bit length.
	frame := func(msgs []proto.Message) []byte {
		var out []byte
		for _, m := range msgs {
			if len(m.Payload) < 0x80 {
				out = append(out, 0x80|byte(len(m.Payload)))
				out = append(out, m.Payload...)
			}
		}
		return out
	}
	for _, m := range hostileDisplay {
		f.Add(frame([]proto.Message{{Channel: proto.Display, Payload: m.payload}}))
	}
	// A slim BITMAP 13 pixels wide and 3 high: its rows start mid-byte,
	// and its last row's second group ends 6 bits into its 5-byte data.
	f.Add(frame([]proto.Message{{Channel: proto.Display, Payload: []byte{2, 5, 0, 9, 0, 13, 0, 3, 0, 4, 0,
		0xA5, 0x5A, 0xFF, 0x0F, 0x71}}}))
	img := display.NewBitmap(4, 3)
	img.Pix[5] = 9
	var ops display.OpTape
	ops.Fill(display.Rect{X: 10, Y: 20, W: 30, H: 4}, 3)
	ops.Text(5, 70, "hé", 7)
	ops.Copy(display.Rect{X: 10, Y: 20, W: 30, H: 4}, 12, 60)
	ops.Blit(790, 590, img)
	for _, name := range protos.Names() {
		srv, _, _, _ := protos.New(name)
		for i := 0; i < ops.Len(); i++ {
			f.Add(frame(srv.Update(&ops, i, i+1, &proto.Scratch{})))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs := inputMessages(data)
		for _, name := range protos.Names() {
			_, cli, _, _ := protos.New(name)
			for _, m := range msgs {
				_ = cli.Apply(m) // rejecting a message is allowed; only a panic fails
			}
		}
	})
}

// TestMaxMessageIsOneFullScreen: each codec's cap is the largest message
// its server sends for one full screen of pixels with no two equal bytes
// side by side, so no RLE run and no RRE gain, and the client applies
// it. lbx cuts that screen into chunks, so its cap is its client's
// largest input pack: 255 motions, each too far from the last for the
// relative form.
func TestMaxMessageIsOneFullScreen(t *testing.T) {
	img := display.NewBitmap(display.TypicalScreenW, display.TypicalScreenH)
	for i := range img.Pix {
		img.Pix[i] = byte(i % 251)
	}
	var tape display.OpTape
	tape.Blit(0, 0, img)
	motions := make([]display.InputEvent, 255)
	for i := range motions {
		motions[i] = display.MouseMove{X: 700 * (1 - i%2), Y: 500 * (1 - i%2)}
	}
	for _, name := range protos.Names() {
		srv, cli, opts, err := protos.New(name)
		if err != nil {
			t.Fatal(err)
		}
		screen := 0
		for _, m := range srv.Update(&tape, 0, tape.Len(), &proto.Scratch{}) {
			screen = max(screen, m.Size())
			if err := cli.Apply(m); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		input := 0
		for _, m := range cli.EncodeInput(motions, &proto.Scratch{}) {
			input = max(input, m.Size())
		}
		if largest := max(screen, input); largest != opts.MaxMessage {
			t.Errorf("%s: largest full-screen message %d bytes, largest 255-event input %d, cap %d; want the larger to be the cap",
				name, screen, input, opts.MaxMessage)
		}
	}
}
