package proto_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"testing/quick"

	"thinbench/internal/bitmapcache"
	"thinbench/internal/display"
	"thinbench/internal/proto"
	"thinbench/internal/proto/lbx"
	"thinbench/internal/proto/protos"
	"thinbench/internal/proto/rdp"
	"thinbench/internal/proto/slim"
	"thinbench/internal/proto/vnc"
	"thinbench/internal/proto/xwire"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	w := proto.NewWriter(32)
	w.U8(0xAB).U16(0x1234).U32(0xDEADBEEF).I16(-7).Raw([]byte{1, 2, 3}).Pad4().Zero(2)
	r := proto.NewReader(w.Bytes())
	if r.U8() != 0xAB || r.U16() != 0x1234 || r.U32() != 0xDEADBEEF || r.I16() != -7 {
		t.Fatal("scalar round trip failed")
	}
	if !bytes.Equal(r.Raw(3), []byte{1, 2, 3}) {
		t.Fatal("raw round trip failed")
	}
	r.Pad4()
	r.Skip(2)
	if r.Err() != nil {
		t.Fatalf("unexpected error: %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d, want 0", r.Remaining())
	}
}

func TestReaderTruncation(t *testing.T) {
	r := proto.NewReader([]byte{1})
	r.U32()
	if r.Err() != proto.ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", r.Err())
	}
	// After an error, everything returns zero values.
	if r.U8() != 0 || r.Raw(5) != nil {
		t.Fatal("post-error reads should be inert")
	}
	r2 := proto.NewReader([]byte{1, 2, 3})
	if r2.Raw(-1) != nil || r2.Err() == nil {
		t.Fatal("negative Raw should error")
	}
}

func TestMessageFramingOverBuffer(t *testing.T) {
	var buf bytes.Buffer
	in := proto.Message{Channel: proto.Input, Kind: "Events", Payload: []byte{9, 8, 7}}
	if err := proto.WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := proto.ReadMessage(&buf, len(in.Payload)) // a frame at its cap is read
	if err != nil {
		t.Fatal(err)
	}
	if out.Channel != in.Channel || out.Kind != in.Kind || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestMessageFramingOverPipe(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	msgs := []proto.Message{
		{Channel: proto.Display, Kind: "UpdatePDU", Payload: bytes.Repeat([]byte{0x55}, 5000)},
		{Channel: proto.Input, Kind: "InputPDU", Payload: []byte{1}},
	}
	go func() {
		for _, m := range msgs {
			proto.WriteMessage(a, m)
		}
	}()
	for _, want := range msgs {
		got, err := proto.ReadMessage(b, 5000)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != want.Kind || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatal("pipe round trip mismatch")
		}
	}
}

// TestReadMessageAllocatesWhatArrives: a header claiming a frame just
// under a 64 MB cap, with nothing behind it, must not allocate the claim,
// and must report the frame as cut short.
func TestReadMessageAllocatesWhatArrives(t *testing.T) {
	const limit = 64 << 20
	hdr := binary.LittleEndian.AppendUint32(nil, limit-1)
	hdr = append(hdr, byte(proto.Display), 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := proto.ReadMessage(bytes.NewReader(hdr), limit)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("a bare header claiming %d bytes allocated %d bytes", limit-1, got)
	}
	// A frame cut off inside its kind is cut short too; an empty stream
	// ends cleanly between frames.
	if _, err := proto.ReadMessage(bytes.NewReader([]byte{0, 0, 0, 0, 0, 3, 'a'}), limit); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated kind: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := proto.ReadMessage(bytes.NewReader(nil), limit); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

// frameCaps lists every registered protocol's largest message.
func frameCaps(tb testing.TB) []int {
	var caps []int
	for _, name := range protos.Names() {
		_, _, opts, err := protos.New(name)
		if err != nil {
			tb.Fatal(err)
		}
		caps = append(caps, opts.MaxMessage)
	}
	return caps
}

// TestReadMessageCaps: under each protocol's cap, a whole frame of
// exactly the cap is read, and a frame one byte over it is malformed.
func TestReadMessageCaps(t *testing.T) {
	for _, limit := range frameCaps(t) {
		var frame bytes.Buffer
		proto.WriteMessage(&frame, proto.Message{Channel: proto.Display, Kind: "Update", Payload: make([]byte, limit)})
		if m, err := proto.ReadMessage(&frame, limit); err != nil || m.Size() != limit {
			t.Errorf("a %d-byte frame under a %d-byte cap: %d bytes, %v", limit, limit, m.Size(), err)
		}
		proto.WriteMessage(&frame, proto.Message{Channel: proto.Display, Kind: "Update", Payload: make([]byte, limit+1)})
		if _, err := proto.ReadMessage(&frame, limit); !errors.Is(err, proto.ErrBadMessage) {
			t.Errorf("a %d-byte frame under a %d-byte cap: err = %v, want ErrBadMessage", limit+1, limit, err)
		}
	}
}

// FuzzReadMessage: under every protocol's cap, framing never panics,
// fails only with a malformed-frame or end-of-stream error, refuses as
// malformed any whole header that claims more than the cap, and a message
// it returns re-encodes to exactly the bytes it consumed.
func FuzzReadMessage(f *testing.F) {
	var frame bytes.Buffer
	proto.WriteMessage(&frame, proto.Message{Channel: proto.Display, Kind: "UpdatePDU", Payload: []byte{1, 2, 3}})
	f.Add(frame.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x03, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 'x'})
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 20<<10), 1, 0))
	caps := frameCaps(f)
	for _, limit := range caps {
		f.Add(append(binary.LittleEndian.AppendUint32(nil, uint32(limit+1)), 0, 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, limit := range caps {
			rd := bytes.NewReader(data)
			m, err := proto.ReadMessage(rd, limit)
			if len(data) >= 6 && binary.LittleEndian.Uint32(data) > uint32(limit) && !errors.Is(err, proto.ErrBadMessage) {
				t.Fatalf("ReadMessage(%x) under a %d-byte cap: err = %v, want ErrBadMessage", data, limit, err)
			}
			if err != nil {
				if !errors.Is(err, proto.ErrBadMessage) && err != io.ErrUnexpectedEOF &&
					!(err == io.EOF && len(data) == 0) {
					t.Fatalf("ReadMessage(%x): unexpected error %v", data, err)
				}
				continue
			}
			var out bytes.Buffer
			if err := proto.WriteMessage(&out, m); err != nil {
				t.Fatalf("re-encoding %+v: %v", m, err)
			}
			consumed := data[:len(data)-rd.Len()]
			if !bytes.Equal(out.Bytes(), consumed) {
				t.Fatalf("re-encoding gives %x, read consumed %x", out.Bytes(), consumed)
			}
		}
	})
}

func TestChannelString(t *testing.T) {
	if proto.Display.String() != "display" || proto.Input.String() != "input" {
		t.Fatal("channel names wrong")
	}
	if proto.Channel(9).String() == "" {
		t.Fatal("unknown channel should stringify")
	}
}

// testTape is a representative op batch exercising every op kind.
func testTape() *display.OpTape {
	t := new(display.OpTape)
	t.Fill(display.Rect{X: 10, Y: 20, W: 100, H: 50}, 3)
	t.Text(15, 25, "hello, thin client", 7)
	t.Blit(200, 100, display.SyntheticFrame(1, 0, 64, 48))
	t.Copy(display.Rect{X: 10, Y: 20, W: 40, H: 30}, 300, 220)
	t.Text(15, 45, "hello again", 7)
	t.Blit(400, 300, display.SyntheticFrame(2, 1, 32, 32))
	return t
}

// reference renders the same ops directly, bypassing any protocol.
func reference(t *display.OpTape) *display.Framebuffer {
	fb := display.NewFramebuffer(display.TypicalScreenW, display.TypicalScreenH)
	fb.ApplyTape(t, 0, t.Len())
	return fb
}

// encode encodes the whole tape into a fresh scratch, so the messages are
// the caller's to keep.
func encode(srv proto.Server, t *display.OpTape) []proto.Message {
	return srv.Update(t, 0, t.Len(), &proto.Scratch{})
}

// endpoints builds a (server, client) pair per protocol, including the
// paper's §7 related-work comparators.
func endpoints(t *testing.T) map[string][2]any {
	t.Helper()
	return map[string][2]any{
		"x":    {xwire.NewServer(), xwire.NewClient()},
		"rdp":  {rdp.NewServer(bitmapcache.LRU), rdp.NewClient()},
		"lbx":  {lbx.NewServer(), lbx.NewClient()},
		"vnc":  {vnc.NewServer(), vnc.NewClient()},
		"slim": {slim.NewServer(), slim.NewClient()},
	}
}

func TestAllProtocolsReproducePixels(t *testing.T) {
	ops := testTape()
	want := reference(ops)
	for name, pair := range endpoints(t) {
		srv := pair[0].(proto.Server)
		cli := pair[1].(proto.Client)
		for _, m := range encode(srv, ops) {
			if err := cli.Apply(m); err != nil {
				t.Fatalf("%s: apply: %v", name, err)
			}
		}
		if !cli.Framebuffer().Equal(want) {
			t.Errorf("%s: client framebuffer does not match reference render", name)
		}
	}
}

func TestAllProtocolsRoundTripInput(t *testing.T) {
	events := []display.InputEvent{
		display.KeyEvent{Down: true, Code: 30},
		display.KeyEvent{Down: false, Code: 30},
		display.MouseMove{X: 100, Y: 200},
		display.MouseMove{X: 103, Y: 198},
		display.MouseButton{Down: true, Button: 1},
		display.MouseButton{Down: false, Button: 1},
		display.MouseMove{X: 500, Y: 400}, // large delta: LBX absolute escape
	}
	for name, pair := range endpoints(t) {
		srv := pair[0].(proto.Server)
		cli := pair[1].(proto.Client)
		var got []display.InputEvent
		for _, m := range cli.EncodeInput(events, &proto.Scratch{}) {
			evs, err := srv.DecodeInput(m)
			if err != nil {
				t.Fatalf("%s: decode input: %v", name, err)
			}
			got = append(got, evs...)
		}
		if len(got) != len(events) {
			t.Fatalf("%s: %d events decoded, want %d", name, len(got), len(events))
		}
		for i := range events {
			if got[i] != events[i] {
				t.Errorf("%s: event %d = %+v, want %+v", name, i, got[i], events[i])
			}
		}
	}
}

func TestProtocolByteOrdering(t *testing.T) {
	// The paper's core network result: on a mixed interactive workload
	// (repeated photographic bitmaps, text, mouse motion), RDP moves the
	// fewest bytes, LBX is in between, X the most.
	var ops display.OpTape
	ops.Fill(display.Rect{X: 0, Y: 0, W: 300, H: 200}, 2)
	ops.Text(10, 10, "document text being edited", 1)
	ops.Blit(50, 50, display.SyntheticPhoto(4, 0, 120, 90))
	ops.Blit(300, 50, display.SyntheticPhoto(4, 1, 120, 90))
	var motion []display.InputEvent
	for i := 0; i < 120; i++ {
		motion = append(motion, display.MouseMove{X: 100 + i, Y: 100 + i/3})
	}
	sizes := map[string]int{}
	for name, pair := range endpoints(t) {
		srv := pair[0].(proto.Server)
		cli := pair[1].(proto.Client)
		total := 0
		// Several passes: repeated UI content lets RDP's caches pay off,
		// as any real interaction does.
		for i := 0; i < 3; i++ {
			for _, m := range encode(srv, &ops) {
				total += m.Size()
			}
			for _, m := range cli.EncodeInput(motion, &proto.Scratch{}) {
				total += m.Size()
			}
		}
		sizes[name] = total
	}
	if !(sizes["rdp"] < sizes["lbx"] && sizes["lbx"] < sizes["x"]) {
		t.Fatalf("byte ordering violated: %v", sizes)
	}
}

func TestRDPCacheHitShrinksRepeatBitmaps(t *testing.T) {
	srv, cli := rdp.NewServer(bitmapcache.LRU), rdp.NewClient()
	img := display.SyntheticFrame(9, 0, 100, 80)
	var ops display.OpTape
	ops.Blit(0, 0, img)
	first, second := 0, 0
	for _, m := range encode(srv, &ops) {
		first += m.Size()
		if err := cli.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range encode(srv, &ops) {
		second += m.Size()
		if err := cli.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	if second >= first/10 {
		t.Fatalf("cache hit PDU %dB not ≪ miss PDU %dB", second, first)
	}
	stats := srv.CacheStats()
	if stats.Hits != 1 || stats.Misses != 1 {
		t.Fatalf("cache stats = %+v", stats)
	}
	if cli.CachedBitmaps() == 0 {
		t.Fatal("client cached nothing")
	}
}

func TestRDPGlyphCachePayoff(t *testing.T) {
	srv := rdp.NewServer(bitmapcache.LRU)
	var ops display.OpTape
	ops.Text(0, 0, "abcabcabc", 1)
	var first, second int
	for _, m := range encode(srv, &ops) {
		first += m.Size()
	}
	for _, m := range encode(srv, &ops) {
		second += m.Size()
	}
	if second >= first {
		t.Fatalf("glyph cache: second text %dB not smaller than first %dB", second, first)
	}
}

// TestRDPOversizedBitmapIsOneShot: a bitmap the cache will not take
// ships as a one-shot, drawn and not retained. Every bitmap that fits the
// screen fits the 1.5 MB cache, so the test fills the cache past what it
// can take through the loop-aware policy's freeze: a loop of 25 photos of
// 320x240, 1.9 MB, played until the policy freezes the cache, leaves no
// room for a fresh bitmap but what the frozen loop holds.
func TestRDPOversizedBitmapIsOneShot(t *testing.T) {
	const w, h = 320, 240
	srv, cli := rdp.NewServer(bitmapcache.LoopAware), rdp.NewClient()
	draw := func(ops *display.OpTape) {
		t.Helper()
		for _, m := range encode(srv, ops) {
			if err := cli.Apply(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 25; i++ {
			var ops display.OpTape
			ops.Blit(0, 0, display.SyntheticPhoto(11, i, w, h))
			draw(&ops)
		}
	}
	if !srv.CacheStats().LoopMode {
		t.Fatal("the loop never froze the cache")
	}
	cached, hits := cli.CachedBitmaps(), srv.CacheStats().Hits
	var ops display.OpTape
	ops.Blit(0, 0, display.SyntheticPhoto(12, 0, w, h))
	for i := 0; i < 3; i++ {
		draw(&ops)
		if cli.CachedBitmaps() != cached {
			t.Fatalf("client holds %d bitmaps after a one-shot draw, want %d", cli.CachedBitmaps(), cached)
		}
	}
	if fit := bitmapcache.DefaultCapacity / (w * h); cached > fit {
		t.Fatalf("client holds %d bitmaps, more than the %d the cache holds: it kept a one-shot", cached, fit)
	}
	if got := srv.CacheStats().Hits; got != hits {
		t.Fatalf("%d hits on a bitmap the frozen cache refused", got-hits)
	}
	if !cli.Framebuffer().Equal(reference(&ops)) {
		t.Fatal("one-shot path corrupted pixels")
	}
}

func TestLBXFragmentsLargeTransfers(t *testing.T) {
	srv := lbx.NewServer()
	xsrv := xwire.NewServer()
	// Incompressible-ish large image: chunking should yield more messages
	// than X's single PutImage.
	var ops display.OpTape
	ops.Blit(0, 0, display.SyntheticFrame(77, 0, 200, 150))
	lbxMsgs := encode(srv, &ops)
	xMsgs := encode(xsrv, &ops)
	if len(lbxMsgs) <= len(xMsgs) {
		t.Fatalf("LBX sent %d messages vs X's %d; chunking missing", len(lbxMsgs), len(xMsgs))
	}
	// And fewer bytes.
	lbxBytes, xBytes := 0, 0
	for _, m := range lbxMsgs {
		lbxBytes += m.Size()
	}
	for _, m := range xMsgs {
		xBytes += m.Size()
	}
	if lbxBytes >= xBytes {
		t.Fatalf("LBX bytes %d not below X bytes %d", lbxBytes, xBytes)
	}
}

func TestLBXMotionDeltaCompression(t *testing.T) {
	cli := lbx.NewClient()
	xcli := xwire.NewClient()
	// A smooth drag: 50 small motion deltas.
	var events []display.InputEvent
	for i := 0; i < 50; i++ {
		events = append(events, display.MouseMove{X: 10 + i, Y: 20 + i/2})
	}
	lbxBytes, xBytes := 0, 0
	for _, m := range cli.EncodeInput(events, &proto.Scratch{}) {
		lbxBytes += m.Size()
	}
	for _, m := range xcli.EncodeInput(events, &proto.Scratch{}) {
		xBytes += m.Size()
	}
	if lbxBytes*4 > xBytes {
		t.Fatalf("LBX motion bytes %d not ≪ X's %d", lbxBytes, xBytes)
	}
}

func TestSessionSetupCosts(t *testing.T) {
	// The paper's §6.1.1: 45,328 bytes for TSE, 16,312 for Linux/X.
	if got := rdp.NewServer(bitmapcache.LRU).SetupBytes(); got != 45328 {
		t.Errorf("RDP setup = %d bytes, want 45328", got)
	}
	if got := xwire.NewServer().SetupBytes(); got != 16312 {
		t.Errorf("X setup = %d bytes, want 16312", got)
	}
	lbxSetup := lbx.NewServer().SetupBytes()
	if lbxSetup <= 16312 {
		t.Errorf("LBX setup = %d, should exceed X's (proxy negotiation)", lbxSetup)
	}
}

func TestBadInputsRejected(t *testing.T) {
	for name, pair := range endpoints(t) {
		srv := pair[0].(proto.Server)
		cli := pair[1].(proto.Client)
		if _, err := srv.DecodeInput(proto.Message{Channel: proto.Display, Kind: "x", Payload: []byte{1, 2, 3}}); err == nil {
			t.Errorf("%s: wrong-channel input accepted", name)
		}
		if err := cli.Apply(proto.Message{Channel: proto.Display, Kind: "junk", Payload: []byte{0xEE, 0xFF}}); err == nil {
			t.Errorf("%s: garbage display message accepted", name)
		}
	}
}

// Property: for random op sequences, every protocol reproduces the
// reference framebuffer exactly.
func TestPixelFidelityProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		ops := randomTape(seed, int(n)%12+1)
		want := reference(ops)
		for _, pair := range endpoints(t) {
			srv := pair[0].(proto.Server)
			cli := pair[1].(proto.Client)
			for _, m := range encode(srv, ops) {
				if err := cli.Apply(m); err != nil {
					return false
				}
			}
			if !cli.Framebuffer().Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// randomTape builds a deterministic pseudo-random op sequence.
func randomTape(seed uint64, n int) *display.OpTape {
	state := seed
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		v := int((state >> 33) % uint64(mod))
		return v
	}
	t := new(display.OpTape)
	for i := 0; i < n; i++ {
		switch next(4) {
		case 0:
			t.Fill(display.Rect{X: next(700), Y: next(500), W: next(90) + 1, H: next(80) + 1}, byte(next(256)))
		case 1:
			t.Copy(display.Rect{X: next(300), Y: next(300), W: next(50) + 1, H: next(50) + 1}, next(700), next(500))
		case 2:
			img := display.SyntheticFrame(uint64(next(1000)), i, next(60)+4, next(40)+4)
			t.Blit(next(700), next(500), img)
		default:
			t.Text(next(700), next(500), "txt", byte(next(255)+1))
		}
	}
	return t
}
