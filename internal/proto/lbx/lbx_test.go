package lbx

import (
	"bytes"
	"compress/flate"
	"testing"
	"testing/quick"

	"thinbench/internal/display"
	"thinbench/internal/proto"
)

func pair() (*Server, *Client) {
	return NewServer(DefaultConfig()), NewClient(DefaultConfig())
}

// deflateBytes compresses src through a fresh compressor: the oracle a
// reused deflater must match.
func deflateBytes(src []byte) []byte {
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		panic(err)
	}
	if _, err := zw.Write(src); err != nil {
		panic(err)
	}
	if err := zw.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// inflateBytes decompresses src through a fresh inflater.
func inflateBytes(src []byte, want int) ([]byte, error) {
	var z inflater
	return z.inflate(src, want)
}

func TestDeflateRoundTrip(t *testing.T) {
	cases := [][]byte{
		{},
		{1, 2, 3},
		bytes.Repeat([]byte{7}, 5000),
		display.SyntheticPhoto(1, 0, 50, 50).Pix,
		display.SyntheticFrame(1, 0, 50, 50).Pix,
	}
	var d deflater
	var z inflater
	for _, in := range cases {
		enc := d.deflate(in)
		out, err := z.inflate(enc, len(in))
		if err != nil {
			t.Fatalf("inflate(%d bytes): %v", len(in), err)
		}
		if !bytes.Equal(out, in) {
			t.Fatal("deflate round trip corrupted data")
		}
	}
}

// TestDeflaterMatchesFreshCompressor: a deflater reused across inputs of
// every size, large after small and small after large, yields each time
// the bytes of a fresh compressor, and once warm allocates nothing.
func TestDeflaterMatchesFreshCompressor(t *testing.T) {
	ins := [][]byte{
		display.SyntheticPhoto(1, 0, 64, 64).Pix,
		{1, 2, 3},
		bytes.Repeat([]byte{7}, 70_000),
		{},
		display.SyntheticFrame(2, 3, 120, 100).Pix,
		display.SyntheticPhoto(9, 1, 33, 17).Pix,
	}
	var d deflater
	for round := range 2 {
		for i, in := range ins {
			if got, want := d.deflate(in), deflateBytes(in); !bytes.Equal(got, want) {
				t.Fatalf("round %d, input %d (%d bytes): reused compressor wrote %d bytes, a fresh one %d", round, i, len(in), len(got), len(want))
			}
		}
	}
	if a := testing.AllocsPerRun(10, func() {
		for _, in := range ins {
			d.deflate(in)
		}
	}); a != 0 {
		t.Fatalf("a warm deflater costs %v allocations per round", a)
	}
}

func TestInflateRejectsWrongLength(t *testing.T) {
	enc := deflateBytes([]byte{1, 2, 3, 4})
	var z inflater
	for round := range 2 {
		if _, err := z.inflate(enc, 3); err == nil {
			t.Fatalf("round %d: short expectation accepted", round)
		}
		if _, err := z.inflate(enc, 5); err == nil {
			t.Fatalf("round %d: long expectation accepted", round)
		}
		if out, err := z.inflate(enc, 4); err != nil || !bytes.Equal(out, []byte{1, 2, 3, 4}) {
			t.Fatalf("round %d: after a rejection, inflate = %v, %v", round, out, err)
		}
	}
}

// TestReusedClientMatchesFreshClient: one client decoding update after
// update, with ResetSession between sessions, draws each update's
// framebuffer exactly as a fresh client does from the same messages.
// The updates' compressed bitmaps shrink and grow, so the client's
// inflater reuses a larger output buffer and outgrows it, and once warm
// decoding allocates nothing.
func TestReusedClientMatchesFreshClient(t *testing.T) {
	srv, reused := pair()
	sizes := [][2]int{{64, 64}, {12, 11}, {200, 90}, {64, 64}, {33, 120}}
	var sessions [][]proto.Message
	for i, wh := range sizes {
		var ops display.OpTape
		ops.Fill(display.Rect{X: 0, Y: 0, W: 300, H: 200}, byte(i))
		ops.Blit(5*i, 7, display.SyntheticFrame(uint64(i), 0, wh[0], wh[1]))
		ops.Text(10, 10, "lbx", 1)
		ops.Blit(40, 60+i, display.SyntheticPhoto(uint64(i), 1, wh[1], wh[0]))
		srv.ResetSession()
		var msgs []proto.Message
		for _, m := range srv.Update(&ops, 0, ops.Len(), &proto.Scratch{}) {
			msgs = append(msgs, proto.Message{Channel: m.Channel, Kind: m.Kind, Payload: bytes.Clone(m.Payload)})
		}
		sessions = append(sessions, msgs)
	}
	apply := func(cli *Client, msgs []proto.Message) {
		t.Helper()
		for _, m := range msgs {
			if err := cli.Apply(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := range 2 {
		for i, msgs := range sessions {
			reused.ResetSession()
			apply(reused, msgs)
			fresh := NewClient(DefaultConfig())
			apply(fresh, msgs)
			if !reused.Framebuffer().Equal(fresh.Framebuffer()) {
				t.Fatalf("round %d, session %d: the reused client's screen differs from a fresh client's", round, i)
			}
		}
	}
	if a := testing.AllocsPerRun(10, func() {
		for _, msgs := range sessions {
			reused.ResetSession()
			apply(reused, msgs)
		}
	}); a != 0 {
		t.Fatalf("a warm client costs %v allocations per round", a)
	}
}

// BenchmarkClientApply decodes the messages of one update holding a 64x64
// compressed bitmap, a fill and a text line, on one reused client.
func BenchmarkClientApply(b *testing.B) {
	srv, cli := pair()
	var ops display.OpTape
	ops.Fill(display.Rect{X: 0, Y: 0, W: 300, H: 200}, 2)
	ops.Text(10, 10, "benchmark text", 1)
	ops.Blit(50, 50, display.SyntheticFrame(1, 0, 64, 64))
	msgs := srv.Update(&ops, 0, ops.Len(), &proto.Scratch{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range msgs {
			if err := cli.Apply(m); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestDeflateRoundTripProperty(t *testing.T) {
	f := func(in []byte) bool {
		out, err := inflateBytes(deflateBytes(in), len(in))
		return err == nil && bytes.Equal(out, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkReassembly(t *testing.T) {
	srv, cli := pair()
	img := display.SyntheticPhoto(5, 0, 120, 100) // 12 KB: many chunks
	var ops display.OpTape
	ops.Blit(7, 9, img)
	msgs := srv.Update(&ops, 0, ops.Len(), &proto.Scratch{})
	if len(msgs) < 10 {
		t.Fatalf("12 KB image produced only %d chunks", len(msgs))
	}
	// Every chunk respects the framing bound.
	for _, m := range msgs {
		if m.Size() > DefaultConfig().ChunkBytes {
			t.Fatalf("chunk of %d bytes exceeds %d", m.Size(), DefaultConfig().ChunkBytes)
		}
	}
	for _, m := range msgs {
		if err := cli.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	want := display.NewFramebuffer(DefaultConfig().ScreenW, DefaultConfig().ScreenH)
	want.ApplyTape(&ops, 0, ops.Len())
	if !cli.Framebuffer().Equal(want) {
		t.Fatal("reassembled image diverged")
	}
}

func TestCompressionEngagesOnCompressibleContent(t *testing.T) {
	srv, _ := pair()
	flat := display.SyntheticFrame(1, 0, 100, 100) // blocky: compresses well
	photo := display.SyntheticPhoto(1, 0, 100, 100)
	size := func(img *display.Bitmap) int {
		var ops display.OpTape
		ops.Blit(0, 0, img)
		n := 0
		for _, m := range srv.Update(&ops, 0, ops.Len(), &proto.Scratch{}) {
			n += m.Size()
		}
		return n
	}
	flatBytes, photoBytes := size(flat), size(photo)
	if flatBytes*3 > photoBytes {
		t.Fatalf("flat content %dB not ≪ photo %dB; DEFLATE not engaging", flatBytes, photoBytes)
	}
}

func TestMotionDeltaEscape(t *testing.T) {
	srv, cli := pair()
	events := []display.InputEvent{
		display.MouseMove{X: 100, Y: 100},
		display.MouseMove{X: 101, Y: 99},  // small delta: 3 bytes
		display.MouseMove{X: 700, Y: 500}, // large delta: absolute escape
	}
	var got []display.InputEvent
	for _, m := range cli.EncodeInput(events, &proto.Scratch{}) {
		evs, err := srv.DecodeInput(m)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, evs...)
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestBadFrameMarkerRejected(t *testing.T) {
	_, cli := pair()
	if err := cli.Apply(proto.Message{Channel: proto.Display, Kind: "x", Payload: []byte{0x99, 1, 2}}); err == nil {
		t.Fatal("unknown frame marker accepted")
	}
	if err := cli.Apply(proto.Message{Channel: proto.Display, Kind: "x", Payload: nil}); err == nil {
		t.Fatal("empty payload accepted")
	}
}

func TestSetupIncludesProxyNegotiation(t *testing.T) {
	srv, _ := pair()
	if srv.SetupBytes() != 16312+146 {
		t.Fatalf("LBX setup = %d, want X's 16,312 plus 146 proxy bytes", srv.SetupBytes())
	}
}
