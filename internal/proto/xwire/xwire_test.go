package xwire

import (
	"testing"

	"thinbench/internal/display"
	"thinbench/internal/proto"
)

func TestRequestSizesMatchX11(t *testing.T) {
	srv := NewServer()
	cases := []struct {
		draw func(t *display.OpTape)
		kind string
		size int
	}{
		{func(t *display.OpTape) { t.Fill(display.Rect{X: 1, Y: 2, W: 3, H: 4}, 5) }, "PolyFillRectangle", 24},
		{func(t *display.OpTape) { t.Copy(display.Rect{X: 1, Y: 2, W: 3, H: 4}, 5, 6) }, "CopyArea", 28},
		// PutImage: 24-byte header + pixels padded to 4.
		{func(t *display.OpTape) { t.Blit(0, 0, display.NewBitmap(10, 3)) }, "PutImage", 24 + 32},
		// PolyText8: 20-byte fixed part + text padded to 4.
		{func(t *display.OpTape) { t.Text(0, 0, "ab", 1) }, "PolyText8", 24},
	}
	for _, c := range cases {
		var ops display.OpTape
		c.draw(&ops)
		msgs := srv.Update(&ops, 0, ops.Len(), &proto.Scratch{})
		if len(msgs) != 1 {
			t.Fatalf("%s: %d messages", c.kind, len(msgs))
		}
		if msgs[0].Kind != c.kind {
			t.Errorf("kind = %s, want %s", msgs[0].Kind, c.kind)
		}
		if msgs[0].Size() != c.size {
			t.Errorf("%s: size = %d, want %d", c.kind, msgs[0].Size(), c.size)
		}
	}
}

func TestEveryEventIs32Bytes(t *testing.T) {
	cli := NewClient()
	events := []display.InputEvent{
		display.KeyEvent{Down: true, Code: 30},
		display.MouseMove{X: 1, Y: 2},
		display.MouseButton{Down: true, Button: 3},
	}
	msgs := cli.EncodeInput(events, &proto.Scratch{})
	if len(msgs) != 1 {
		t.Fatalf("one flush should produce one message, got %d", len(msgs))
	}
	if msgs[0].Size() != len(events)*EventSize {
		t.Fatalf("payload = %d bytes, want %d (32 per event)", msgs[0].Size(), len(events)*EventSize)
	}
}

func TestDecodeRequestRejectsGarbage(t *testing.T) {
	cli := NewClient()
	if err := cli.Apply(proto.Message{Payload: []byte{99, 0, 4, 0}}); err == nil {
		t.Fatal("unknown opcode accepted")
	}
	if err := cli.Apply(proto.Message{Payload: []byte{70, 0}}); err == nil {
		t.Fatal("truncated request accepted")
	}
	// A zero-sized PutImage is malformed but must not panic.
	put := []byte{opPutImage, 2, 24, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0}
	if err := cli.Apply(proto.Message{Payload: put}); err != nil {
		t.Fatalf("empty PutImage: %v", err)
	}
}

func TestSetupTotalsPaperValue(t *testing.T) {
	total := 0
	for _, m := range SetupMessages() {
		total += m.Size()
		if len(m.Payload) < 4 {
			t.Fatalf("setup message %s too small", m.Kind)
		}
	}
	if total != 16312 {
		t.Fatalf("setup total = %d, paper reports 16,312", total)
	}
}

func TestLongTextTruncatesSafely(t *testing.T) {
	srv := NewServer()
	cli := NewClient()
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'a'
	}
	var ops display.OpTape
	ops.TextBytes(0, 0, long, 1)
	msgs := srv.Update(&ops, 0, ops.Len(), &proto.Scratch{})
	for _, m := range msgs {
		if err := cli.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInputEventCountMultipleRejected(t *testing.T) {
	srv := NewServer()
	_, err := srv.DecodeInput(proto.Message{Channel: proto.Input, Kind: "Events", Payload: make([]byte, 33)})
	if err == nil {
		t.Fatal("non-multiple-of-32 input accepted")
	}
}
