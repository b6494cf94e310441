package vnc

import (
	"testing"
	"testing/quick"

	"thinbench/internal/display"
	"thinbench/internal/proto"
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
