package protos_test

import (
	"fmt"
	"hash/fnv"
	"testing"

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
// second session exactly as a brand-new pair does. The server's session
// pool relies on this to hand a departed user's codecs to a successor.
func TestResetSessionIsPristine(t *testing.T) {
	session := func(seed uint64, srv proto.Server, cli proto.Client) uint64 {
		h := fnv.New64a()
		fb := cli.Framebuffer()
		g := &opGen{r: simclock.NewRand(seed), w: fb.W, h: fb.H, big: true}
		in := &inputGen{r: simclock.NewRand(simclock.DeriveSeed(seed, 1)), w: fb.W, h: fb.H}
		for round := 0; round < 60; round++ {
			msgs := proto.UpdateOps(srv, g.batch())
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
		h.Write(fb.Pix)
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
			partial := proto.UpdateOps(used, []display.Op{display.PutBitmap{X: 3, Y: 4, Img: noise}})
			if err := usedCli.Apply(partial[0]); err != nil {
				t.Fatal(err)
			}
			used.ResetSession()
			usedCli.ResetSession()
			if a, b := session(2, used, usedCli), session(2, fresh, freshCli); a != b {
				t.Fatalf("reset %s pair diverged from a fresh one: digest %#x vs %#x", name, a, b)
			}
		})
	}
}
