// Package slim implements a SLIM-like remote display protocol, the second
// related-work comparator of the paper's §7 (Schmidt, Lam & Northcutt,
// "The interactive performance of SLIM: a stateless, thin-client
// architecture", SOSP 1999 — the protocol inside Sun's SunRay).
//
// SLIM's design point is *statelessness*: a tiny fixed command set — SET
// (raw pixels), BITMAP (two-color bitmap, ideal for text), FILL (solid
// color), COPY (on-screen move) — with no client-side caching of any kind.
// The paper's observation, which this implementation reproduces, is that
// SLIM lands "roughly equivalent in performance to X": compact commands
// help, but without a bitmap cache, repeated and animated content costs
// full transfers every time.
package slim

import (
	"fmt"
	"unicode/utf8"

	"thinbench/internal/display"
	"thinbench/internal/proto"
)

// Command opcodes.
const (
	cmdSet    = 0x01 // raw pixel rectangle
	cmdBitmap = 0x02 // 1-bpp bitmap with foreground/background colors
	cmdFill   = 0x03 // solid rectangle
	cmdCopy   = 0x04 // on-screen copy
)

// Input event opcodes.
const (
	inKey     = 0x11
	inPointer = 0x12
	inButton  = 0x13
)

// Config sizes the endpoints.
type Config struct {
	ScreenW, ScreenH int
}

// DefaultConfig matches the other protocols' screen.
func DefaultConfig() Config {
	return Config{ScreenW: display.TypicalScreenW, ScreenH: display.TypicalScreenH}
}

// Server encodes display updates as SLIM commands; the protocol is
// stateless, so the server needs no session state at all beyond its name —
// exactly the property Schmidt et al. designed for. (The spans field is
// encoder scratch, not protocol state: per-update offset bookkeeping
// reused so steady-state encoding allocates nothing.)
type Server struct {
	cfg   Config
	spans []proto.Span
}

// NewServer builds the application-side endpoint.
func NewServer(cfg Config) *Server {
	if cfg.ScreenW <= 0 {
		cfg = DefaultConfig()
	}
	return &Server{cfg: cfg}
}

// Name implements proto.Server.
func (s *Server) Name() string { return "slim" }

// SetupBytes implements proto.Server: SLIM's session setup is a minimal
// authentication and display-geometry exchange through the authentication
// manager.
func (s *Server) SetupBytes() int { return 642 }

// ResetSession implements proto.Server; a stateless server has nothing to
// reset.
func (s *Server) ResetSession() {}

// Update implements proto.Server: each operation becomes one command
// message (SLIM has no batching layer; the wire unit is the command). The
// command messages are carved out of one shared payload arena — commands
// are encoded back to back with their offsets recorded, then sliced once
// the buffer has stopped growing — so a steady-state echo burst reuses a
// single buffer and message slice instead of allocating per command.
//
//thinlint:hotpath
func (s *Server) Update(t *display.OpTape, from, to int, sc *proto.Scratch) []proto.Message {
	w := proto.WriterOver(sc.Buf)
	spans := s.spans[:0]
	for i := from; i < to; i++ {
		start := w.Len()
		kind := encodeEntry(&w, t, i)
		spans = append(spans, proto.Span{Start: start, End: w.Len(), Kind: kind})
	}
	s.spans = spans
	return proto.Carve(sc, w.Bytes(), spans)
}

func cmdHeader(w *proto.Writer, op uint8, x, y, width, height int) {
	w.U8(op)
	w.I16(int16(x)).I16(int16(y))
	w.U16(uint16(width)).U16(uint16(height))
}

// encodeEntry appends the command for tape entry i to the shared writer and
// returns its message kind.
//
//thinlint:hotpath
func encodeEntry(w *proto.Writer, t *display.OpTape, i int) string {
	switch t.Kind(i) {
	case display.KindFill:
		r, color := t.FillAt(i)
		cmdHeader(w, cmdFill, r.X, r.Y, r.W, r.H)
		w.U8(color)
		return "FILL"
	case display.KindCopy:
		src, dx, dy := t.CopyAt(i)
		cmdHeader(w, cmdCopy, src.X, src.Y, src.W, src.H)
		w.I16(int16(dx)).I16(int16(dy))
		return "COPY"
	case display.KindBlit:
		x, y, img := t.BlitAt(i)
		cmdHeader(w, cmdSet, x, y, img.W, img.H)
		w.Raw(img.Pix)
		return "SET"
	case display.KindText:
		// Text renders as a two-color BITMAP: 1 bpp glyph coverage plus
		// foreground color — SLIM's answer to fonts, far cheaper than SET.
		// The bitmap is the runes' cells side by side, GlyphW = 8 pixels
		// each, so every row is whole bytes and each rune's GlyphRowBits
		// byte is its row's 8 bits as the wire packs them, LSB first. The
		// UTF-8 byte walk yields the same U+FFFD replacements a range loop
		// over the string would, and the 255-rune cap matches the byte
		// count field as before.
		x, y, text, color := t.TextAt(i)
		n := display.CountRunes(text, 255)
		cmdHeader(w, cmdBitmap, x, y, n*display.GlyphW, display.GlyphH)
		w.U8(color)
		w.U8(0) // transparent background flag
		for yy := 0; yy < display.GlyphH; yy++ {
			ri := 0
			for off := 0; off < len(text) && ri < n; ri++ {
				r, size := utf8.DecodeRune(text[off:])
				off += size
				w.U8(display.GlyphRowBits(r, yy))
			}
		}
		return "BITMAP"
	default:
		panic(fmt.Sprintf("slim: unknown tape kind %d", t.Kind(i)))
	}
}

// DecodeInput implements proto.Server.
func (s *Server) DecodeInput(m proto.Message) ([]display.InputEvent, error) {
	var events []display.InputEvent
	if _, err := s.readInput(m, &events); err != nil {
		return nil, err
	}
	return events, nil
}

// ValidateInput implements proto.Server: readInput without an event sink.
//
//thinlint:hotpath
func (s *Server) ValidateInput(m proto.Message) (int, error) { return s.readInput(m, nil) }

// readInput is the one input walk behind DecodeInput and ValidateInput, so
// the two accept and reject identical messages by construction. Events
// are appended to out when it is non-nil.
//
//thinlint:hotpath
func (s *Server) readInput(m proto.Message, out *[]display.InputEvent) (int, error) {
	if m.Channel != proto.Input {
		return 0, fmt.Errorf("%w: input decode of %v message", proto.ErrBadMessage, m.Channel) //thinlint:allow hotpath error path: runs only on a malformed input PDU, never in steady state
	}
	r := proto.NewReader(m.Payload)
	n := 0
	for r.Remaining() > 0 {
		switch typ := r.U8(); typ {
		case inKey:
			flags, code := r.U8(), r.U16()
			if out != nil {
				*out = append(*out, display.KeyEvent{Down: flags&1 != 0, Code: code}) //thinlint:allow hotpath.box decode only: the validate path passes no sink
			}
		case inPointer:
			x, y := r.I16(), r.I16()
			if out != nil {
				*out = append(*out, display.MouseMove{X: int(x), Y: int(y)}) //thinlint:allow hotpath.box decode only: the validate path passes no sink
			}
		case inButton:
			flags := r.U8()
			if out != nil {
				*out = append(*out, display.MouseButton{Down: flags&1 != 0, Button: flags >> 1}) //thinlint:allow hotpath.box decode only: the validate path passes no sink
			}
		default:
			return 0, fmt.Errorf("%w: unknown input type %d", proto.ErrBadMessage, typ) //thinlint:allow hotpath error path: runs only on a malformed input PDU, never in steady state
		}
		if err := r.Err(); err != nil {
			return 0, err
		}
		n++
	}
	return n, nil
}

// Client applies SLIM commands to its framebuffer.
type Client struct {
	cfg Config
	fb  *display.Framebuffer
}

// NewClient builds the terminal-side endpoint.
func NewClient(cfg Config) *Client {
	if cfg.ScreenW <= 0 {
		cfg = DefaultConfig()
	}
	return &Client{cfg: cfg, fb: display.NewFramebuffer(cfg.ScreenW, cfg.ScreenH)}
}

// Name implements proto.Client.
func (c *Client) Name() string { return "slim" }

// Framebuffer implements proto.Client.
func (c *Client) Framebuffer() *display.Framebuffer { return c.fb }

// ResetSession implements proto.Client: a cleared screen.
func (c *Client) ResetSession() { c.fb.Reset() }

// Apply implements proto.Client.
func (c *Client) Apply(m proto.Message) error {
	r := proto.NewReader(m.Payload)
	op := r.U8()
	x, y := int(r.I16()), int(r.I16())
	w, h := int(r.U16()), int(r.U16())
	if err := r.Err(); err != nil {
		return err
	}
	switch op {
	case cmdFill:
		color := r.U8()
		if err := r.Err(); err != nil {
			return err
		}
		c.fb.ApplyFill(display.Rect{X: x, Y: y, W: w, H: h}, color)
	case cmdCopy:
		dx, dy := int(r.I16()), int(r.I16())
		if err := r.Err(); err != nil {
			return err
		}
		c.fb.ApplyCopy(display.Rect{X: x, Y: y, W: w, H: h}, dx, dy)
	case cmdSet:
		pix := r.Raw(w * h)
		if err := r.Err(); err != nil {
			return err
		}
		c.fb.ApplyBlit(x, y, &display.Bitmap{W: w, H: h, Pix: pix})
	case cmdBitmap:
		fg := r.U8()
		r.U8() // background flag (transparent)
		data := r.Raw((w*h + 7) / 8)
		if err := r.Err(); err != nil {
			return err
		}
		c.paintBitmap(x, y, w, h, data, fg)
	default:
		return fmt.Errorf("%w: unknown command %d", proto.ErrBadMessage, op)
	}
	return nil
}

// paintBitmap paints a BITMAP command's w×h bits, packed LSB first with
// row yy starting at bit yy×w, in fg; a clear bit is transparent. Each row
// is painted eight pixels at a time: the group at bit b is data[b/8]'s high
// bits joined to data[b/8+1]'s low ones, and a row's last group is masked
// to the pixels the row has left. Rows and groups off the screen are
// skipped before they are read.
//
//thinlint:hotpath
func (c *Client) paintBitmap(x, y, w, h int, data []byte, fg byte) {
	for yy := max(0, -y); yy < h && y+yy < c.fb.H; yy++ {
		for xx := max(0, -x) &^ 7; xx < w && x+xx < c.fb.W; xx += 8 {
			b := yy*w + xx
			group := data[b/8] >> uint(b%8)
			if b%8 != 0 && b/8+1 < len(data) {
				group |= data[b/8+1] << uint(8-b%8)
			}
			if left := w - xx; left < 8 {
				group &= 1<<uint(left) - 1
			}
			c.fb.PaintBits(x+xx, y+yy, group, fg)
		}
	}
}

// EncodeInput implements proto.Client: compact fixed events sharing one
// flush write.
//
//thinlint:hotpath
func (c *Client) EncodeInput(events []display.InputEvent, sc *proto.Scratch) []proto.Message {
	if len(events) == 0 {
		return nil
	}
	w := proto.WriterOver(sc.Buf)
	for _, ev := range events {
		switch e := ev.(type) {
		case display.KeyEvent:
			flags := uint8(0)
			if e.Down {
				flags = 1
			}
			w.U8(inKey).U8(flags).U16(e.Code)
		case display.MouseMove:
			w.U8(inPointer).I16(int16(e.X)).I16(int16(e.Y))
		case display.MouseButton:
			flags := e.Button << 1
			if e.Down {
				flags |= 1
			}
			w.U8(inButton).U8(flags)
		default:
			panic(fmt.Sprintf("slim: unsupported input event %T", ev))
		}
	}
	b := w.Bytes()
	sc.Buf = b
	sc.Msgs = append(sc.Msgs[:0], proto.Message{Channel: proto.Input, Kind: "InputEvents", Payload: b})
	return sc.Msgs
}

// Compile-time interface conformance.
var (
	_ proto.Server = (*Server)(nil)
	_ proto.Client = (*Client)(nil)
)
