// Package xwire implements an X11-like remote display protocol: verbose
// fixed-layout requests on the display channel, 32-byte events on the input
// channel, raw (uncached, uncompressed) pixel pushes for image data, and a
// multi-kilobyte connection setup.
//
// It is a functional equivalent of the X protocol core rather than a
// byte-compatible implementation: request and event sizes match X's (a
// PutImage is 24 bytes plus padded pixels, every input event is a fixed 32
// bytes), which is what drives the paper's network results. Text drawing
// follows X's model of server-side fonts: glyph pixels never cross the
// wire, only string bytes do.
package xwire

import (
	"fmt"

	"thinbench/internal/display"
	"thinbench/internal/proto"
)

// Request opcodes, numbered as in the X11 core protocol.
const (
	opCopyArea     = 62
	opPolyFillRect = 70
	opPutImage     = 72
	opPolyText8    = 74
)

// Event codes, as in X11.
const (
	evKeyPress      = 2
	evKeyRelease    = 3
	evButtonPress   = 4
	evButtonRelease = 5
	evMotionNotify  = 6
)

// EventSize is X's fixed wire size for every input event.
const EventSize = 32

// ids used for the session-constant drawable and graphics context fields
// that X carries in every request.
const (
	drawableID = 0x00400001
	gcID       = 0x00400002
)

// Server encodes screen updates as X requests and decodes X events. Its
// only fields are encoder scratch: X's request stream carries no session
// state the encoder must remember.
type Server struct {
	spans []proto.Span
}

// NewServer builds the application-side endpoint.
func NewServer() *Server { return &Server{} }

// Name implements proto.Server.
func (s *Server) Name() string { return "x" }

// setupBytesTotal sums SetupMessages once at package init so per-admission
// SetupBytes calls don't rebuild the handshake exchange.
var setupBytesTotal = func() int {
	total := 0
	for _, m := range SetupMessages() {
		total += m.Size()
	}
	return total
}()

// SetupBytes implements proto.Server: the total connection establishment
// cost. See SetupMessages for the breakdown.
func (s *Server) SetupBytes() int { return setupBytesTotal }

// ResetSession implements proto.Server; the server holds no session state.
func (s *Server) ResetSession() {}

// Update implements proto.Server: every drawing operation becomes its own
// request message — X has no server-side batching of the kind RDP performs.
// Requests are encoded back to back into one payload arena with their
// offsets recorded, then sliced into messages once the buffer has stopped
// growing, so a warm encode allocates nothing.
//
//thinlint:hotpath
func (s *Server) Update(t *display.OpTape, from, to int, sc *proto.Scratch) []proto.Message {
	w := proto.WriterOver(sc.Buf)
	spans := s.spans[:0]
	for i := from; i < to; i++ {
		start := w.Len()
		kind := encodeRequest(&w, t, i)
		// Patch the request's length field now that its size is known.
		b := w.Bytes()
		n := len(b) - start
		b[start+2], b[start+3] = byte(n), byte(n>>8)
		spans = append(spans, proto.Span{Start: start, End: len(b), Kind: kind})
	}
	s.spans = spans
	return proto.Carve(sc, w.Bytes(), spans)
}

// reqHeader writes the opcode, the auxiliary byte, and a length field that
// Update patches once the body is written.
func reqHeader(w *proto.Writer, opcode uint8, aux uint8) {
	w.U8(opcode).U8(aux).U16(0)
}

// encodeRequest appends the X request for tape entry i and returns its
// message kind. Every request is a multiple of four bytes and the arena
// starts empty, so each request starts 4-aligned and Pad4 pads the
// request itself.
//
//thinlint:hotpath
func encodeRequest(w *proto.Writer, t *display.OpTape, i int) string {
	switch t.Kind(i) {
	case display.KindFill:
		r, color := t.FillAt(i)
		reqHeader(w, opPolyFillRect, 0)
		w.U32(drawableID).U32(gcID)
		w.I16(int16(r.X)).I16(int16(r.Y))
		w.U16(uint16(r.W)).U16(uint16(r.H))
		w.U8(color).Zero(3)
		return "PolyFillRectangle"
	case display.KindCopy:
		src, dx, dy := t.CopyAt(i)
		reqHeader(w, opCopyArea, 0)
		w.U32(drawableID).U32(drawableID).U32(gcID)
		w.I16(int16(src.X)).I16(int16(src.Y))
		w.I16(int16(dx)).I16(int16(dy))
		w.U16(uint16(src.W)).U16(uint16(src.H))
		return "CopyArea"
	case display.KindBlit:
		x, y, img := t.BlitAt(i)
		reqHeader(w, opPutImage, 2 /* ZPixmap */)
		w.U32(drawableID).U32(gcID)
		w.U16(uint16(img.W)).U16(uint16(img.H))
		w.I16(int16(x)).I16(int16(y))
		w.U8(8 /* depth */).Zero(3)
		w.Raw(img.Pix).Pad4()
		return "PutImage"
	case display.KindText:
		x, y, text, color := t.TextAt(i)
		if len(text) > 255 {
			text = text[:255]
		}
		reqHeader(w, opPolyText8, 0)
		w.U32(drawableID).U32(gcID)
		w.I16(int16(x)).I16(int16(y))
		w.U8(color).U8(uint8(len(text))).Zero(2)
		w.Raw(text).Pad4()
		return "PolyText8"
	default:
		panic(fmt.Sprintf("xwire: unknown tape kind %d", t.Kind(i)))
	}
}

// DecodeInput implements proto.Server: an input message holds one or more
// fixed 32-byte events.
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
		return 0, fmt.Errorf("%w: input decode of %v message", proto.ErrBadMessage, m.Channel) //thinlint:allow hotpath error path: runs only on a malformed input message, never in steady state
	}
	if len(m.Payload)%EventSize != 0 {
		return 0, fmt.Errorf("%w: input payload %d not a multiple of %d", proto.ErrBadMessage, len(m.Payload), EventSize) //thinlint:allow hotpath error path: runs only on a malformed input message, never in steady state
	}
	n := 0
	for off := 0; off < len(m.Payload); off += EventSize {
		r := proto.NewReader(m.Payload[off : off+EventSize])
		typ, detail := r.U8(), r.U8()
		r.Skip(22) // sequence, time, root/event/child windows, root coords
		ex, ey := r.I16(), r.I16()
		switch typ {
		case evKeyPress, evKeyRelease:
			if out != nil {
				*out = append(*out, display.KeyEvent{Down: typ == evKeyPress, Code: uint16(detail)}) //thinlint:allow hotpath.box decode only: the validate path passes no sink
			}
		case evButtonPress, evButtonRelease:
			if out != nil {
				*out = append(*out, display.MouseButton{Down: typ == evButtonPress, Button: detail}) //thinlint:allow hotpath.box decode only: the validate path passes no sink
			}
		case evMotionNotify:
			if out != nil {
				*out = append(*out, display.MouseMove{X: int(ex), Y: int(ey)}) //thinlint:allow hotpath.box decode only: the validate path passes no sink
			}
		default:
			return 0, fmt.Errorf("%w: unknown event type %d", proto.ErrBadMessage, typ) //thinlint:allow hotpath error path: runs only on a malformed input message, never in steady state
		}
		n++
	}
	return n, nil
}

// Client decodes X requests into a framebuffer and encodes input events.
type Client struct {
	fb  *display.Framebuffer
	seq uint16
}

// NewClient builds the terminal-side endpoint with the given screen size.
func NewClient(w, h int) *Client {
	return &Client{fb: display.NewFramebuffer(w, h)}
}

// Name implements proto.Client.
func (c *Client) Name() string { return "x" }

// Framebuffer implements proto.Client.
func (c *Client) Framebuffer() *display.Framebuffer { return c.fb }

// ResetSession implements proto.Client: a cleared screen and a restarted
// event sequence, allocations kept.
func (c *Client) ResetSession() {
	c.fb.Reset()
	c.seq = 0
}

// Apply implements proto.Client: parse one X request and render it.
func (c *Client) Apply(m proto.Message) error {
	r := proto.NewReader(m.Payload)
	opcode := r.U8()
	r.Skip(3) // aux byte, length
	switch opcode {
	case opPolyFillRect:
		r.Skip(8) // drawable, gc
		x, y := r.I16(), r.I16()
		w, h := r.U16(), r.U16()
		color := r.U8()
		if err := r.Err(); err != nil {
			return err
		}
		c.fb.ApplyFill(display.Rect{X: int(x), Y: int(y), W: int(w), H: int(h)}, color)
	case opCopyArea:
		r.Skip(12) // src drawable, dst drawable, gc
		sx, sy := r.I16(), r.I16()
		dx, dy := r.I16(), r.I16()
		w, h := r.U16(), r.U16()
		if err := r.Err(); err != nil {
			return err
		}
		c.fb.ApplyCopy(display.Rect{X: int(sx), Y: int(sy), W: int(w), H: int(h)}, int(dx), int(dy))
	case opPutImage:
		r.Skip(8) // drawable, gc
		w, h := r.U16(), r.U16()
		x, y := r.I16(), r.I16()
		r.Skip(4) // depth, pad
		pix := r.Raw(int(w) * int(h))
		if err := r.Err(); err != nil {
			return err
		}
		c.fb.ApplyBlit(int(x), int(y), &display.Bitmap{W: int(w), H: int(h), Pix: pix})
	case opPolyText8:
		r.Skip(8) // drawable, gc
		x, y := r.I16(), r.I16()
		color := r.U8()
		n := int(r.U8())
		r.Skip(2)
		text := r.Raw(n)
		if err := r.Err(); err != nil {
			return err
		}
		c.fb.ApplyText(int(x), int(y), text, color)
	default:
		return fmt.Errorf("%w: unknown opcode %d", proto.ErrBadMessage, opcode)
	}
	return nil
}

// EncodeInput implements proto.Client: each event is a fixed 32-byte X
// event; events gathered in one flush share one message (one write to the
// socket), matching how an X server flushes its event queue.
//
//thinlint:hotpath
func (c *Client) EncodeInput(events []display.InputEvent, sc *proto.Scratch) []proto.Message {
	if len(events) == 0 {
		return nil
	}
	w := proto.WriterOver(sc.Buf)
	for _, ev := range events {
		c.seq++
		var typ, detail uint8
		var ex, ey int16
		switch e := ev.(type) {
		case display.KeyEvent:
			typ = evKeyRelease
			if e.Down {
				typ = evKeyPress
			}
			detail = uint8(e.Code)
		case display.MouseButton:
			typ = evButtonRelease
			if e.Down {
				typ = evButtonPress
			}
			detail = e.Button
		case display.MouseMove:
			typ = evMotionNotify
			ex, ey = int16(e.X), int16(e.Y)
		default:
			panic(fmt.Sprintf("xwire: unsupported input event %T", ev))
		}
		w.U8(typ).U8(detail).U16(c.seq)
		w.U32(0)          // timestamp
		w.U32(0x25)       // root window
		w.U32(drawableID) // event window
		w.U32(0)          // child
		w.I16(ex).I16(ey) // root coords
		w.I16(ex).I16(ey) // event coords
		w.U16(0)          // modifier state
		w.U8(1).U8(0)     // same-screen + pad
	}
	b := w.Bytes()
	sc.Buf = b
	sc.Msgs = append(sc.Msgs[:0], proto.Message{Channel: proto.Input, Kind: "Events", Payload: b})
	return sc.Msgs
}

// SetupMessages builds the connection establishment exchange. Component
// sizes follow a typical X11 handshake at the paper's vintage: the client's
// 48-byte connection request; the server's setup reply carrying vendor
// info, pixmap formats, visuals, and the keymap; then the application's
// font queries, atom interning, and window creation. The total matches the
// paper's measured 16,312 bytes for Linux/X session setup.
func SetupMessages() []proto.Message {
	block := func(kind string, ch proto.Channel, n int) proto.Message {
		w := proto.NewWriter(n)
		w.U8(1).U8(0).U16(uint16(n))
		w.Zero(n - 4)
		return proto.Message{Channel: ch, Kind: kind, Payload: w.Bytes()}
	}
	return []proto.Message{
		block("ConnRequest", proto.Input, 48),
		block("SetupReply", proto.Display, 8008),
		block("QueryFontReply", proto.Display, 3012),
		block("QueryFontReply", proto.Display, 3012),
		block("InternAtoms", proto.Input, 1024),
		block("CreateWindow+Map", proto.Input, 1208),
	}
}

// Compile-time interface conformance.
var (
	_ proto.Server = (*Server)(nil)
	_ proto.Client = (*Client)(nil)
)
