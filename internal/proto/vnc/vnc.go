// Package vnc implements a VNC-like remote display protocol, one of the
// two related-work comparators the paper discusses in §7 (Richardson et
// al., "Virtual Network Computing", IEEE Internet Computing 1998).
//
// Architecturally it differs from every drawing-order protocol in this
// repository: the server renders into its own framebuffer and ships
// *pixel rectangles* — the damaged region after each update — rather than
// drawing commands. Rectangles are encoded Raw or RRE (rise-and-run-length,
// an original RFB 3.3 encoding: a background color plus foreground
// subrectangles), whichever is smaller. There is no client-side cache, the
// property that puts VNC in the same camp as X and SLIM on animated
// content.
package vnc

import (
	"fmt"

	"thinbench/internal/display"
	"thinbench/internal/proto"
)

// Rectangle encodings, numbered as in RFB.
const (
	encRaw      = 0
	encCopyRect = 1
	encRRE      = 2
)

// Input message types, as in RFB.
const (
	msgKeyEvent     = 4
	msgPointerEvent = 5
)

// MaxRRESubrects bounds RRE analysis: damage with more distinct
// foreground subrectangles ships Raw (RRE would expand).
const MaxRRESubrects = 64

// Server renders updates into a server-side framebuffer and encodes the
// damaged rectangle each flush.
type Server struct {
	fb *display.Framebuffer

	lastX, lastY int // pointer state from decoded input

	// Encoder scratch, reused across updates so the steady-state echo
	// pipeline allocates nothing: the pending damage list, the RRE
	// subrectangle analysis, and the RRE body buffer.
	pending []display.Rect
	subs    []rreSub
	rreBuf  []byte
	// hist counts a rectangle's colors for tryRRE, which leaves every
	// count zero again, so no call clears all 256.
	hist [256]int32
}

// NewServer builds the application-side endpoint.
func NewServer() *Server {
	return &Server{fb: display.NewFramebuffer(display.TypicalScreenW, display.TypicalScreenH)}
}

// Name implements proto.Server.
func (s *Server) Name() string { return "vnc" }

// Framebuffer exposes the server's rendering, for tests.
func (s *Server) Framebuffer() *display.Framebuffer { return s.fb }

// SetupBytes implements proto.Server: the RFB handshake is tiny —
// ProtocolVersion exchange, security, ClientInit/ServerInit with the
// desktop name and pixel format.
func (s *Server) SetupBytes() int {
	return 12 + 12 + // ProtocolVersion both ways
		4 + 4 + // security negotiation
		1 + // ClientInit
		24 + len("thinbench-vnc") // ServerInit + name
}

// ResetSession implements proto.Server: a cleared server framebuffer and
// pointer state, allocations kept.
func (s *Server) ResetSession() {
	s.fb.Reset()
	s.lastX, s.lastY = 0, 0
}

// Update implements proto.Server: render the tape entries into the server
// framebuffer, then ship one FramebufferUpdate carrying a rectangle per
// damaged region. On-screen copies (scrolling) become CopyRect rectangles —
// RFB's answer to scroll traffic; other damage merges where it overlaps,
// as a real RFB server's region tracking behaves.
//
// Ordering is load-bearing: a CopyRect reads the *client's* framebuffer,
// so pixel damage preceding a copy must be encoded from the server
// framebuffer as it stood before the copy executed. Pending damage is
// therefore encoded ("flushed") the moment a copy op arrives.
//
// Rectangles are written straight into one payload buffer in flush order
// with the rectangle count patched into the header afterward, and the
// damage list and RRE analysis scratch are reused across updates, so a
// warm encode allocates nothing.
//
//thinlint:hotpath
func (s *Server) Update(t *display.OpTape, from, to int, sc *proto.Scratch) []proto.Message {
	if to <= from {
		return nil
	}
	w := proto.WriterOver(sc.Buf)
	w.U8(0)  // FramebufferUpdate
	w.U8(0)  // pad
	w.U16(0) // rectangle count, patched below
	rects := 0
	s.pending = s.pending[:0]
	for i := from; i < to; i++ {
		if t.Kind(i) == display.KindCopy {
			// Encode prior damage from the pre-copy framebuffer state.
			rects = s.flushPending(&w, rects)
			src, dx, dy := t.CopyAt(i)
			s.fb.ApplyCopy(src, dx, dy)
			d := clipRect(display.Rect{X: dx, Y: dy, W: src.W, H: src.H})
			if !d.Empty() {
				w.I16(int16(d.X)).I16(int16(d.Y))
				w.U16(uint16(d.W)).U16(uint16(d.H))
				w.U32(encCopyRect)
				w.I16(int16(src.X)).I16(int16(src.Y))
				rects++
			}
			continue
		}
		switch t.Kind(i) {
		case display.KindFill:
			r, color := t.FillAt(i)
			s.fb.ApplyFill(r, color)
		case display.KindText:
			x, y, text, color := t.TextAt(i)
			s.fb.ApplyText(x, y, text, color)
		case display.KindBlit:
			x, y, img := t.BlitAt(i)
			s.fb.ApplyBlit(x, y, img)
		}
		d := clipRect(t.BoundsAt(i))
		if !d.Empty() {
			s.pending = mergeRect(s.pending, d)
		}
	}
	rects = s.flushPending(&w, rects)
	b := w.Bytes()
	sc.Buf = b
	if rects == 0 {
		return nil
	}
	b[2] = byte(rects)
	b[3] = byte(rects >> 8)
	sc.Msgs = append(sc.Msgs[:0], proto.Message{Channel: proto.Display, Kind: "FramebufferUpdate", Payload: b})
	return sc.Msgs
}

// flushPending encodes every pending damage rectangle from the current
// framebuffer state and empties the list, returning the updated rectangle
// count.
//
//thinlint:hotpath
func (s *Server) flushPending(w *proto.Writer, rects int) int {
	for _, r := range s.pending {
		s.encodeRect(w, r)
		rects++
	}
	s.pending = s.pending[:0]
	return rects
}

// mergeRect adds r to the damage list, unioning it with any rectangle it
// intersects (repeatedly, since a union can create new intersections).
func mergeRect(rects []display.Rect, r display.Rect) []display.Rect {
	for {
		merged := false
		kept := rects[:0]
		for _, o := range rects {
			if intersects(r, o) {
				r = r.Union(o)
				merged = true
				continue
			}
			kept = append(kept, o)
		}
		rects = kept
		if !merged {
			return append(rects, r)
		}
	}
}

func intersects(a, b display.Rect) bool {
	return a.X < b.X+b.W && b.X < a.X+a.W && a.Y < b.Y+b.H && b.Y < a.Y+a.H
}

// clipRect clips r to the screen.
func clipRect(r display.Rect) display.Rect {
	const w, h = display.TypicalScreenW, display.TypicalScreenH
	if r.X < 0 {
		r.W += r.X
		r.X = 0
	}
	if r.Y < 0 {
		r.H += r.Y
		r.Y = 0
	}
	if r.X+r.W > w {
		r.W = w - r.X
	}
	if r.Y+r.H > h {
		r.H = h - r.Y
	}
	return r
}

// encodeRect appends one damage rectangle encoded from the current
// framebuffer state: a 12-byte rectangle header plus Raw or RRE pixel
// data, whichever is smaller.
func (s *Server) encodeRect(w *proto.Writer, d display.Rect) {
	w.I16(int16(d.X)).I16(int16(d.Y))
	w.U16(uint16(d.W)).U16(uint16(d.H))
	if rre, ok := s.tryRRE(d); ok && len(rre) < d.W*d.H {
		w.U32(encRRE)
		w.U32(uint32(len(rre)))
		w.Raw(rre)
		return
	}
	w.U32(encRaw)
	for y := d.Y; y < d.Y+d.H; y++ {
		if row := s.fb.Row(y); row != nil {
			w.Raw(row[d.X : d.X+d.W])
		} else {
			w.Zero(d.W)
		}
	}
}

// tryRRE analyzes the rectangle: most common color becomes the background;
// runs of other colors become subrectangles (height-1 runs, the simple
// variant). Fails when the subrect count exceeds the configured bound.
// It reads the framebuffer a row at a time, an unstored row as d.W zeros.
//
//thinlint:hotpath
func (s *Server) tryRRE(d display.Rect) ([]byte, bool) {
	// Count the colors, keeping the dominant one as the counts grow: the
	// most frequent color, the lowest of those tied. Then set the counts
	// of the colors seen back to zero.
	bg, best := byte(0), int32(0)
	for y := d.Y; y < d.Y+d.H; y++ {
		row := s.fb.Row(y)
		if row == nil {
			s.hist[0] += int32(d.W)
			if s.hist[0] >= best {
				bg, best = 0, s.hist[0]
			}
			continue
		}
		for _, c := range row[d.X : d.X+d.W] {
			s.hist[c]++
			if n := s.hist[c]; n > best || n == best && c < bg {
				bg, best = c, n
			}
		}
	}
	s.hist[0] = 0
	for y := d.Y; y < d.Y+d.H; y++ {
		if row := s.fb.Row(y); row != nil {
			for _, c := range row[d.X : d.X+d.W] {
				s.hist[c] = 0
			}
		}
	}
	subs := s.subs[:0]
	for y := d.Y; y < d.Y+d.H; y++ {
		row := s.fb.Row(y)
		for x := 0; x < d.W; {
			c, run := byte(0), d.W // an unstored row is one run of zeros
			if row != nil {
				c, run = row[d.X+x], 1
				for x+run < d.W && row[d.X+x+run] == c {
					run++
				}
			}
			if c != bg {
				subs = append(subs, rreSub{x, y - d.Y, run, c})
				if len(subs) > MaxRRESubrects {
					s.subs = subs
					return nil, false
				}
			}
			x += run
		}
	}
	s.subs = subs
	w := proto.WriterOver(s.rreBuf)
	w.U32(uint32(len(subs)))
	w.U8(bg)
	for _, r := range subs {
		w.U8(r.color)
		w.U16(uint16(r.x)).U16(uint16(r.y))
		w.U16(uint16(r.w)).U16(1)
	}
	s.rreBuf = w.Bytes()
	return s.rreBuf, true
}

// rreSub is one RRE foreground subrectangle (height-1 run) found by tryRRE.
type rreSub struct {
	x, y, w int
	color   byte
}

// DecodeInput implements proto.Server: fixed-size RFB client messages, one
// per event.
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

// readInput is the one input walk behind DecodeInput and ValidateInput —
// including the pointer-state tracking that distinguishes motion from
// clicks — so the two accept and reject identical messages and leave
// identical state by construction. Events are appended to out when it is
// non-nil.
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
		case msgKeyEvent:
			down := r.U8()
			r.U16() // pad
			key := r.U32()
			n++
			if out != nil {
				*out = append(*out, display.KeyEvent{Down: down != 0, Code: uint16(key)}) //thinlint:allow hotpath.box decode only: the validate path passes no sink
			}
		case msgPointerEvent:
			mask := r.U8()
			x, y := r.I16(), r.I16()
			// Distinguish motion from clicks the way an RFB server does:
			// track pointer and button state.
			if int(x) != s.lastX || int(y) != s.lastY {
				s.lastX, s.lastY = int(x), int(y)
				n++
				if out != nil {
					*out = append(*out, display.MouseMove{X: int(x), Y: int(y)}) //thinlint:allow hotpath.box decode only: the validate path passes no sink
				}
			}
			if mask&0x80 != 0 {
				n++
				if out != nil {
					*out = append(*out, display.MouseButton{Down: mask&1 != 0, Button: (mask >> 1) & 0x7}) //thinlint:allow hotpath.box decode only: the validate path passes no sink
				}
			}
		default:
			return 0, fmt.Errorf("%w: unknown client message %d", proto.ErrBadMessage, typ) //thinlint:allow hotpath error path: runs only on a malformed input PDU, never in steady state
		}
		if err := r.Err(); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// Client applies framebuffer updates and encodes RFB client messages.
type Client struct {
	fb *display.Framebuffer

	lastX, lastY int // pointer position carried on button events
}

// NewClient builds the terminal-side endpoint.
func NewClient() *Client {
	return &Client{fb: display.NewFramebuffer(display.TypicalScreenW, display.TypicalScreenH)}
}

// Name implements proto.Client.
func (c *Client) Name() string { return "vnc" }

// Framebuffer implements proto.Client.
func (c *Client) Framebuffer() *display.Framebuffer { return c.fb }

// ResetSession implements proto.Client: a cleared screen and pointer
// state, allocations kept.
func (c *Client) ResetSession() {
	c.fb.Reset()
	c.lastX, c.lastY = 0, 0
}

// Apply implements proto.Client.
func (c *Client) Apply(m proto.Message) error {
	r := proto.NewReader(m.Payload)
	if r.U8() != 0 {
		return fmt.Errorf("%w: not a FramebufferUpdate", proto.ErrBadMessage)
	}
	r.U8()
	nRects := int(r.U16())
	for i := 0; i < nRects; i++ {
		x, y := int(r.I16()), int(r.I16())
		w, h := int(r.U16()), int(r.U16())
		switch enc := r.U32(); enc {
		case encCopyRect:
			sx, sy := int(r.I16()), int(r.I16())
			if r.Err() != nil {
				return r.Err()
			}
			c.fb.ApplyCopy(display.Rect{X: sx, Y: sy, W: w, H: h}, x, y)
		case encRaw:
			for yy := 0; yy < h; yy++ {
				row := r.Raw(w)
				if r.Err() != nil {
					return r.Err()
				}
				c.fb.PutRow(x, y+yy, row)
			}
		case encRRE:
			n := int(r.U32())
			body := proto.NewReader(r.Raw(n))
			if r.Err() != nil {
				return r.Err()
			}
			nSubs := int(body.U32())
			bg := body.U8()
			c.fb.ApplyFill(display.Rect{X: x, Y: y, W: w, H: h}, bg)
			for s := 0; s < nSubs; s++ {
				color := body.U8()
				sx, sy := int(body.U16()), int(body.U16())
				sw, sh := int(body.U16()), int(body.U16())
				if err := body.Err(); err != nil {
					return err
				}
				c.fb.ApplyFill(display.Rect{X: x + sx, Y: y + sy, W: sw, H: sh}, color)
			}
			if err := body.Err(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: unknown encoding %d", proto.ErrBadMessage, enc)
		}
	}
	return r.Err()
}

// EncodeInput implements proto.Client: one fixed-size message per event,
// all sharing a flush write (RFB clients write per event; the batch is one
// socket write).
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
			w.U8(msgKeyEvent)
			if e.Down {
				w.U8(1)
			} else {
				w.U8(0)
			}
			w.U16(0)
			w.U32(uint32(e.Code))
		case display.MouseMove:
			c.lastX, c.lastY = e.X, e.Y
			w.U8(msgPointerEvent)
			w.U8(0)
			w.I16(int16(e.X)).I16(int16(e.Y))
		case display.MouseButton:
			w.U8(msgPointerEvent)
			mask := uint8(0x80) | (e.Button&0x7)<<1
			if e.Down {
				mask |= 1
			}
			w.U8(mask)
			// Button events carry the current pointer position, so the
			// server sees no spurious motion.
			w.I16(int16(c.lastX)).I16(int16(c.lastY))
		default:
			panic(fmt.Sprintf("vnc: unsupported input event %T", ev))
		}
	}
	b := w.Bytes()
	sc.Buf = b
	sc.Msgs = append(sc.Msgs[:0], proto.Message{Channel: proto.Input, Kind: "ClientEvents", Payload: b})
	return sc.Msgs
}

// Compile-time interface conformance.
var (
	_ proto.Server = (*Server)(nil)
	_ proto.Client = (*Client)(nil)
)
