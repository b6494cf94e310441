// Package lbx implements a Low-Bandwidth-X-like protocol: a transcoding
// proxy over the xwire protocol that carries each X request in a compact
// form (messages keep the X request's kind), delta-encodes input events
// (motion events shrink from 32 bytes to 3), compresses large pixel
// payloads with DEFLATE, and splits the result into small framing chunks.
//
// The chunking is why the paper observes LBX sending 80% more display
// messages than X while moving half the bytes: compression shrinks
// payloads, but the proxy's framing fragments large transfers.
//
// Like the xwire package, this is a functional equivalent of LBX's
// documented behavior (Fulton & Kantarjiev 1993), not a byte-compatible
// implementation; one simplification is documented on ChunkBytes:
// compression is per-request rather than stream-wide.
package lbx

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"

	"thinbench/internal/display"
	"thinbench/internal/proto"
	"thinbench/internal/proto/xwire"
)

// Compact message opcodes.
const (
	cFillRect  = 0x01
	cCopyArea  = 0x02
	cPutImage  = 0x03
	cText      = 0x04
	cEventPack = 0x05
)

// Chunk framing markers (first byte of every display-channel message).
const (
	frWhole    = 0x10 // complete compact message follows
	frChunk    = 0x11 // chunk of a fragmented message, more follow
	frChunkEnd = 0x12 // final chunk
)

// Input event opcodes inside an event pack.
const (
	iKey       = 0x01
	iMotionRel = 0x02
	iMotionAbs = 0x03
	iButton    = 0x04
)

// ChunkBytes is the proxy's framing unit: a framed compact message
// larger than this is fragmented. Real LBX frames a stream compressed
// through one stream-wide zlib context, so a frame inflates only after
// every frame before it. This proxy compresses each request on its own
// instead, so every message decodes independently of the ones before it,
// at the cost of the matches a shared context would find across
// requests.
const ChunkBytes = 256

// compressThreshold is the smallest pixel payload that is DEFLATE'd.
const compressThreshold = 128

// Server is the application-side proxy endpoint: it transcodes each
// drawing operation into the proxy's compact form, keeping the X request
// kind it stands for, and fragments the result.
type Server struct {
	// Motion delta state for input decoding.
	lastX, lastY int

	// Encoder scratch, reused across updates so a warm encode allocates
	// nothing: the compact form of the entry being encoded, where each
	// fragment landed in the shared payload arena, and the compressor.
	compact []byte
	spans   []proto.Span
	z       deflater
}

// NewServer builds the application-side endpoint.
func NewServer() *Server { return &Server{} }

// Name implements proto.Server.
func (s *Server) Name() string { return "lbx" }

// setupBytesTotal sums the proxied X handshake once at package init so
// per-admission SetupBytes calls don't rebuild it.
var setupBytesTotal = func() int {
	total := 146 // LBX proxy option negotiation
	for _, m := range xwire.SetupMessages() {
		total += m.Size()
	}
	return total
}()

// SetupBytes implements proto.Server: the X handshake passes through the
// proxy plus a small LBX negotiation of its own.
func (s *Server) SetupBytes() int { return setupBytesTotal }

// ResetSession implements proto.Server: pristine motion state.
func (s *Server) ResetSession() { s.lastX, s.lastY = 0, 0 }

// Update implements proto.Server: each op becomes the compact form of the
// X request it stands for, framed whole or, if large, fragmented. Every
// fragment is cut out of one payload arena and the compressor is reused,
// so a warm encode allocates nothing.
//
//thinlint:hotpath
func (s *Server) Update(t *display.OpTape, from, to int, sc *proto.Scratch) []proto.Message {
	w := proto.WriterOver(sc.Buf)
	spans := s.spans[:0]
	for i := from; i < to; i++ {
		cw := proto.WriterOver(s.compact)
		kind := s.encodeCompact(&cw, t, i)
		s.compact = cw.Bytes()
		spans = fragment(&w, spans, s.compact, kind)
	}
	s.spans = spans
	return proto.Carve(sc, w.Bytes(), spans)
}

// encodeCompact writes tape entry i in the proxy's compact form and
// returns the kind of the X request it transcodes.
//
//thinlint:hotpath
func (s *Server) encodeCompact(w *proto.Writer, t *display.OpTape, i int) string {
	switch t.Kind(i) {
	case display.KindFill:
		r, color := t.FillAt(i)
		w.U8(cFillRect)
		w.I16(int16(r.X)).I16(int16(r.Y))
		w.U16(uint16(r.W)).U16(uint16(r.H))
		w.U8(color)
		return "PolyFillRectangle"
	case display.KindCopy:
		src, dx, dy := t.CopyAt(i)
		w.U8(cCopyArea)
		w.I16(int16(src.X)).I16(int16(src.Y))
		w.I16(int16(dx)).I16(int16(dy))
		w.U16(uint16(src.W)).U16(uint16(src.H))
		return "CopyArea"
	case display.KindBlit:
		x, y, img := t.BlitAt(i)
		data := img.Pix
		compressed := byte(0)
		if len(data) >= compressThreshold {
			// The compressor is built for the first bitmap past the
			// threshold and reset for every later one.
			if c := s.z.deflate(data); len(c) < len(data) {
				data = c
				compressed = 1
			}
		}
		w.U8(cPutImage)
		w.I16(int16(x)).I16(int16(y))
		w.U16(uint16(img.W)).U16(uint16(img.H))
		w.U8(compressed)
		w.U32(uint32(len(data)))
		w.Raw(data)
		return "PutImage"
	case display.KindText:
		x, y, text, color := t.TextAt(i)
		if len(text) > 255 {
			text = text[:255]
		}
		w.U8(cText)
		w.I16(int16(x)).I16(int16(y))
		w.U8(color)
		w.U8(uint8(len(text)))
		w.Raw(text)
		return "PolyText8"
	default:
		panic(fmt.Sprintf("lbx: unknown tape kind %d", t.Kind(i)))
	}
}

// fragment appends a compact message to the arena in framing, whole or
// split into chunks, and records each framed message's span.
func fragment(w *proto.Writer, spans []proto.Span, compact []byte, kind string) []proto.Span {
	if len(compact)+1 <= ChunkBytes {
		start := w.Len()
		w.U8(frWhole).Raw(compact)
		return append(spans, proto.Span{Start: start, End: w.Len(), Kind: kind})
	}
	for off := 0; off < len(compact); off += ChunkBytes - 1 {
		end := off + ChunkBytes - 1
		marker := byte(frChunk)
		if end >= len(compact) {
			end = len(compact)
			marker = frChunkEnd
		}
		start := w.Len()
		w.U8(marker).Raw(compact[off:end])
		spans = append(spans, proto.Span{Start: start, End: w.Len(), Kind: kind})
	}
	return spans
}

// DecodeInput implements proto.Server: unpack an event pack, applying
// motion deltas against the stream state.
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

// readInput is the one event-pack walk behind DecodeInput and
// ValidateInput — motion deltas included — so the two accept and reject
// identical messages and leave identical stream state by construction.
// Events are appended to out when it is non-nil.
//
//thinlint:hotpath
func (s *Server) readInput(m proto.Message, out *[]display.InputEvent) (int, error) {
	if m.Channel != proto.Input {
		return 0, fmt.Errorf("%w: input decode of %v message", proto.ErrBadMessage, m.Channel) //thinlint:allow hotpath error path: runs only on a malformed input message, never in steady state
	}
	r := proto.NewReader(m.Payload)
	if r.U8() != cEventPack {
		return 0, fmt.Errorf("%w: not an event pack", proto.ErrBadMessage) //thinlint:allow hotpath error path: runs only on a malformed input message, never in steady state
	}
	n := int(r.U8())
	for i := 0; i < n; i++ {
		switch kind := r.U8(); kind {
		case iKey:
			v := r.U16()
			if out != nil {
				*out = append(*out, display.KeyEvent{Down: v&0x8000 != 0, Code: v & 0x7FFF}) //thinlint:allow hotpath.box decode only: the validate path passes no sink
			}
		case iMotionRel, iMotionAbs:
			if kind == iMotionRel {
				dx, dy := int8(r.U8()), int8(r.U8())
				s.lastX += int(dx)
				s.lastY += int(dy)
			} else {
				x, y := r.I16(), r.I16()
				s.lastX, s.lastY = int(x), int(y)
			}
			if out != nil {
				*out = append(*out, display.MouseMove{X: s.lastX, Y: s.lastY}) //thinlint:allow hotpath.box decode only: the validate path passes no sink
			}
		case iButton:
			flags := r.U8()
			if out != nil {
				*out = append(*out, display.MouseButton{Down: flags&1 != 0, Button: flags >> 1}) //thinlint:allow hotpath.box decode only: the validate path passes no sink
			}
		default:
			return 0, fmt.Errorf("%w: unknown input kind %d", proto.ErrBadMessage, kind) //thinlint:allow hotpath error path: runs only on a malformed input message, never in steady state
		}
	}
	if err := r.Err(); err != nil {
		return 0, err
	}
	return n, nil
}

// Client is the terminal-side proxy endpoint.
type Client struct {
	fb *display.Framebuffer

	partial []byte // chunk reassembly buffer
	z       inflater

	lastX, lastY int
}

// NewClient builds the terminal-side endpoint.
func NewClient() *Client {
	return &Client{fb: display.NewFramebuffer(display.TypicalScreenW, display.TypicalScreenH)}
}

// Name implements proto.Client.
func (c *Client) Name() string { return "lbx" }

// Framebuffer implements proto.Client.
func (c *Client) Framebuffer() *display.Framebuffer { return c.fb }

// ResetSession implements proto.Client: a cleared screen, no partial
// fragment, pristine motion state, allocations kept.
func (c *Client) ResetSession() {
	c.fb.Reset()
	c.partial = c.partial[:0]
	c.lastX, c.lastY = 0, 0
}

// Apply implements proto.Client: reassemble fragments, decode the compact
// message, render.
func (c *Client) Apply(m proto.Message) error {
	if len(m.Payload) == 0 {
		return proto.ErrTruncated
	}
	marker, body := m.Payload[0], m.Payload[1:]
	switch marker {
	case frWhole:
		return c.applyCompact(body)
	case frChunk:
		c.partial = append(c.partial, body...)
		return nil
	case frChunkEnd:
		full := append(c.partial, body...)
		c.partial = full[:0]
		return c.applyCompact(full)
	default:
		return fmt.Errorf("%w: unknown frame marker %#x", proto.ErrBadMessage, marker)
	}
}

func (c *Client) applyCompact(b []byte) error {
	r := proto.NewReader(b)
	switch op := r.U8(); op {
	case cFillRect:
		x, y := r.I16(), r.I16()
		w, h := r.U16(), r.U16()
		color := r.U8()
		if r.Err() != nil {
			return r.Err()
		}
		c.fb.ApplyFill(display.Rect{X: int(x), Y: int(y), W: int(w), H: int(h)}, color)
	case cCopyArea:
		sx, sy := r.I16(), r.I16()
		dx, dy := r.I16(), r.I16()
		w, h := r.U16(), r.U16()
		if r.Err() != nil {
			return r.Err()
		}
		c.fb.ApplyCopy(display.Rect{X: int(sx), Y: int(sy), W: int(w), H: int(h)}, int(dx), int(dy))
	case cPutImage:
		x, y := r.I16(), r.I16()
		w, h := r.U16(), r.U16()
		compressed := r.U8()
		n := int(r.U32())
		data := r.Raw(n)
		if r.Err() != nil {
			return r.Err()
		}
		if compressed == 1 {
			raw, err := c.z.inflate(data, int(w)*int(h))
			if err != nil {
				return err
			}
			data = raw
		}
		if len(data) != int(w)*int(h) {
			return fmt.Errorf("%w: image payload %d for %dx%d", proto.ErrBadMessage, len(data), w, h)
		}
		c.fb.ApplyBlit(int(x), int(y), &display.Bitmap{W: int(w), H: int(h), Pix: data})
	case cText:
		x, y := r.I16(), r.I16()
		color := r.U8()
		n := int(r.U8())
		text := r.Raw(n)
		if r.Err() != nil {
			return r.Err()
		}
		c.fb.ApplyText(int(x), int(y), text, color)
	default:
		return fmt.Errorf("%w: unknown compact op %d", proto.ErrBadMessage, op)
	}
	return nil
}

// EncodeInput implements proto.Client: events gathered in one flush become
// one event pack with delta-encoded motion.
//
//thinlint:hotpath
func (c *Client) EncodeInput(events []display.InputEvent, sc *proto.Scratch) []proto.Message {
	if len(events) == 0 {
		return nil
	}
	if len(events) > 255 {
		events = events[:255]
	}
	w := proto.WriterOver(sc.Buf)
	w.U8(cEventPack)
	w.U8(uint8(len(events)))
	for _, ev := range events {
		switch e := ev.(type) {
		case display.KeyEvent:
			v := e.Code & 0x7FFF
			if e.Down {
				v |= 0x8000
			}
			w.U8(iKey).U16(v)
		case display.MouseMove:
			dx, dy := e.X-c.lastX, e.Y-c.lastY
			if dx >= -128 && dx <= 127 && dy >= -128 && dy <= 127 {
				w.U8(iMotionRel).U8(uint8(int8(dx))).U8(uint8(int8(dy)))
			} else {
				w.U8(iMotionAbs).I16(int16(e.X)).I16(int16(e.Y))
			}
			c.lastX, c.lastY = e.X, e.Y
		case display.MouseButton:
			flags := e.Button << 1
			if e.Down {
				flags |= 1
			}
			w.U8(iButton).U8(flags)
		default:
			panic(fmt.Sprintf("lbx: unsupported input event %T", ev))
		}
	}
	b := w.Bytes()
	sc.Buf = b
	sc.Msgs = append(sc.Msgs[:0], proto.Message{Channel: proto.Input, Kind: "EventPack", Payload: b})
	return sc.Msgs
}

// deflater compresses with DEFLATE at the default level through one
// compressor and output buffer. Writer.Reset leaves the compressor equal
// to a fresh NewWriter's, so every call yields the bytes a fresh one
// would. The compressor, about 800 KB of state, is built on the first
// call, so a server that draws no large bitmap never holds one.
type deflater struct {
	zw  *flate.Writer
	out bytes.Buffer
}

// deflate compresses src. The result aliases the output buffer and is
// valid until the next call.
func (d *deflater) deflate(src []byte) []byte {
	d.out.Reset()
	if d.zw == nil {
		zw, err := flate.NewWriter(&d.out, flate.DefaultCompression)
		if err != nil {
			panic(err) // only fails on invalid level
		}
		d.zw = zw
	} else {
		d.zw.Reset(&d.out)
	}
	if _, err := d.zw.Write(src); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	if err := d.zw.Close(); err != nil {
		panic(err)
	}
	return d.out.Bytes()
}

// maxInflateRatio bounds DEFLATE's expansion: a 258-byte match coded in
// two bits is the densest form, about 1032 output bytes per input byte.
const maxInflateRatio = 1032

// inflater decompresses DEFLATE through one reader, source reader, read
// buffer and output buffer. The reader is reset for each input
// (flate.Resetter), which leaves it as a fresh one would be, so a client
// decoding many bitmaps allocates only when a bitmap outgrows the output
// buffer. The reader and read buffer are built on the first call.
type inflater struct {
	zr  io.ReadCloser
	src bytes.Reader
	buf []byte
	out []byte
}

// inflate decompresses src, expecting exactly want bytes. The result
// aliases the output buffer and is valid until the next call. A
// preallocation is bounded by what src can inflate to, whatever want
// claims.
func (f *inflater) inflate(src []byte, want int) ([]byte, error) {
	f.src.Reset(src)
	if f.zr == nil {
		f.zr = flate.NewReader(&f.src)
		f.buf = make([]byte, 4096)
	} else if err := f.zr.(flate.Resetter).Reset(&f.src, nil); err != nil {
		return nil, fmt.Errorf("lbx: inflate: %w", err)
	}
	out := f.out[:0]
	if c := min(want, maxInflateRatio*len(src)); cap(out) < c {
		out = make([]byte, 0, c)
	}
	for {
		n, err := f.zr.Read(f.buf)
		out = append(out, f.buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("lbx: inflate: %w", err)
		}
		if len(out) > want {
			return nil, fmt.Errorf("%w: inflated beyond expected %d bytes", proto.ErrBadMessage, want)
		}
	}
	f.out = out
	if len(out) != want {
		return nil, fmt.Errorf("%w: inflated %d bytes, want %d", proto.ErrBadMessage, len(out), want)
	}
	return out, nil
}

// Compile-time interface conformance.
var (
	_ proto.Server = (*Server)(nil)
	_ proto.Client = (*Client)(nil)
)
