// Package proto defines the wire-format core shared by the remote display
// protocols of the reproduction: the codec contract, message framing, channel
// classification (the paper's display versus input channels), binary codec
// helpers, and transports (in-memory, and length-prefixed framing over any
// io.ReadWriter such as a real TCP connection).
//
// The protocol implementations live in the subpackages rdp (order-based,
// bitmap-cached, batched), xwire (X11-like verbose requests and 32-byte
// events), lbx (a compressing proxy over xwire's requests), vnc (damaged
// pixel rectangles), and slim (a stateless command set). Each implements
// exactly one encode form: Server.Update over a display.OpTape window into
// a caller-owned Scratch.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"thinbench/internal/display"
)

// Channel identifies the direction of a message, following the paper's
// definitions: the display channel carries server-to-client drawing
// traffic; the input channel carries client-to-server keystrokes and mouse
// events.
type Channel uint8

// Channels.
const (
	Display Channel = iota
	Input
)

func (c Channel) String() string {
	switch c {
	case Display:
		return "display"
	case Input:
		return "input"
	default:
		return fmt.Sprintf("Channel(%d)", uint8(c))
	}
}

// Message is one framed protocol message. Payload is the complete encoded
// message including any protocol-level header; len(Payload) is the wire
// size the paper's byte counts measure (IP/TCP overhead is accounted
// separately by the trace packetizer).
type Message struct {
	Channel Channel
	Kind    string // human-readable message kind for traces
	Payload []byte
}

// Size reports the message's wire size in bytes.
func (m Message) Size() int { return len(m.Payload) }

// Server is the application-side endpoint of a display protocol: it encodes
// screen updates and decodes input messages.
type Server interface {
	// Name identifies the protocol ("rdp", "x", "lbx", "vnc", "slim").
	Name() string
	// Update encodes one screen update — tape entries [from, to), the
	// drawing operations of one application flush — into display-channel
	// messages. The messages and their payloads live in sc (see Scratch),
	// so a warm encode allocates nothing; entry indices are absolute, so a
	// window may start mid-tape.
	Update(t *display.OpTape, from, to int, sc *Scratch) []Message
	// DecodeInput decodes an input-channel message into events.
	DecodeInput(m Message) ([]display.InputEvent, error)
	// ValidateInput walks an input message exactly as DecodeInput does —
	// same accept/reject decision, same stream state left behind — and
	// returns the event count without materializing the events. Callers
	// that discard the decoded events (the simulator's echo path only
	// needs the round trip checked) use it to skip the decode allocations.
	ValidateInput(m Message) (int, error)
	// SetupBytes reports the total session negotiation cost in bytes for
	// this protocol (both directions), the paper's §6.1.1 metric.
	SetupBytes() int
	// ResetSession returns the endpoint to its freshly constructed state
	// without reallocating: caches emptied, directories cleared, stream
	// state and counters zeroed. Every later encode and decode must match
	// a brand-new endpoint's byte for byte; session pools rely on it to
	// hand a departed user's codec pair to a successor.
	ResetSession()
}

// Client is the terminal-side endpoint: it decodes display messages into a
// framebuffer and encodes input events.
type Client interface {
	// Name identifies the protocol.
	Name() string
	// Apply decodes a display-channel message and renders it.
	Apply(m Message) error
	// Framebuffer exposes the client's screen for verification.
	Framebuffer() *display.Framebuffer
	// EncodeInput encodes a batch of input events gathered during one
	// client-side flush interval into input-channel messages written into
	// sc, like Server.Update.
	EncodeInput(events []display.InputEvent, sc *Scratch) []Message
	// ResetSession is Server.ResetSession for the client: a cleared screen
	// and pristine stream state, allocations kept.
	ResetSession()
}

// Scratch is caller-owned reusable encode state: the payload arena and the
// returned message slice both live here, so a steady-state encoder writes
// into memory the caller already owns instead of allocating per call.
// Messages returned from an encode alias Buf — the caller must not reuse
// the Scratch until every message encoded into it has been consumed (for
// the simulator: delivered and applied).
type Scratch struct {
	Buf  []byte
	Msgs []Message
}

// Span marks one message's payload in a Scratch arena by offset. An
// encoder that writes several messages back to back records a span per
// message and slices the payloads only once the arena has stopped growing.
type Span struct {
	Start, End int
	Kind       string
}

// Carve stores the finished arena b in sc and returns one display-channel
// message per span, reusing sc.Msgs.
//
//thinlint:hotpath
func Carve(sc *Scratch, b []byte, spans []Span) []Message {
	sc.Buf = b
	sc.Msgs = sc.Msgs[:0]
	for _, sp := range spans {
		sc.Msgs = append(sc.Msgs, Message{Channel: Display, Kind: sp.Kind, Payload: b[sp.Start:sp.End]})
	}
	return sc.Msgs
}

// ErrTruncated reports a message too short for its advertised structure.
var ErrTruncated = errors.New("proto: truncated message")

// ErrBadMessage reports a structurally invalid message.
var ErrBadMessage = errors.New("proto: malformed message")

// Writer builds binary payloads (little-endian, as RDP does; the X-like
// protocol reuses it since byte order is a connection-negotiated detail).
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with the given capacity hint.
func NewWriter(capHint int) *Writer { return &Writer{buf: make([]byte, 0, capHint)} }

// WriterOver returns a Writer value appending into buf from length zero,
// keeping its capacity — the scratch-encoding form of NewWriter. The
// returned value can live on the caller's stack; take its address to call
// the append methods, and read Bytes back to recover the (possibly grown)
// buffer.
func WriterOver(buf []byte) Writer { return Writer{buf: buf[:0]} }

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// Len reports the current payload size.
func (w *Writer) Len() int { return len(w.buf) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) *Writer { w.buf = append(w.buf, v); return w }

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) *Writer {
	w.buf = binary.LittleEndian.AppendUint16(w.buf, v)
	return w
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) *Writer {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
	return w
}

// I16 appends a little-endian int16.
func (w *Writer) I16(v int16) *Writer { return w.U16(uint16(v)) }

// Raw appends raw bytes.
func (w *Writer) Raw(b []byte) *Writer { w.buf = append(w.buf, b...); return w }

// Zero appends n zero bytes (fixed-size reserved fields, padding).
func (w *Writer) Zero(n int) *Writer {
	w.buf = append(w.buf, make([]byte, n)...)
	return w
}

// Pad4 pads to a 4-byte boundary, X-style.
func (w *Writer) Pad4() *Writer {
	for len(w.buf)%4 != 0 {
		w.buf = append(w.buf, 0)
	}
	return w
}

// Reader parses binary payloads written by Writer.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a payload.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err reports the first decode error (ErrTruncated on overrun).
func (r *Reader) Err() error { return r.err }

// Remaining reports unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.buf) {
		r.err = ErrTruncated
		return false
	}
	return true
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// I16 reads a little-endian int16.
func (r *Reader) I16() int16 { return int16(r.U16()) }

// Raw reads n raw bytes (returned slice aliases the payload).
func (r *Reader) Raw(n int) []byte {
	if n < 0 {
		r.err = ErrBadMessage
		return nil
	}
	if !r.need(n) {
		return nil
	}
	v := r.buf[r.off : r.off+n]
	r.off += n
	return v
}

// Skip discards n bytes.
func (r *Reader) Skip(n int) {
	if r.need(n) {
		r.off += n
	}
}

// Pad4 skips to the next 4-byte boundary.
func (r *Reader) Pad4() {
	for r.off%4 != 0 && r.err == nil {
		r.Skip(1)
	}
}

// Frame headers for the stream transport: 4-byte length + 1-byte channel +
// 1-byte kind-length + kind string, then the payload.
const frameHeader = 6

// WriteMessage frames a message onto a byte stream (net.Conn, net.Pipe).
func WriteMessage(w io.Writer, m Message) error {
	if len(m.Kind) > 255 {
		return fmt.Errorf("proto: kind %q too long", m.Kind)
	}
	hdr := make([]byte, 0, frameHeader+len(m.Kind))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(m.Payload)))
	hdr = append(hdr, byte(m.Channel), byte(len(m.Kind)))
	hdr = append(hdr, m.Kind...)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(m.Payload)
	return err
}

// ReadMessage reads one framed message from a byte stream. A frame whose
// payload exceeds maxPayload bytes, the protocol's largest legal message
// (protos.Opts.MaxMessage), is ErrBadMessage. A stream that ends cleanly
// between frames returns io.EOF; one that ends inside a frame returns
// io.ErrUnexpectedEOF. The payload buffer grows as its bytes arrive, so a
// header that claims more than the stream holds costs only what actually
// arrived.
func ReadMessage(r io.Reader, maxPayload int) (Message, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if int64(n) > int64(maxPayload) {
		return Message{}, fmt.Errorf("%w: frame of %d bytes, over the %d-byte cap", ErrBadMessage, n, maxPayload)
	}
	kindLen := int(hdr[5])
	kind := make([]byte, kindLen)
	if _, err := io.ReadFull(r, kind); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header arrived: the frame was cut short
		}
		return Message{}, err
	}
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return Message{}, err
	}
	if len(payload) < int(n) {
		return Message{}, io.ErrUnexpectedEOF
	}
	return Message{Channel: Channel(hdr[4]), Kind: string(kind), Payload: payload}, nil
}
