// Package protos is the registry of remote display protocol
// implementations: one constructor keyed by the protocol's short name, so
// that every consumer — the paper's protocol experiments, the shared-server
// contention model, the trace tools, the TCP streamer — builds endpoint
// pairs and flush windows the same way instead of each keeping its own
// table. Only a caller that sets a codec option or reads codec statistics
// (the bitmap-cache studies) constructs a codec directly.
//
// It lives beside the proto core rather than inside it because the core is
// imported by every codec; the registry imports every codec.
package protos

import (
	"fmt"

	"thinbench/internal/bitmapcache"
	"thinbench/internal/display"
	"thinbench/internal/proto"
	"thinbench/internal/proto/lbx"
	"thinbench/internal/proto/rdp"
	"thinbench/internal/proto/slim"
	"thinbench/internal/proto/vnc"
	"thinbench/internal/proto/xwire"
	"thinbench/internal/simclock"
)

// Opts carries each protocol's characteristic client/server flushing
// behavior, the windows trace replay (workload.Replay) batches within,
// and the largest message it sends.
type Opts struct {
	// InputCoalesce merges input batches closer together than this into
	// one EncodeInput call. The TSE client coalesces aggressively and
	// samples motion; X flushes at event-queue granularity.
	InputCoalesce simclock.Duration
	// DisplayCoalesce merges display batches within the window into one
	// Update call: TSE's display driver aggregates damage on a timer and
	// ships many orders per PDU, while X requests flow individually.
	DisplayCoalesce simclock.Duration
	// MaxMessage is the largest payload, display or input, either
	// endpoint puts on the wire, so a stream reader (proto.ReadMessage)
	// refuses a longer frame: the codec's worst-case encode of one full
	// screen, or its largest input message where that is larger.
	MaxMessage int
}

// screenPixels is the size in bytes of one full screen: every endpoint
// draws on the typical screen at one byte a pixel.
const screenPixels = display.TypicalScreenW * display.TypicalScreenH

// Names lists the registered protocol names in canonical order.
func Names() []string { return []string{"rdp", "x", "lbx", "vnc", "slim"} }

// New builds a fresh server/client endpoint pair for the named protocol,
// rdp's with the TSE client's LRU cache, and its flushing behavior.
func New(name string) (proto.Server, proto.Client, Opts, error) {
	switch name {
	case "rdp":
		// The TSE client samples the pointer 1 in 8 instead of forwarding
		// every motion report, and flushes input lazily: the paper's own
		// table implies one input PDU per ~0.5 s of activity (736
		// messages carrying ~17 events each). Its display driver
		// aggregates damage for a second before shipping order PDUs.
		//
		// TPKT's 16-bit length caps a real PDU at 65,535 bytes, but the
		// model ships each update as one PDU. One full screen of run-free
		// pixels is a 14-byte PDU header, an 11-byte CacheBitmap order
		// with the pixels and an RLE control byte per 128 of them, and an
		// 11-byte MemBlt.
		return rdp.NewServer(bitmapcache.LRU), rdp.NewClient(), Opts{
			InputCoalesce:   500 * simclock.Millisecond,
			DisplayCoalesce: simclock.Second,
			MaxMessage:      14 + 11 + screenPixels + (screenPixels+127)/128 + 11,
		}, nil
	case "x":
		// Core X11 without BIG-REQUESTS caps a request at 4 x 65,535
		// bytes, but the model puts a full-screen image in one PutImage:
		// a 24-byte request header and the pixels.
		return xwire.NewServer(), xwire.NewClient(), Opts{
			MaxMessage: 24 + screenPixels,
		}, nil
	case "lbx":
		// LBX proxies X with modest batching of the input stream. Its
		// display messages are chunks of at most lbx.ChunkBytes, so its
		// largest message is an input pack of 255 events: a 2-byte header
		// and 5 bytes an absolute motion.
		return lbx.NewServer(), lbx.NewClient(), Opts{
			InputCoalesce: 75 * simclock.Millisecond,
			MaxMessage:    max(lbx.ChunkBytes, 2+255*5),
		}, nil
	case "vnc":
		// VNC clients request updates at a frame cadence; damage
		// aggregates between requests. A full screen is one rectangle, at
		// its largest Raw (RRE stops at vnc.MaxRRESubrects runs): a 4-byte
		// update header, a 12-byte rectangle header and the pixels.
		return vnc.NewServer(), vnc.NewClient(), Opts{
			DisplayCoalesce: 100 * simclock.Millisecond,
			MaxMessage:      4 + 12 + screenPixels,
		}, nil
	case "slim":
		// A full screen is one SET: a 9-byte command header and the
		// pixels.
		return slim.NewServer(), slim.NewClient(), Opts{
			MaxMessage: 9 + screenPixels,
		}, nil
	default:
		return nil, nil, Opts{}, fmt.Errorf("protos: unknown protocol %q", name)
	}
}
