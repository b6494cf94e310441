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
// behavior, the windows trace replay (workload.Replay) batches within.
type Opts struct {
	// InputCoalesce merges input batches closer together than this into
	// one EncodeInput call. The TSE client coalesces aggressively and
	// samples motion; X flushes at event-queue granularity.
	InputCoalesce simclock.Duration
	// DisplayCoalesce merges display batches within the window into one
	// Update call: TSE's display driver aggregates damage on a timer and
	// ships many orders per PDU, while X requests flow individually.
	DisplayCoalesce simclock.Duration
}

// Names lists the registered protocol names in canonical order.
func Names() []string { return []string{"rdp", "x", "lbx", "vnc", "slim"} }

// New builds a fresh server/client endpoint pair for the named protocol
// with its default configuration and flushing behavior.
func New(name string) (proto.Server, proto.Client, Opts, error) {
	switch name {
	case "rdp":
		// The TSE client samples the pointer 1 in 8 instead of forwarding
		// every motion report, and flushes input lazily: the paper's own
		// table implies one input PDU per ~0.5 s of activity (736
		// messages carrying ~17 events each). Its display driver
		// aggregates damage for a second before shipping order PDUs.
		cfg := rdp.DefaultConfig()
		cfg.MotionSample = 8
		return rdp.NewServer(cfg), rdp.NewClient(cfg), Opts{
			InputCoalesce:   500 * simclock.Millisecond,
			DisplayCoalesce: simclock.Second,
		}, nil
	case "x":
		return xwire.NewServer(), xwire.NewClient(display.TypicalScreenW, display.TypicalScreenH), Opts{}, nil
	case "lbx":
		// LBX proxies X with modest batching of the input stream.
		return lbx.NewServer(lbx.DefaultConfig()), lbx.NewClient(lbx.DefaultConfig()), Opts{
			InputCoalesce: 75 * simclock.Millisecond,
		}, nil
	case "vnc":
		// VNC clients request updates at a frame cadence; damage
		// aggregates between requests.
		return vnc.NewServer(vnc.DefaultConfig()), vnc.NewClient(vnc.DefaultConfig()), Opts{
			DisplayCoalesce: 100 * simclock.Millisecond,
		}, nil
	case "slim":
		return slim.NewServer(slim.DefaultConfig()), slim.NewClient(slim.DefaultConfig()), Opts{}, nil
	default:
		return nil, nil, Opts{}, fmt.Errorf("protos: unknown protocol %q", name)
	}
}
