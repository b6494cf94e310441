// Command prototap is the reproduction's protocol tracing tool, named after
// the pcap-based tracer the paper built for its §6 analysis. It replays a
// workload over a chosen remote display protocol and prints the capture
// accounting: per-channel bytes and messages, packetization, VIP savings,
// per-message-kind breakdown, and an optional Mbps time series.
//
// Usage:
//
//	prototap -workload office -proto rdp
//	prototap -workload webpage -proto rdp -series
//	prototap -workload animation -frames 70 -proto x
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"thinbench/internal/proto/protos"
	"thinbench/internal/simclock"
	"thinbench/internal/trace"
	"thinbench/internal/workload"
)

// Bounds on a capture's settings: a GIF frame's delay is 1 to 65,535
// hundredths of a second, and the paper's longest measurement window is
// Figure 2's 600 s. At the largest an animation capture holds 1,000
// pre-rendered 160x143 frames (22.9 MB) and 60,000 frame ticks.
const (
	maxFrames  = 1000
	minFPS     = 100.0 / 65535
	maxFPS     = 100
	maxSpanSec = 600
)

// tapConfig is one capture request, separated from flag parsing so tests
// can pin the tool's output.
type tapConfig struct {
	workload string
	proto    string
	frames   int
	fps      float64
	spanSec  int
	series   bool
	kinds    bool
}

func main() {
	var cfg tapConfig
	flag.StringVar(&cfg.workload, "workload", "office", "workload: office, webpage, animation")
	flag.StringVar(&cfg.proto, "proto", "rdp", "protocol: rdp, x, lbx, vnc, slim")
	flag.IntVar(&cfg.frames, "frames", 10, "animation frame count (animation workload)")
	flag.Float64Var(&cfg.fps, "fps", 20, "animation frame rate")
	flag.IntVar(&cfg.spanSec, "span", 30, "workload span in seconds (webpage/animation)")
	flag.BoolVar(&cfg.series, "series", false, "print the Mbps time series")
	flag.BoolVar(&cfg.kinds, "kinds", false, "print the per-message-kind breakdown")
	flag.Parse()

	if err := tap(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// tap replays the workload through the protocol pair and writes the
// capture accounting. Output is deterministic in the configuration.
func tap(cfg tapConfig, w io.Writer) error {
	tr, err := buildWorkload(cfg.workload, cfg.frames, cfg.fps, cfg.spanSec)
	if err != nil {
		return err
	}
	srv, cli, opts, err := protos.New(cfg.proto)
	if err != nil {
		return err
	}
	rec := trace.NewRecorder()
	if err := workload.Replay(tr, srv, cli, rec, opts); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	fmt.Fprint(w, rec.Summary(fmt.Sprintf("%s over %s", cfg.workload, srv.Name())))

	if cfg.kinds {
		ks := rec.KindStats()
		names := make([]string, 0, len(ks))
		for k := range ks {
			names = append(names, k)
		}
		sort.Slice(names, func(i, j int) bool {
			if ks[names[i]].Bytes != ks[names[j]].Bytes {
				return ks[names[i]].Bytes > ks[names[j]].Bytes
			}
			return names[i] < names[j]
		})
		fmt.Fprintln(w, "  by kind:")
		for _, k := range names {
			fmt.Fprintf(w, "    %-20s %10d bytes %8d messages\n", k, ks[k].Bytes, ks[k].Messages)
		}
	}
	if cfg.series {
		fmt.Fprintln(w, "  Mbps by second:")
		for i, v := range rec.Series().Mbps() {
			fmt.Fprintf(w, "    %4d  %.4f\n", i, v)
		}
	}
	return nil
}

// buildWorkload builds the named workload's trace. It refuses a setting
// the workload reads outside its bound before building anything: a span
// outside 1 to maxSpanSec seconds, a frame count outside 1 to maxFrames,
// or a frame rate outside minFPS to maxFPS.
func buildWorkload(name string, frames int, fps float64, spanSec int) (workload.Trace, error) {
	if (name == "webpage" || name == "animation") && (spanSec < 1 || spanSec > maxSpanSec) {
		return workload.Trace{}, fmt.Errorf("-span %d s outside 1-%d", spanSec, maxSpanSec)
	}
	span := simclock.Duration(spanSec) * simclock.Second
	switch name {
	case "office":
		return workload.OfficeTrace(workload.DefaultOfficeConfig()), nil
	case "webpage":
		cfg := workload.DefaultWebPageConfig()
		cfg.Span = span
		return workload.WebPageTrace(cfg), nil
	case "animation":
		if frames < 1 || frames > maxFrames {
			return workload.Trace{}, fmt.Errorf("-frames %d outside 1-%d", frames, maxFrames)
		}
		if !(fps >= minFPS && fps <= maxFPS) {
			return workload.Trace{}, fmt.Errorf("-fps %v outside %.4f-%d", fps, minFPS, maxFPS)
		}
		return workload.AnimationTrace(workload.AnimationConfig{
			Seed: 7, Frames: frames, FPS: fps,
			W: workload.Figure7FrameW, H: workload.Figure7FrameH,
			X: 100, Y: 100, Span: span, Photo: true,
		}), nil
	default:
		return workload.Trace{}, fmt.Errorf("unknown workload %q", name)
	}
}
