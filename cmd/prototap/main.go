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

func buildWorkload(name string, frames int, fps float64, spanSec int) (workload.Trace, error) {
	span := simclock.Duration(spanSec) * simclock.Second
	switch name {
	case "office":
		return workload.OfficeTrace(workload.DefaultOfficeConfig()), nil
	case "webpage":
		cfg := workload.DefaultWebPageConfig()
		cfg.Span = span
		return workload.WebPageTrace(cfg), nil
	case "animation":
		return workload.AnimationTrace(workload.AnimationConfig{
			Seed: 7, Frames: frames, FPS: fps,
			W: workload.Figure7FrameW, H: workload.Figure7FrameH,
			X: 100, Y: 100, Span: span, Photo: true,
		}), nil
	default:
		return workload.Trace{}, fmt.Errorf("unknown workload %q", name)
	}
}
