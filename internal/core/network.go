package core

import (
	"fmt"
	"strings"

	"thinbench/internal/metrics"
	"thinbench/internal/netsim"
	"thinbench/internal/proto/protos"
	"thinbench/internal/simclock"
	"thinbench/internal/trace"
	"thinbench/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "tab4",
		Title: "Session setup cost (bytes exchanged)",
		Paper: "45,328 bytes TSE vs 16,312 bytes Linux/X; idle connections exchange nothing.",
		Run:   runTab4,
	})
	register(Experiment{
		ID:    "tab5",
		Title: "Protocol comparison on the office workload (bytes/messages per channel)",
		Paper: "RDP 888,239 B / 1,841 msgs; X 6,250,888 / 26,923; LBX 3,197,185 / 36,615. Avg sizes 482 / 232 / 87.",
		Run:   runTab5,
	})
	register(Experiment{
		ID:    "tab6",
		Title: "VIP header-elision savings on the office workload",
		Paper: "Omitting the 20-byte IP header saves 4.65% (RDP), 9.15% (X), 22.90% (LBX).",
		Run:   runTab6,
	})
	register(Experiment{
		ID:    "fig4",
		Title: "Web page network load: marquee+banner vs each alone (RDP)",
		Paper: "Combined 1.60 Mbps sustained (plateaus 1.89); marquee alone 0.07; banner alone 0.01 — wildly non-linear.",
		Run:   runFig4,
	})
	register(Experiment{
		ID:    "fig5",
		Title: "10-frame 20 Hz animated GIF over X, LBX, RDP",
		Paper: "X transfers the full bitmap every frame; RDP's cache absorbs the loop after one pass.",
		Run:   runFig5,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Ping RTT vs offered load on a 10 Mbps segment",
		Paper: "RTT flat and small until saturation; ~55 ms at 9.6 Mbps.",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "RTT variance (jitter) vs offered load",
		Paper: "Variance near zero until saturation, then explodes.",
		Run:   runFig9,
	})
}

func runTab4(cfg Config) (*Result, error) {
	res := &Result{ID: "tab4", Title: "Session setup cost"}
	table := metrics.NewTable("Protocol", "Setup bytes")
	setup := map[string]float64{}
	for _, p := range []struct{ label, name string }{{"RDP (TSE)", "rdp"}, {"X (Linux)", "x"}, {"LBX", "lbx"}} {
		srv, _, _, err := protos.New(p.name)
		if err != nil {
			return nil, err
		}
		table.AddRow(p.label, metrics.FormatBytes(int64(srv.SetupBytes())))
		setup[p.name] = float64(srv.SetupBytes())
	}
	res.Tables = append(res.Tables, table)
	res.Claims = []Claim{
		{ID: "tab4.rdp_setup", Statement: "an RDP session's setup exchange", Value: setup["rdp"], Unit: "B", Band: exactly(45328), Paper: 45328},
		{ID: "tab4.x_setup", Statement: "an X session's setup exchange", Value: setup["x"], Unit: "B", Band: exactly(16312), Paper: 16312},
	}
	res.Notef("idle-state network load is zero on all three protocols: no traffic without user activity")
	return res, nil
}

// replay plays tr over the registry's endpoint pair for the named protocol
// and returns the capture. The pair flushes within its registry windows,
// or batch by batch when framewise is set.
func replay(tr workload.Trace, name string, framewise bool) (*trace.Recorder, error) {
	srv, cli, opts, err := protos.New(name)
	if err != nil {
		return nil, err
	}
	if framewise {
		opts = protos.Opts{}
	}
	rec := trace.NewRecorder()
	if err := workload.Replay(tr, srv, cli, rec, opts); err != nil {
		return nil, fmt.Errorf("%s: %w", strings.ToUpper(name), err)
	}
	return rec, nil
}

// captureOffice replays the office workload over RDP, X and LBX, in that
// order, each flushing within its registry windows.
func captureOffice(cfg Config) ([]*trace.Recorder, error) {
	ocfg := workload.DefaultOfficeConfig()
	ocfg.Seed = cfg.Seed
	if cfg.Quick {
		ocfg.TypingChars /= 8
		ocfg.PaintStrokes /= 8
		ocfg.PanelActions /= 8
	}
	tr := workload.OfficeTrace(ocfg)
	var recs []*trace.Recorder
	for _, name := range []string{"rdp", "x", "lbx"} {
		rec, err := replay(tr, name, false)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func runTab5(cfg Config) (*Result, error) {
	res := &Result{ID: "tab5", Title: "Protocol comparison: office workload"}
	runs, err := captureOffice(cfg)
	if err != nil {
		return nil, err
	}
	table := metrics.NewTable("", "RDP", "X", "LBX")
	row := func(label string, f func(r *trace.Recorder) string) {
		cells := []string{label}
		for _, r := range runs {
			cells = append(cells, f(r))
		}
		table.AddRow(cells...)
	}
	row("input bytes", func(r *trace.Recorder) string { return metrics.FormatBytes(r.Input().Bytes) })
	row("display bytes", func(r *trace.Recorder) string { return metrics.FormatBytes(r.Display().Bytes) })
	row("total bytes", func(r *trace.Recorder) string { return metrics.FormatBytes(r.Total().Bytes) })
	row("input messages", func(r *trace.Recorder) string { return metrics.FormatBytes(r.Input().Messages) })
	row("display messages", func(r *trace.Recorder) string { return metrics.FormatBytes(r.Display().Messages) })
	row("total messages", func(r *trace.Recorder) string { return metrics.FormatBytes(r.Total().Messages) })
	row("avg message size", func(r *trace.Recorder) string { return fmt.Sprintf("%.2f", r.Total().AvgMessageSize()) })
	res.Tables = append(res.Tables, table)

	rdpB := runs[0].Total().Bytes
	xB := runs[1].Total().Bytes
	lbxB := runs[2].Total().Bytes
	res.Notef("byte ratios: X/RDP = %.2f (paper 7.0), LBX/RDP = %.2f (paper 3.6), LBX/X = %.2f (paper 0.51)",
		float64(xB)/float64(rdpB), float64(lbxB)/float64(rdpB), float64(lbxB)/float64(xB))
	res.Notef("messages are protocol messages here; the paper counted TCP segments, so absolute counts differ while orderings hold")
	res.Claims = []Claim{
		{ID: "tab5.byte_order", Statement: "total bytes order RDP < LBX < X: the smaller gap",
			Value: float64(min(lbxB-rdpB, xB-lbxB)), Unit: "B", Band: above(0)},
		{ID: "tab5.x_over_rdp", Statement: "X's total bytes over RDP's: RDP wins decisively",
			Value: float64(xB) / float64(rdpB), Unit: "x", Band: atLeast(3), Paper: 7.0},
	}
	return res, nil
}

func runTab6(cfg Config) (*Result, error) {
	res := &Result{ID: "tab6", Title: "VIP header-elision savings"}
	runs, err := captureOffice(cfg)
	if err != nil {
		return nil, err
	}
	table := metrics.NewTable("", "RDP", "X", "LBX")
	normal := []string{"normal bytes"}
	vip := []string{"bytes w/ VIP"}
	savings := []string{"savings"}
	var pct []float64 // RDP's, X's and LBX's savings
	for _, r := range runs {
		total := r.Total().Bytes
		saved, frac := r.VIPSavings()
		normal = append(normal, metrics.FormatBytes(total))
		vip = append(vip, metrics.FormatBytes(total-saved))
		savings = append(savings, fmt.Sprintf("%.2f%%", frac*100))
		pct = append(pct, frac*100)
	}
	table.AddRow(normal...)
	table.AddRow(vip...)
	table.AddRow(savings...)
	res.Tables = append(res.Tables, table)
	res.Notef("paper savings: RDP 4.65%%, X 9.15%%, LBX 22.90%% — smallest average message benefits most")
	res.Claims = []Claim{
		{ID: "tab6.x_over_rdp", Statement: "X's saving over RDP's: X's smaller average message benefits more",
			Value: pct[1] / pct[0], Unit: "x", Band: above(1), Paper: 9.15 / 4.65},
		{ID: "tab6.lbx_over_x", Statement: "LBX's saving over X's: LBX's average message, the smallest, benefits most",
			Value: pct[2] / pct[1], Unit: "x", Band: above(1), Paper: 22.90 / 9.15},
		{ID: "tab6.rdp_saving", Statement: "RDP's saving from eliding the IP header",
			Value: pct[0], Unit: "%", Band: unbanded, Paper: 4.65},
		{ID: "tab6.lbx_saving", Statement: "LBX's saving from eliding the IP header",
			Value: pct[2], Unit: "%", Band: unbanded, Paper: 22.90},
	}
	return res, nil
}

// replayRDPWeb captures a web-page trace over RDP, adds its load series to
// res and returns its steady-state average in Mbps.
func replayRDPWeb(wcfg workload.WebPageConfig, label string, res *Result) (float64, error) {
	rec, err := replay(workload.WebPageTrace(wcfg), "rdp", true)
	if err != nil {
		return 0, err
	}
	mbps := rec.Series().Mbps()
	x := make([]float64, len(mbps))
	for i := range mbps {
		x[i] = float64(i)
	}
	res.Series = append(res.Series, Series{
		Label: label, XLabel: "time (sec)", YLabel: "network load (Mbps)",
		X: x, Y: mbps,
	})
	// Steady-state average, skipping the first loop's cold misses.
	avg := rec.Series().MeanOver(len(mbps)/4, len(mbps)) * 8 / 1e6
	res.Notef("%s: steady-state average %.3f Mbps", label, avg)
	return avg, nil
}

func runFig4(cfg Config) (*Result, error) {
	res := &Result{ID: "fig4", Title: "Synthetic web page load over RDP"}
	base := workload.DefaultWebPageConfig()
	if cfg.Quick {
		base.Span = 40 * simclock.Second
	}
	combined := base
	marqueeOnly := base
	marqueeOnly.Banner = false
	bannerOnly := base
	bannerOnly.Marquee = false
	var avg []float64 // the combined page's, the marquee's and the banner's
	for _, v := range []struct {
		label string
		cfg   workload.WebPageConfig
	}{
		{"marquee and banner", combined},
		{"marquee only", marqueeOnly},
		{"banner only", bannerOnly},
	} {
		mbps, err := replayRDPWeb(v.cfg, v.label, res)
		if err != nil {
			return nil, err
		}
		avg = append(avg, mbps)
	}
	res.Notef("paper: combined 1.60 Mbps sustained / 1.89 plateaus; marquee 0.07; banner 0.01")
	res.Notef("five users on such a page saturate 10 Mbps Ethernet; the non-linearity is the bitmap cache overflowing")
	res.Claims = []Claim{
		{ID: "fig4.nonlinear", Statement: "the combined page's load over the sum of the marquee's and the banner's alone: the two overflow the cache only together",
			Value: avg[0] / (avg[1] + avg[2]), Unit: "x", Band: atLeast(5), Paper: 1.60 / (0.07 + 0.01)},
		{ID: "fig4.marquee", Statement: "the marquee's steady-state load alone",
			Value: avg[1], Unit: "Mbps", Band: unbanded, Paper: 0.07},
	}
	return res, nil
}

func runFig5(cfg Config) (*Result, error) {
	res := &Result{ID: "fig5", Title: "10-frame 20 Hz animation over X, LBX, RDP"}
	span := 90 * simclock.Second
	if cfg.Quick {
		span = 15 * simclock.Second
	}
	// A 50 ms delay GIF with 10 frames, sized like a large ad graphic.
	// GIF art is partially compressible (dithered flat regions), which is
	// what separates LBX from X in the paper's figure.
	anim := workload.AnimationConfig{
		Seed: cfg.Seed, Frames: 10, FPS: 20, W: 150, H: 115, X: 200, Y: 150,
		Span: span, Block: 2,
	}
	tr := workload.AnimationTrace(anim)
	var rate []float64 // steady-state Mbps of X, LBX and RDP
	for _, name := range []string{"x", "lbx", "rdp"} {
		rec, err := replay(tr, name, true)
		if err != nil {
			return nil, err
		}
		label := strings.ToUpper(name)
		mbps := rec.Series().Mbps()
		x := make([]float64, len(mbps))
		for i := range mbps {
			x[i] = float64(i)
		}
		res.Series = append(res.Series, Series{
			Label: label, XLabel: "time (sec)", YLabel: "network load (Mbps)",
			X: x, Y: mbps,
		})
		skip := len(mbps) / 4
		rate = append(rate, rec.Series().MeanOver(skip, len(mbps))*8/1e6)
		res.Notef("%s: steady-state %.3f Mbps", label, rate[len(rate)-1])
	}
	res.Notef("paper: X retransfers every frame (~2.5-3 Mbps); LBX compresses but cannot cache; RDP swaps from cache")
	res.Claims = []Claim{
		{ID: "fig5.x_rate", Statement: "X's steady-state rate: it retransfers every frame, ~2.5-3 Mbps in the paper",
			Value: rate[0], Unit: "Mbps", Band: within(2.5, 3)},
		{ID: "fig5.lbx_over_x", Statement: "LBX's steady-state rate over X's: compression without a cache, below X",
			Value: rate[1] / rate[0], Unit: "x", Band: atMost(1)},
		{ID: "fig5.rdp_over_lbx", Statement: "RDP's steady-state rate over LBX's: swapped from its cache, far below",
			Value: rate[2] / rate[1], Unit: "x", Band: atMost(0.1)},
	}
	return res, nil
}

func fig89Loads() []float64 {
	return []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9.6}
}

func runFig8(cfg Config) (*Result, error) {
	res := &Result{ID: "fig8", Title: "RTT vs offered load"}
	span := 60 * simclock.Second
	if cfg.Quick {
		span = 10 * simclock.Second
	}
	points := netsim.SweepLoadLatency(fig89Loads(), span, cfg.Seed)
	var x, y []float64
	for _, p := range points {
		x = append(x, p.OfferedMbps)
		y = append(y, p.MeanRTTms)
	}
	res.Series = append(res.Series, Series{
		Label: fmt.Sprintf("%d byte packets", netsim.ProbeBytes), XLabel: "offered load (Mbps)", YLabel: "round-trip time (msec)",
		X: x, Y: y,
	})
	res.Notef("RTT at 9.6 Mbps: %.1f ms (paper ~55 ms)", y[len(y)-1])
	res.Claims = []Claim{
		{ID: "fig8.idle_rtt", Statement: "round-trip time on the idle segment is sub-millisecond", Value: y[0], Unit: "ms", Band: atMost(1)},
		{ID: "fig8.saturated_rtt", Statement: "round-trip time at 9.6 Mbps offered", Value: y[len(y)-1], Unit: "ms", Band: within(15, 150), Paper: 55},
	}
	return res, nil
}

func runFig9(cfg Config) (*Result, error) {
	res := &Result{ID: "fig9", Title: "RTT variance vs offered load"}
	span := 60 * simclock.Second
	if cfg.Quick {
		span = 10 * simclock.Second
	}
	points := netsim.SweepLoadLatency(fig89Loads(), span, cfg.Seed+1)
	var x, y []float64
	for _, p := range points {
		x = append(x, p.OfferedMbps)
		y = append(y, p.VarianceMs)
	}
	res.Series = append(res.Series, Series{
		Label: fmt.Sprintf("%d byte packets", netsim.ProbeBytes), XLabel: "offered load (Mbps)", YLabel: "RTT variance (msec^2)",
		X: x, Y: y,
	})
	res.Notef("jitter stays near zero until saturation, then explodes: variance %.2f at %.1f Mbps", y[len(y)-1], x[len(x)-1])
	res.Claims = []Claim{
		{ID: "fig9.jitter_growth", Statement: "RTT variance at 9.6 Mbps over its value at 1 Mbps: it explodes near saturation",
			Value: y[len(y)-1] / y[1], Unit: "x", Band: atLeast(20)},
	}
	return res, nil
}
