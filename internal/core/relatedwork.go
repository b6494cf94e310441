package core

import (
	"fmt"
	"strings"

	"thinbench/internal/metrics"
	"thinbench/internal/proto/vnc"
	"thinbench/internal/simclock"
	"thinbench/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "abl5",
		Title: "Related-work protocols (SLIM, VNC) on the office workload and an animation",
		Paper: "§7: SLIM is 'roughly equivalent in performance to X, placing it still behind RDP and LBX'; VNC is 'yet another network protocol similar to SLIM'.",
		Run:   runAbl5,
	})
}

func runAbl5(cfg Config) (*Result, error) {
	res := &Result{ID: "abl5", Title: "Related-work protocol comparison"}
	// Every implemented protocol, in the order the tables print them.
	protocols := []string{"rdp", "x", "lbx", "slim", "vnc"}

	// Part 1: the office workload across all five protocols.
	ocfg := workload.DefaultOfficeConfig()
	ocfg.Seed = cfg.Seed
	ocfg.TypingChars /= 2
	ocfg.PaintStrokes /= 2
	ocfg.PanelActions /= 2
	ocfg.ReviewScrolls /= 2
	if cfg.Quick {
		ocfg.TypingChars /= 4
		ocfg.PaintStrokes /= 4
		ocfg.PanelActions /= 4
		ocfg.ReviewScrolls /= 4
	}
	tr := workload.OfficeTrace(ocfg)
	table := metrics.NewTable("Protocol", "total bytes", "messages", "avg size")
	totals := map[string]int64{}
	for _, name := range protocols {
		rec, err := replay(tr, name, false)
		if err != nil {
			return nil, err
		}
		label := strings.ToUpper(name)
		tot := rec.Total()
		totals[label] = tot.Bytes
		table.AddRow(label, metrics.FormatBytes(tot.Bytes),
			metrics.FormatBytes(tot.Messages), fmt.Sprintf("%.1f", tot.AvgMessageSize()))
	}
	res.Tables = append(res.Tables, table)
	res.Notef("office bytes relative to RDP: X %.1fx, LBX %.1fx, SLIM %.1fx, VNC %.1fx",
		ratio(totals["X"], totals["RDP"]), ratio(totals["LBX"], totals["RDP"]),
		ratio(totals["SLIM"], totals["RDP"]), ratio(totals["VNC"], totals["RDP"]))
	slimOverX, slimOverLBX := ratio(totals["SLIM"], totals["X"]), ratio(totals["SLIM"], totals["LBX"])
	runnerUp := "RDP" // the heaviest protocol but VNC
	for _, label := range []string{"X", "LBX", "SLIM"} {
		if totals[label] > totals[runnerUp] {
			runnerUp = label
		}
	}
	vncHeaviest := ratio(totals["VNC"], totals[runnerUp])

	// Part 2: the animation stress (the fig5 workload) — the axis where
	// caching separates protocol families.
	span := 30 * simclock.Second
	if cfg.Quick {
		span = 10 * simclock.Second
	}
	anim := workload.AnimationTrace(workload.AnimationConfig{
		Seed: cfg.Seed, Frames: 10, FPS: 20, W: 150, H: 115, X: 200, Y: 150,
		Span: span, Block: 2,
	})
	animTable := metrics.NewTable("Protocol", "steady Mbps")
	for _, name := range protocols {
		rec, err := replay(anim, name, false)
		if err != nil {
			return nil, fmt.Errorf("animation: %w", err)
		}
		mbps := rec.Series().Mbps()
		steady := rec.Series().MeanOver(len(mbps)/3, len(mbps)) * 8 / 1e6
		animTable.AddRow(strings.ToUpper(name), fmt.Sprintf("%.3f", steady))
	}
	res.Tables = append(res.Tables, animTable)
	res.Notef("the cacheless protocols (X, LBX, SLIM, VNC) all pay full or compressed transfers per frame; only RDP's bitmap cache absorbs the loop")
	res.Notef("SLIM lands in X's neighborhood, as §7 reports ('roughly equivalent in performance to X'): its office bytes are %.3fx X's and %.2fx LBX's",
		slimOverX, slimOverLBX)
	res.Notef("VNC is heaviest on the office workload, %.2fx the next heaviest (%s): most of its bytes are damage rectangles holding more than RRE's %d foreground runs, which ship Raw, a byte a pixel",
		vncHeaviest, runnerUp, vnc.MaxRRESubrects)
	res.Claims = []Claim{
		{ID: "abl5.slim_over_x", Statement: "SLIM's office bytes over X's: 'roughly equivalent' to X, within 25% either way",
			Value: slimOverX, Unit: "x", Band: within(0.8, 1.25)},
		{ID: "abl5.slim_over_lbx", Statement: "SLIM's office bytes over LBX's: 'still behind RDP and LBX', above 1",
			Value: slimOverLBX, Unit: "x", Band: above(1)},
		{ID: "abl5.vnc_heaviest", Statement: "VNC's office bytes over the heaviest of the other four protocols: VNC heaviest, above 1",
			Value: vncHeaviest, Unit: "x", Band: above(1)},
	}
	return res, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
