// Protocols: replay one office-application session over all three remote
// display protocols and print prototap capture summaries — the §6.1.2
// comparison as a program.
//
//	go run ./examples/protocols
package main

import (
	"fmt"
	"log"

	"thinbench/internal/display"
	"thinbench/internal/proto"
	"thinbench/internal/proto/lbx"
	"thinbench/internal/proto/rdp"
	"thinbench/internal/proto/xwire"
	"thinbench/internal/simclock"
	"thinbench/internal/trace"
	"thinbench/internal/workload"
)

func main() {
	cfg := workload.DefaultOfficeConfig()
	cfg.TypingChars = 600
	cfg.PaintStrokes = 25
	cfg.PanelActions = 8
	cfg.ReviewScrolls = 75
	tr := workload.OfficeTrace(cfg)
	fmt.Printf("office workload: %d display ops, %d input events over %.0fs\n\n",
		tr.Ops(), tr.Events(), tr.Duration().Seconds())

	rdpCfg := rdp.DefaultConfig()
	rdpCfg.MotionSample = 8
	runs := []struct {
		srv  proto.Server
		cli  proto.Client
		opts workload.ReplayOpts
	}{
		{rdp.NewServer(rdpCfg), rdp.NewClient(rdpCfg), workload.ReplayOpts{
			InputCoalesce: 500 * simclock.Millisecond, DisplayCoalesce: simclock.Second}},
		{xwire.NewServer(), xwire.NewClient(display.TypicalScreenW, display.TypicalScreenH), workload.ReplayOpts{}},
		{lbx.NewServer(lbx.DefaultConfig()), lbx.NewClient(lbx.DefaultConfig()), workload.ReplayOpts{
			InputCoalesce: 75 * simclock.Millisecond}},
	}
	var totals []int64
	for _, r := range runs {
		rec := trace.NewRecorder()
		if err := workload.Replay(tr, r.srv, r.cli, rec, r.opts); err != nil {
			log.Fatal(err)
		}
		fmt.Print(rec.Summary(r.srv.Name()))
		fmt.Println()
		totals = append(totals, rec.Total().Bytes)
	}
	fmt.Printf("byte ratios: X/RDP = %.1f, LBX/RDP = %.1f (paper: 7.0 and 3.6)\n",
		float64(totals[1])/float64(totals[0]), float64(totals[2])/float64(totals[0]))
	fmt.Println("every client rendered the identical final screen from its own wire format")
}
