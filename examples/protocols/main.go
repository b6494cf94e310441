// Protocols: replay one office-application session over all three remote
// display protocols and print prototap capture summaries — the §6.1.2
// comparison as a program.
//
//	go run ./examples/protocols
package main

import (
	"fmt"
	"log"

	"thinbench/internal/proto/protos"
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

	var totals []int64
	for _, name := range []string{"rdp", "x", "lbx"} {
		srv, cli, opts, err := protos.New(name)
		if err != nil {
			log.Fatal(err)
		}
		rec := trace.NewRecorder()
		if err := workload.Replay(tr, srv, cli, rec, opts); err != nil {
			log.Fatal(err)
		}
		fmt.Print(rec.Summary(srv.Name()))
		fmt.Println()
		totals = append(totals, rec.Total().Bytes)
	}
	fmt.Printf("byte ratios: X/RDP = %.1f, LBX/RDP = %.1f (paper: 7.0 and 3.6)\n",
		float64(totals[1])/float64(totals[0]), float64(totals[2])/float64(totals[0]))
	fmt.Println("every client rendered the identical final screen from its own wire format")
}
