package sizing

import (
	"fmt"
	"testing"

	"thinbench/internal/server"
	"thinbench/internal/simclock"
)

// probeSink keeps the benchmarked probe's result live.
var probeSink server.Result

// BenchmarkProbe measures one machine probe end to end, the unit of work
// behind capacity search, lataware placement, admission and shedding:
// building a 48 MB developer machine (the probe machine of the benchmark's
// gated office day) and running its population for a 2 s span. At one
// user the machine's set-up dominates; at ten its simulation does.
func BenchmarkProbe(b *testing.B) {
	srv := DefaultServer()
	srv.PhysicalKB = 48 * 1024
	for _, n := range []int{1, 5, 10} {
		cfg := ProbeConfig(srv, Developer(), n, 2*simclock.Second, 1999)
		b.Run(fmt.Sprintf("users=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				res, _, err := EvaluateConfig(nil, cfg)
				if err != nil {
					b.Fatal(err)
				}
				probeSink = res
			}
		})
	}
}
