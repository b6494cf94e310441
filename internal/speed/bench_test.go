package speed

import "testing"

// BenchmarkWorkloads runs each canonical speed workload end to end, one
// sub-benchmark apiece, the profiling entry point for the simulator's hot
// path: `go test -bench Workloads/bigfleet -cpuprofile cpu.pprof` shows
// what that workload of a BENCH_speed run spends its time on.
func BenchmarkWorkloads(b *testing.B) {
	for _, w := range Workloads(false) {
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := w.Run(1999, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
