// Animation: the bitmap-cache cliff of Figure 7, measured directly against
// the RDP-like protocol, and the loop-aware eviction policy that removes
// it (the "more intelligent scheme" the paper sketches).
//
//	go run ./examples/animation
package main

import (
	"fmt"
	"log"

	"thinbench/internal/bitmapcache"
	"thinbench/internal/proto/protos"
	"thinbench/internal/proto/rdp"
	"thinbench/internal/simclock"
	"thinbench/internal/trace"
	"thinbench/internal/workload"
)

// loadFor plays an n-frame looping animation over RDP with the given cache
// policy and reports steady-state Mbps.
func loadFor(frames int, policy bitmapcache.Policy) float64 {
	cfg := rdp.DefaultConfig()
	cfg.CachePolicy = policy
	srv := rdp.NewServer(cfg)
	cli := rdp.NewClient(cfg)
	tr := workload.AnimationTrace(workload.AnimationConfig{
		Seed: 7, Frames: frames, FPS: 5,
		W: workload.Figure7FrameW, H: workload.Figure7FrameH,
		X: 100, Y: 100, Span: 60 * simclock.Second, Photo: true,
	})
	rec := trace.NewRecorder()
	if err := workload.Replay(tr, srv, cli, rec, protos.Opts{}); err != nil {
		log.Fatal(err)
	}
	mbps := rec.Series().Mbps()
	return rec.Series().MeanOver(len(mbps)/3, len(mbps)) * 8 / 1e6
}

func main() {
	frameKB := float64(workload.Figure7FrameW*workload.Figure7FrameH) / 1024
	fmt.Printf("looping animation over RDP, %.1f KB frames, 1.5 MB client cache\n\n", frameKB)
	fmt.Printf("%-8s %14s %14s\n", "frames", "LRU (Mbps)", "loop-aware")
	for _, n := range []int{40, 55, 65, 70, 80, 100} {
		fmt.Printf("%-8d %14.3f %14.3f\n", n, loadFor(n, bitmapcache.LRU), loadFor(n, bitmapcache.LoopAware))
	}
	fmt.Println()
	fmt.Println("LRU falls off a cliff once the loop exceeds the cache (paper Fig. 7:")
	fmt.Println("0.01 Mbps through 65 frames, 0.96 above); the loop-aware policy")
	fmt.Println("freezes a resident prefix and keeps most frames hitting.")
}
