// Typing: the paper's Figure 3 measurement — a 20 Hz repeating key
// against a growing pile of CPU-bound "sink" processes — and its SVR4
// ablation, run through the public API at the paper's measurement
// lengths: watch the three schedulers diverge.
//
//	go run ./examples/typing
package main

import (
	"fmt"
	"log"

	"thinbench"
)

func main() {
	cfg := thinbench.DefaultConfig()
	for _, id := range []string{"fig3", "abl2"} {
		r, err := thinbench.Run(id, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(r.Render())
	}
	fmt.Println("the SVR4 interactive class (Evans et al. 1993) keeps stalls flat —")
	fmt.Println("the fix the paper laments no Unix kernel of its day had adopted")
}
