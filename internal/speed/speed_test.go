package speed_test

import (
	"reflect"
	"testing"

	"thinbench/internal/speed"
)

// No test here may call t.Parallel: Measure's allocation counting reads
// process-global MemStats.

// TestWorkloadsSmoke runs every canonical quick workload once and checks
// it actually exercises the simulator: a workload that dispatches zero
// events is timing an empty loop, and the speed numbers it reports are
// fiction.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range speed.Workloads(true) {
		events, probes, err := w.Run(1999, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if events == 0 {
			t.Fatalf("%s: workload dispatched zero simulator events", w.Name)
		}
		if (probes > 0) != (w.Name == "gated") {
			t.Fatalf("%s: %d probe events; only gated places by probes", w.Name, probes)
		}
		again, againProbes, err := w.Run(1999, 1)
		if err != nil {
			t.Fatalf("%s (rerun): %v", w.Name, err)
		}
		if again != events || againProbes != probes {
			t.Fatalf("%s: event counts not deterministic: %d+%d then %d+%d", w.Name, events, probes, again, againProbes)
		}
	}
}

// TestMeasureAllocsStable is the estimator's own check: the golden
// ratchet diffs raw allocation counts and bytes, in total and per layer,
// so Measure must report the same of each every time it measures the
// same workload. A GC cycle inside a counted window moves them by a few
// runtime-internal allocations, which is why Measure switches the
// collector off there.
func TestMeasureAllocsStable(t *testing.T) {
	if speed.RaceEnabled {
		t.Skip("the race detector's own allocations vary run to run")
	}
	var fleet speed.Workload
	for _, w := range speed.Workloads(false) {
		if w.Name == "fleet" {
			fleet = w
		}
	}
	var first speed.Report
	for i := 0; i < 5; i++ {
		r, err := speed.Measure(fleet, 1999, 1)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = r
		} else if r.Allocs != first.Allocs || r.AllocBytes != first.AllocBytes {
			t.Fatalf("measure %d: fleet allocs %d (%d B), first measure %d (%d B)",
				i, r.Allocs, r.AllocBytes, first.Allocs, first.AllocBytes)
		} else if !reflect.DeepEqual(r.Layers, first.Layers) {
			t.Fatalf("measure %d: fleet layers %v, first measure %v", i, r.Layers, first.Layers)
		}
	}
}

// TestLayersCoverTheRun: the layer split accounts for the run the totals
// count. Its bytes sum to the counted bytes within 1 KB, and it holds
// fewer allocations, never more: the profile sees a 16-byte
// tiny-allocator block where the totals do, but not the tiny allocations
// packed into a block already open. Which layer opened a block depends on
// its neighbours, so the split pools every 16-byte record as "class16"
// and the named layers count only what the profile records one for one.
// The server layer, which lays out every echo sample, is among them.
func TestLayersCoverTheRun(t *testing.T) {
	if speed.RaceEnabled {
		t.Skip("a race build measures no layers")
	}
	cont1 := speed.Workloads(true)[0]
	r, err := speed.Measure(cont1, 1999, 1)
	if err != nil {
		t.Fatal(err)
	}
	var allocs, bytes uint64
	for _, l := range r.Layers {
		allocs += l.Allocs
		bytes += l.AllocBytes
	}
	if allocs > r.Allocs || bytes+1024 < r.AllocBytes || bytes > r.AllocBytes+1024 {
		t.Fatalf("layers hold %d allocations of %d B; the counted run %d of %d B (layers %v)",
			allocs, bytes, r.Allocs, r.AllocBytes, r.Layers)
	}
	if r.Layers["server"].AllocBytes == 0 {
		t.Fatalf("no server layer in %v", r.Layers)
	}
}
