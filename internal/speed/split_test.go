package speed

import (
	"reflect"
	"runtime"
	"testing"

	"thinbench/internal/simclock"
)

// record builds a profile record of n objects of size bytes whose stack,
// innermost first, is the entry of each function in fns.
func record(size, n int64, fns ...any) runtime.MemProfileRecord {
	r := runtime.MemProfileRecord{AllocBytes: size * n, AllocObjects: n}
	for i, fn := range fns {
		r.Stack0[i] = reflect.ValueOf(fn).Pointer()
	}
	return r
}

// TestSplitLayers: a 16-byte record goes to the pool whatever its stack,
// a larger one to the layer of its innermost internal frame, or to
// "other" with none, and a record made under layerSums is skipped.
func TestSplitLayers(t *testing.T) {
	got := splitLayers([]runtime.MemProfileRecord{
		record(16, 3, simclock.NewEngine),
		record(16, 1, reflect.ValueOf, simclock.NewRand),
		record(24, 2, reflect.ValueOf, simclock.NewEngine, Measure),
		record(8, 4, simclock.NewRand),
		record(32, 1, reflect.ValueOf),
		record(24, 5, simclock.NewEngine, layerSums),
		record(16, 7, layerSums),
	})
	want := map[string]LayerAllocs{
		class16:    {Allocs: 4, AllocBytes: 64},
		"simclock": {Allocs: 6, AllocBytes: 80},
		"other":    {Allocs: 1, AllocBytes: 32},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("split %v, want %v", got, want)
	}
}
