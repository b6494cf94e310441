package simclock

import (
	"strconv"
	"testing"
)

// BenchmarkQueuePushPop measures the event queue's steady-state
// schedule/dispatch cycle at a stable pending population. A server run
// holds a few dozen pending events (an echo_steady machine averages 42);
// 512 is the larger population the queue was once tuned for, and the
// heap's O(log n) sift shows there. The pointer-free heap entries and the
// engine's event free list keep the cycle allocation-free at both sizes.
func BenchmarkQueuePushPop(b *testing.B) {
	for _, population := range []int{48, 512} {
		b.Run("pending="+strconv.Itoa(population), func(b *testing.B) {
			b.ReportAllocs()
			eng := NewEngine()
			fn := func(Time, int, int) {}
			for i := 0; i < population; i++ {
				eng.At(Time(i*13), fn, 0, 0)
			}
			// One turnover of the pending set grows the heap, the slot
			// table and the free lists to the sizes the timed loop keeps.
			for i := 0; i < population; i++ {
				eng.At(eng.Now()+Time(population*13), fn, 0, 0)
				eng.Step()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.At(eng.Now()+Time(population*13), fn, 0, 0)
				eng.Step()
			}
		})
	}
}
