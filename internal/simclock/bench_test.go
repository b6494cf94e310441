package simclock

import "testing"

// BenchmarkCalendarPushPop measures the calendar queue's steady-state
// schedule/dispatch cycle at a stable pending population, the regime every
// simulation run spends nearly all its time in. The pointer-free bucket
// entries and the engine's event free list should keep the cycle
// allocation-free; bucket growth and rebuilds amortize to near zero.
func BenchmarkCalendarPushPop(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine()
	fn := func(now Time) {}
	const population = 512
	for i := 0; i < population; i++ {
		eng.At(Time(i*13), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.At(eng.Now()+Time(population*13), fn)
		eng.Step()
	}
}
