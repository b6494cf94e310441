package simclock

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestTimeArithmetic(t *testing.T) {
	var t0 Time
	t1 := t0.Add(5 * Millisecond)
	if t1 != Time(5000) {
		t.Fatalf("Add: got %d, want 5000", t1)
	}
	if d := t1.Sub(t0); d != 5*Millisecond {
		t.Fatalf("Sub: got %v, want 5ms", d)
	}
	if s := Time(1500000).Seconds(); s != 1.5 {
		t.Fatalf("Seconds: got %v, want 1.5", s)
	}
	if ms := Duration(2500).Milliseconds(); ms != 2.5 {
		t.Fatalf("Milliseconds: got %v, want 2.5", ms)
	}
	if Millis(3.5) != Duration(3500) {
		t.Fatalf("Millis(3.5) = %d, want 3500", Millis(3.5))
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func(Time, int, int) { order = append(order, 3) }, 0, 0)
	e.At(10, func(Time, int, int) { order = append(order, 1) }, 0, 0)
	e.At(20, func(Time, int, int) { order = append(order, 2) }, 0, 0)
	e.Drain(100)
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func(Time, int, int) { order = append(order, i) }, 0, 0)
	}
	e.Drain(100)
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-time events fired out of insertion order: %v", order)
	}
}

func TestEngineAtAndRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(Time(5*Millisecond), func(now Time, a, b int) {
		fired++
		if now != Time(5*Millisecond) || a != 2 || b != -3 {
			t.Errorf("fired at %v with (%d, %d), want 5ms with (2, -3)", now, a, b)
		}
	}, 2, -3)
	e.At(Time(15*Millisecond), func(Time, int, int) { fired++ }, 0, 0)
	e.RunUntil(Time(10 * Millisecond))
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 after RunUntil(10ms)", fired)
	}
	if e.Now() != Time(10*Millisecond) {
		t.Fatalf("Now = %v, want exactly 10ms", e.Now())
	}
	e.RunFor(10 * Millisecond)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 after RunFor", fired)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func(Time, int, int) {}, 0, 0)
	e.Drain(10)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5, func(Time, int, int) {}, 0, 0)
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10, func(Time, int, int) { fired = true }, 0, 0)
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after At, want 1", e.Pending())
	}
	if !e.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Cancel, want 0", e.Pending())
	}
	if e.Cancel(ev) {
		t.Fatal("double-cancel returned true")
	}
	// The cancelled event is recycled: the next scheduling reuses it, and
	// its tombstone leaves the reused event to fire in its own turn, with
	// the payload it was rescheduled with.
	var at Time
	var payload [2]int
	again := e.At(5, func(now Time, a, b int) { at, payload = now, [2]int{a, b} }, 8, 9)
	if again != ev {
		t.Fatal("At did not reuse the cancelled event")
	}
	e.Drain(10)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if at != 5 || payload != [2]int{8, 9} {
		t.Fatalf("reused event fired at %v with %v, want 5 with [8 9]", at, payload)
	}
	if e.Cancel(nil) {
		t.Fatal("Cancel(nil) returned true")
	}
}

func TestEngineDrainLimit(t *testing.T) {
	e := NewEngine()
	var loop Func
	loop = func(now Time, _, _ int) { e.At(now+1, loop, 0, 0) }
	e.At(0, loop, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Drain did not panic on runaway loop")
		}
	}()
	e.Drain(1000)
}

func TestEngineEventAccounting(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(Time(i), func(Time, int, int) {}, 0, 0)
	}
	if e.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", e.Pending())
	}
	e.Drain(100)
	if e.Fired() != 5 {
		t.Fatalf("Fired = %d, want 5", e.Fired())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

// TestEventSize pins an event at 48 bytes: the dispatch key, the callback
// and its payload, and the queue slot. eventBlock is sized for it.
func TestEventSize(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size != 48 {
		t.Fatalf("an event is %d bytes, want 48", size)
	}
}

// TestEngineSize pins an engine at 176 bytes, a size class of its own:
// one more word would take every machine's engine into the 192-byte
// class.
func TestEngineSize(t *testing.T) {
	if size := unsafe.Sizeof(Engine{}); size != 176 {
		t.Fatalf("an engine is %d bytes, want 176", size)
	}
}

// Property: events always fire in non-decreasing time order, no matter the
// insertion order.
func TestEventOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, off := range offsets {
			e.At(Time(off), func(now Time, _, _ int) { fired = append(fired, now) }, 0, 0)
		}
		e.Drain(uint64(len(offsets)) + 1)
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds matched %d/100 draws", same)
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Int63n(1000); v < 0 || v >= 1000 {
			t.Fatalf("Int63n out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if d := r.UniformDuration(10, 20); d < 10 || d > 20 {
			t.Fatalf("UniformDuration out of range: %v", d)
		}
	}
	if r.UniformDuration(20, 10) != 20 {
		t.Fatal("UniformDuration with hi<=lo should return lo")
	}
}

func TestRandIntnPanics(t *testing.T) {
	r := NewRand(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRandExpDurationMean(t *testing.T) {
	r := NewRand(7)
	const n = 20000
	mean := Duration(1000)
	var sum float64
	for i := 0; i < n; i++ {
		d := r.ExpDuration(mean)
		if d < 0 {
			t.Fatalf("negative exponential draw: %v", d)
		}
		sum += float64(d)
	}
	got := sum / n
	if math.Abs(got-1000) > 50 {
		t.Fatalf("exponential mean = %.1f, want ~1000", got)
	}
	if r.ExpDuration(0) != 0 {
		t.Fatal("ExpDuration(0) should be 0")
	}
}

func TestRandNormalMoments(t *testing.T) {
	r := NewRand(9)
	const n = 20000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Fatalf("normal mean = %.3f, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.1 {
		t.Fatalf("normal stddev = %.3f, want ~2", math.Sqrt(variance))
	}
}

func TestDeriveSeedDeterministicAndIndependent(t *testing.T) {
	if DeriveSeed(1999, 0) != DeriveSeed(1999, 0) {
		t.Fatal("DeriveSeed not deterministic")
	}
	// Distinct streams and distinct roots must give distinct seeds.
	seen := map[uint64]bool{}
	for root := uint64(0); root < 4; root++ {
		for stream := uint64(0); stream < 64; stream++ {
			s := DeriveSeed(root, stream)
			if seen[s] {
				t.Fatalf("seed collision at root=%d stream=%d", root, stream)
			}
			seen[s] = true
		}
	}
	// Derived streams should not be trivially correlated with the parent.
	a, b := NewRand(DeriveSeed(7, 0)), NewRand(DeriveSeed(7, 1))
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d identical draws across derived streams", same)
	}
}
