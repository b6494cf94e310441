package sched

import (
	"slices"
	"testing"
	"unsafe"

	"thinbench/internal/simclock"
)

func newRRCPU() (*simclock.Engine, *CPU) {
	eng := simclock.NewEngine()
	cpu := NewCPU(eng, NewRR())
	return eng, cpu
}

// submitAt submits item on t at the simulated instant at.
func submitAt(cpu *CPU, at simclock.Time, t *Thread, item *WorkItem) {
	cpu.eng.At(at, func(simclock.Time, int, int) { cpu.Submit(t, item) }, 0, 0)
}

// TestThreadSize pins a thread at 112 bytes: the base priority and the
// three role marks, the state, current priority and boost, the item queue
// and its head, the item in service with its remaining CPU, and the
// quantum left, the ready instant and the CPU consumed.
func TestThreadSize(t *testing.T) {
	if size := unsafe.Sizeof(Thread{}); size != 112 {
		t.Fatalf("a thread is %d bytes, want 112", size)
	}
}

// TestWorkItemSize pins a work item at 40 bytes: the CPU demand, the
// completion callback, the two payload slots and the arrival instant.
func TestWorkItemSize(t *testing.T) {
	if size := unsafe.Sizeof(WorkItem{}); size != 40 {
		t.Fatalf("a work item is %d bytes, want 40", size)
	}
}

func TestSingleItemRunsToCompletion(t *testing.T) {
	eng, cpu := newRRCPU()
	th := cpu.NewThread(0)
	var doneAt simclock.Time
	cpu.Submit(th, &WorkItem{CPU: 3 * simclock.Millisecond, OnDone: func(now simclock.Time, _, _ int) {
		doneAt = now
	}})
	eng.Drain(1000)
	if doneAt != simclock.Time(3*simclock.Millisecond) {
		t.Fatalf("completed at %v, want 3ms", doneAt)
	}
	if th.State() != Blocked {
		t.Fatalf("thread state = %v, want blocked", th.State())
	}
	if th.TotalCPU() != 3*simclock.Millisecond {
		t.Fatalf("TotalCPU = %v, want 3ms", th.TotalCPU())
	}
}

func TestItemSpanningMultipleQuanta(t *testing.T) {
	eng, cpu := newRRCPU()
	th := cpu.NewThread(0)
	var doneAt simclock.Time
	cpu.Submit(th, &WorkItem{CPU: 35 * simclock.Millisecond, OnDone: func(now simclock.Time, _, _ int) {
		doneAt = now
	}})
	eng.Drain(1000)
	// Alone on the CPU: 35ms of work takes 35ms despite quantum expiries.
	if doneAt != simclock.Time(35*simclock.Millisecond) {
		t.Fatalf("completed at %v, want 35ms", doneAt)
	}
}

func TestRoundRobinAlternation(t *testing.T) {
	eng, cpu := newRRCPU()
	a := cpu.NewThread(0)
	b := cpu.NewThread(0)
	var aDone, bDone simclock.Time
	cpu.Submit(a, &WorkItem{CPU: 20 * simclock.Millisecond, OnDone: func(now simclock.Time, _, _ int) { aDone = now }})
	cpu.Submit(b, &WorkItem{CPU: 20 * simclock.Millisecond, OnDone: func(now simclock.Time, _, _ int) { bDone = now }})
	eng.Drain(1000)
	// a: [0,10) [20,30); b: [10,20) [30,40).
	if aDone != simclock.Time(30*simclock.Millisecond) {
		t.Fatalf("a done at %v, want 30ms", aDone)
	}
	if bDone != simclock.Time(40*simclock.Millisecond) {
		t.Fatalf("b done at %v, want 40ms", bDone)
	}
}

func TestRRNoWakePreemption(t *testing.T) {
	eng, cpu := newRRCPU()
	hog := cpu.NewThread(0)
	ed := cpu.NewThread(0)
	cpu.Submit(hog, &WorkItem{CPU: 100 * simclock.Millisecond})
	var echoAt simclock.Time
	// Keystroke arrives 2ms in; under round-robin with no wake preemption the
	// editor must wait for the hog's 10ms quantum boundary.
	submitAt(cpu, simclock.Time(2*simclock.Millisecond), ed, &WorkItem{
		CPU:    simclock.Millisecond,
		OnDone: func(now simclock.Time, _, _ int) { echoAt = now },
	})
	eng.Drain(10000)
	if echoAt != simclock.Time(11*simclock.Millisecond) {
		t.Fatalf("echo at %v, want 11ms (wait for quantum boundary)", echoAt)
	}
}

func TestNTWakePreemption(t *testing.T) {
	eng := simclock.NewEngine()
	cpu := NewCPU(eng, NewNT(1))
	hog := cpu.NewThread(8)
	ed := cpu.NewThread(9)
	ed.GUIBoost = true
	cpu.Submit(hog, &WorkItem{CPU: 100 * simclock.Millisecond})
	var echoAt simclock.Time
	submitAt(cpu, simclock.Time(2*simclock.Millisecond), ed, &WorkItem{
		CPU:    simclock.Millisecond,
		OnDone: func(now simclock.Time, _, _ int) { echoAt = now },
	})
	eng.Drain(10000)
	// NT preempts the lower-priority hog immediately: echo at 2+1 = 3ms.
	if echoAt != simclock.Time(3*simclock.Millisecond) {
		t.Fatalf("echo at %v, want 3ms (immediate preemption)", echoAt)
	}
}

func TestNTGUIBoostAppliesAndDecays(t *testing.T) {
	eng := simclock.NewEngine()
	cpu := NewCPU(eng, NewNT(1))
	gui := cpu.NewThread(9)
	gui.GUIBoost = true
	// A long GUI operation (window maximize): 500ms of CPU. The boost to 15
	// lasts two quanta (60ms unstretched) and then decays to base 9.
	cpu.Submit(gui, &WorkItem{CPU: 500 * simclock.Millisecond})
	// Let it get dispatched.
	eng.RunFor(simclock.Millisecond)
	if gui.Priority() != 15 {
		t.Fatalf("priority after wake = %d, want 15", gui.Priority())
	}
	// After 2 quanta expire the boost is gone.
	eng.RunFor(70 * simclock.Millisecond)
	if gui.Priority() != 9 {
		t.Fatalf("priority after two quanta = %d, want 9", gui.Priority())
	}
	if gui.Boosted() {
		t.Fatal("thread still marked boosted after decay")
	}
}

func TestNTQuantumStretch(t *testing.T) {
	fg := &Thread{Foreground: true}
	bg := &Thread{}
	// Stretch is clamped to 1..3, and only foreground threads stretch.
	for _, c := range []struct {
		stretch int
		fg      simclock.Duration
	}{{0, 30 * simclock.Millisecond}, {2, 60 * simclock.Millisecond}, {3, 90 * simclock.Millisecond}, {9, 90 * simclock.Millisecond}} {
		p := NewNT(c.stretch)
		if q := p.quantumOf(fg); q != c.fg {
			t.Fatalf("NewNT(%d): foreground quantum = %v, want %v", c.stretch, q, c.fg)
		}
		if q := p.quantumOf(bg); q != 30*simclock.Millisecond {
			t.Fatalf("NewNT(%d): background quantum = %v, want 30ms", c.stretch, q)
		}
	}
}

func TestBalanceSetBoostsStarvedThreads(t *testing.T) {
	eng := simclock.NewEngine()
	s := NewNT(1)
	cpu := NewCPU(eng, s)
	stopScan := s.InstallBalanceSet(eng)
	defer stopScan()
	// A priority 10 hog monopolizes the CPU; a priority 4 victim starves.
	hog := cpu.NewThread(10)
	victim := cpu.NewThread(4)
	cpu.Submit(hog, &WorkItem{CPU: 20 * simclock.Second})
	var victimDone simclock.Time
	cpu.Submit(victim, &WorkItem{CPU: simclock.Millisecond,
		OnDone: func(now simclock.Time, _, _ int) { victimDone = now }})
	eng.RunFor(10 * simclock.Second)
	if victimDone == 0 {
		t.Fatal("starved thread never ran despite balance-set scans")
	}
	// It must have waited at least starvationWait before the boost.
	if victimDone < simclock.Time(starvationWait) {
		t.Fatalf("victim ran at %v, before the starvation threshold %v", victimDone, starvationWait)
	}
	// And not unreasonably long after the first eligible scan.
	if victimDone > simclock.Time(6*simclock.Second) {
		t.Fatalf("victim ran at %v, too long after starvation threshold", victimDone)
	}
}

func TestSVR4InteractivePreemptsTimeshare(t *testing.T) {
	eng := simclock.NewEngine()
	cpu := NewCPU(eng, NewSVR4IA())
	hog := cpu.NewThread(0)
	ed := cpu.NewThread(0)
	ed.Interactive = true
	cpu.Submit(hog, &WorkItem{CPU: 100 * simclock.Millisecond})
	var echoAt simclock.Time
	submitAt(cpu, simclock.Time(2*simclock.Millisecond), ed, &WorkItem{
		CPU:    simclock.Millisecond,
		OnDone: func(now simclock.Time, _, _ int) { echoAt = now },
	})
	eng.Drain(10000)
	if echoAt != simclock.Time(3*simclock.Millisecond) {
		t.Fatalf("echo at %v, want 3ms (interactive preemption)", echoAt)
	}
}

func TestSVR4ConstantLatencyUnderLoad(t *testing.T) {
	// The Evans et al. result: interactive latency stays flat as timeshare
	// load grows. Compare stall at load 2 vs load 20.
	stall := func(nSinks int) simclock.Duration {
		eng := simclock.NewEngine()
		cpu := NewCPU(eng, NewSVR4IA())
		for i := 0; i < nSinks; i++ {
			s := cpu.NewThread(0)
			cpu.Submit(s, &WorkItem{CPU: simclock.Duration(1000) * simclock.Second})
		}
		ed := cpu.NewThread(0)
		ed.Interactive = true
		var worst simclock.Duration
		cpu.OnItemDone = func(rec ItemRecord) {
			if rec.Thread == ed {
				if l := rec.Latency(); l > worst {
					worst = l
				}
			}
		}
		for i := 0; i < 20; i++ {
			at := simclock.Time(i) * simclock.Time(50*simclock.Millisecond)
			submitAt(cpu, at, ed, &WorkItem{CPU: simclock.Millisecond})
		}
		eng.RunFor(2 * simclock.Second)
		return worst
	}
	light, heavy := stall(2), stall(20)
	if heavy > light+2*simclock.Millisecond {
		t.Fatalf("interactive latency grew with load: light=%v heavy=%v", light, heavy)
	}
	if heavy > 15*simclock.Millisecond {
		t.Fatalf("interactive latency %v exceeds a quantum + service time", heavy)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	eng, cpu := newRRCPU()
	th := cpu.NewThread(0)
	cpu.Submit(th, &WorkItem{CPU: 250 * simclock.Millisecond})
	eng.RunFor(simclock.Second)
	if got := cpu.BusyTotal(); got != 250*simclock.Millisecond {
		t.Fatalf("BusyTotal = %v, want 250ms", got)
	}
	if u := float64(cpu.BusyTotal()) / float64(eng.Now()); u != 0.25 {
		t.Fatalf("utilization = %v, want 0.25", u)
	}
}

// TestBusyCountsTheRunningSlice reads Busy mid-slice, where it adds the
// time the running slice has run to BusyTotal, and once the slice has
// ended, in its item's completion callback and after, where the two agree.
func TestBusyCountsTheRunningSlice(t *testing.T) {
	eng, cpu := newRRCPU()
	th := cpu.NewThread(0)
	var atDone [2]simclock.Duration
	cpu.Submit(th, &WorkItem{CPU: 25 * simclock.Millisecond, OnDone: func(simclock.Time, int, int) {
		atDone = [2]simclock.Duration{cpu.BusyTotal(), cpu.Busy()}
	}})
	// rr's 10 ms quantum ended the first slice at 10 ms; the second has
	// run for 4 ms.
	eng.RunUntil(simclock.Time(14 * simclock.Millisecond))
	if cpu.BusyTotal() != 10*simclock.Millisecond || cpu.Busy() != 14*simclock.Millisecond {
		t.Fatalf("mid-slice: BusyTotal %v, Busy %v; want 10ms and 14ms", cpu.BusyTotal(), cpu.Busy())
	}
	eng.RunUntil(simclock.Time(40 * simclock.Millisecond))
	want := [2]simclock.Duration{25 * simclock.Millisecond, 25 * simclock.Millisecond}
	if atDone != want {
		t.Fatalf("at completion: BusyTotal and Busy %v, want %v", atDone, want)
	}
	if cpu.BusyTotal() != want[0] || cpu.Busy() != want[1] {
		t.Fatalf("idle: BusyTotal %v, Busy %v; want 25ms for both", cpu.BusyTotal(), cpu.Busy())
	}
}

func TestItemRecordFields(t *testing.T) {
	eng, cpu := newRRCPU()
	hog := cpu.NewThread(0)
	w := cpu.NewThread(0)
	cpu.Submit(hog, &WorkItem{CPU: 20 * simclock.Millisecond})
	var rec ItemRecord
	cpu.OnItemDone = func(r ItemRecord) {
		if r.Thread == w {
			rec = r
		}
	}
	submitAt(cpu, simclock.Time(5*simclock.Millisecond), w, &WorkItem{CPU: 2 * simclock.Millisecond})
	eng.Drain(10000)
	if rec.Thread != w {
		t.Fatal("record thread mismatch")
	}
	if rec.Arrive != simclock.Time(5*simclock.Millisecond) {
		t.Fatalf("Arrive = %v, want 5ms", rec.Arrive)
	}
	if rec.CPU != 2*simclock.Millisecond {
		t.Fatalf("CPU = %v, want 2ms", rec.CPU)
	}
	if rec.Latency() < 2*simclock.Millisecond {
		t.Fatalf("Latency = %v, below service time", rec.Latency())
	}
}

func TestRetireStopsThread(t *testing.T) {
	eng, cpu := newRRCPU()
	hog := cpu.NewThread(0)
	other := cpu.NewThread(0)
	cpu.Submit(hog, &WorkItem{CPU: simclock.Duration(100) * simclock.Second})
	var otherDone simclock.Time
	submitAt(cpu, simclock.Time(simclock.Millisecond), other, &WorkItem{CPU: simclock.Millisecond,
		OnDone: func(now simclock.Time, _, _ int) { otherDone = now }})
	eng.At(simclock.Time(5*simclock.Millisecond), func(simclock.Time, int, int) { cpu.Retire(hog) }, 0, 0)
	eng.RunFor(simclock.Second)
	if hog.State() != Blocked {
		t.Fatalf("retired thread state = %v, want blocked", hog.State())
	}
	if otherDone == 0 {
		t.Fatal("other thread never ran after retire")
	}
	// Retired hog consumed only the time before retirement.
	if hog.TotalCPU() > 5*simclock.Millisecond {
		t.Fatalf("retired hog consumed %v, want <= 5ms", hog.TotalCPU())
	}
}

func TestWorkConservation(t *testing.T) {
	// Total CPU consumed equals total CPU demanded, for a batch of jobs on
	// several threads under each scheduler.
	for _, p := range allPolicies() {
		eng := simclock.NewEngine()
		cpu := NewCPU(eng, p)
		rng := simclock.NewRand(11)
		var demand simclock.Duration
		var completions int
		want := 0
		for i := 0; i < 8; i++ {
			th := cpu.NewThread(4 + rng.Intn(8))
			for j := 0; j < 5; j++ {
				cpu := cpu
				d := simclock.Duration(1+rng.Intn(20)) * simclock.Millisecond
				demand += d
				want++
				submitAt(cpu, simclock.Time(rng.Intn(100))*simclock.Time(simclock.Millisecond), th,
					&WorkItem{CPU: d, OnDone: func(simclock.Time, int, int) { completions++ }})
			}
		}
		eng.Drain(1_000_000)
		if completions != want {
			t.Fatalf("%s: %d completions, want %d", p.Name(), completions, want)
		}
		if cpu.BusyTotal() != demand {
			t.Fatalf("%s: busy %v != demand %v", p.Name(), cpu.BusyTotal(), demand)
		}
	}
}

func TestIdleProfileRatios(t *testing.T) {
	linux := LinuxIdleProfile().TotalPerSecond()
	nt := NTIdleProfile().TotalPerSecond()
	tse := TSEIdleProfile().TotalPerSecond()
	if !(linux < nt && nt < tse) {
		t.Fatalf("idle load ordering wrong: linux=%v nt=%v tse=%v", linux, nt, tse)
	}
	if r := tse / nt; r < 2.4 || r > 3.6 {
		t.Fatalf("TSE/NT idle ratio = %.2f, want ~3", r)
	}
	if r := tse / linux; r < 5.5 || r > 8.5 {
		t.Fatalf("TSE/Linux idle ratio = %.2f, want ~7", r)
	}
}

func TestIdleProfileInstallGeneratesLoad(t *testing.T) {
	for _, p := range []IdleProfile{LinuxIdleProfile(), NTIdleProfile(), TSEIdleProfile()} {
		eng := simclock.NewEngine()
		cpu := NewCPU(eng, NewNT(1))
		p.Install(cpu)
		span := 60 * simclock.Second
		eng.RunFor(span)
		got := float64(cpu.BusyTotal()) / float64(span)
		want := p.TotalPerSecond()
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("%s: measured idle utilization %.4f, profile predicts %.4f", p.OS, got, want)
		}
	}
}

// TestIdleProfileTicksEveryPeriod: an activity's work arrives at its
// phase and every period after it, each item with the activity's CPU.
func TestIdleProfileTicksEveryPeriod(t *testing.T) {
	eng, cpu := newRRCPU()
	var arrivals []simclock.Time
	cpu.OnItemDone = func(r ItemRecord) {
		if r.CPU != 3 {
			t.Fatalf("an item took %v of CPU, want 3µs", r.CPU)
		}
		arrivals = append(arrivals, r.Arrive)
	}
	IdleProfile{Activities: []Activity{{Name: "tick", Period: 20, Duration: 3, Phase: 10}}}.Install(cpu)
	eng.RunUntil(75)
	if want := []simclock.Time{10, 30, 50, 70}; !slices.Equal(arrivals, want) {
		t.Fatalf("work arrived at %v, want %v", arrivals, want)
	}
}

// TestIdleProfileZeroPeriodPanics: an activity with no period would fire
// forever at one instant, so Install refuses it.
func TestIdleProfileZeroPeriodPanics(t *testing.T) {
	_, cpu := newRRCPU()
	defer func() {
		if recover() == nil {
			t.Fatal("installing an activity with no period did not panic")
		}
	}()
	IdleProfile{Activities: []Activity{{Name: "spin", Duration: 1}}}.Install(cpu)
}

func TestStateString(t *testing.T) {
	if Blocked.String() != "blocked" || Ready.String() != "ready" || Running.String() != "running" {
		t.Fatal("State.String values wrong")
	}
	if State(42).String() == "" {
		t.Fatal("unknown state should stringify")
	}
}

func TestNegativeCPUPanics(t *testing.T) {
	_, cpu := newRRCPU()
	th := cpu.NewThread(0)
	defer func() {
		if recover() == nil {
			t.Fatal("negative CPU demand did not panic")
		}
	}()
	cpu.Submit(th, &WorkItem{CPU: -1})
}

// TestResetEmptiesThePolicy: a CPU reset under the policy it ran keeps
// none of the threads left ready there, under every policy.
func TestResetEmptiesThePolicy(t *testing.T) {
	for _, p := range allPolicies() {
		eng := simclock.NewEngine()
		cpu := NewCPU(eng, p)
		for range 3 {
			cpu.Submit(cpu.NewThread(8), &WorkItem{CPU: simclock.Second})
		}
		eng.RunFor(simclock.Millisecond)
		if p.ReadyCount() != 2 {
			t.Fatalf("%s: %d threads ready before the reset, want 2", p.Name(), p.ReadyCount())
		}
		eng.Reset()
		cpu.Reset(cpu.Policy())
		if p.ReadyCount() != 0 || p.next() != nil {
			t.Fatalf("%s: the reset left %d threads ready", p.Name(), p.ReadyCount())
		}
	}
}

// allPolicies builds one of each policy.
func allPolicies() []*Policy { return []*Policy{NewRR(), NewNT(1), NewSVR4IA()} }

// TestSchedulerRemove: removing a ready thread from the middle of a level
// keeps the others in order, under every policy.
func TestSchedulerRemove(t *testing.T) {
	for _, p := range allPolicies() {
		var ts [4]*Thread
		for i := range ts {
			ts[i] = &Thread{Base: 8, cur: 8}
			p.wake(ts[i])
		}
		if p.ReadyCount() != 4 {
			t.Fatalf("%s: ReadyCount = %d, want 4", p.Name(), p.ReadyCount())
		}
		p.remove(ts[1])
		p.remove(&Thread{Base: 8, cur: 8}) // not queued: a no-op
		for _, want := range []*Thread{ts[0], ts[2], ts[3], nil} {
			if got := p.next(); got != want {
				t.Fatalf("%s: next after remove = %p, want %p", p.Name(), got, want)
			}
		}
		if p.ReadyCount() != 0 {
			t.Fatalf("%s: ReadyCount = %d after draining, want 0", p.Name(), p.ReadyCount())
		}
	}
}

// TestPreemptedThreadResumesFirst: under nt and svr4ia a wake from a
// higher level preempts the running thread, which rejoins the head of its
// level and so runs before every other ready thread there, whichever
// order they joined in.
func TestPreemptedThreadResumesFirst(t *testing.T) {
	for _, p := range []*Policy{NewNT(1), NewSVR4IA()} {
		eng := simclock.NewEngine()
		cpu := NewCPU(eng, p)
		var order []int
		hogs := make([]*Thread, 3)
		for i := range hogs {
			hogs[i] = cpu.NewThread(8)
			cpu.Submit(hogs[i], &WorkItem{CPU: 5 * simclock.Millisecond, A: i,
				OnDone: func(_ simclock.Time, a, _ int) { order = append(order, a) }})
		}
		ed := cpu.NewThread(9)
		ed.GUIBoost, ed.Interactive = true, true
		submitAt(cpu, simclock.Time(2*simclock.Millisecond), ed, &WorkItem{CPU: simclock.Millisecond,
			OnDone: func(simclock.Time, int, int) { order = append(order, -1) }})
		eng.Drain(1000)
		// Hog 0 runs first, is preempted at 2 ms with 3 ms left, and
		// resumes ahead of hogs 1 and 2, which were ready before it.
		if want := []int{-1, 0, 1, 2}; !slices.Equal(order, want) {
			t.Fatalf("%s: completion order %v, want %v", p.Name(), order, want)
		}
	}
}

// BenchmarkPreempt times one preemption and its recovery: each op wakes a
// boosted, interactive editor with a 1 ms item while a hog runs, so the
// wake preempts the hog, the hog rejoins its level's head and resumes
// when the item completes. The hog's slice-end event is cancelled and
// recycled on every op. After the warm-up every pool is grown, so an op
// allocates nothing.
func BenchmarkPreempt(b *testing.B) {
	for _, p := range []*Policy{NewNT(1), NewSVR4IA()} {
		b.Run(p.Name(), func(b *testing.B) {
			eng := simclock.NewEngine()
			cpu := NewCPU(eng, p)
			hog := cpu.NewThread(8)
			cpu.Submit(hog, &WorkItem{CPU: simclock.Duration(1e15)})
			ed := cpu.NewThread(9)
			ed.GUIBoost, ed.Interactive = true, true
			keystroke := func() {
				it := cpu.Acquire()
				it.CPU = simclock.Millisecond
				cpu.Submit(ed, it)
				eng.RunFor(5 * simclock.Millisecond)
			}
			for range 1000 {
				keystroke()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				keystroke()
			}
		})
	}
}
