package sched

import (
	"testing"

	"thinbench/internal/simclock"
)

func newRRCPU() (*simclock.Engine, *CPU) {
	eng := simclock.NewEngine()
	cpu := NewCPU(eng, NewRRSched())
	return eng, cpu
}

func TestSingleItemRunsToCompletion(t *testing.T) {
	eng, cpu := newRRCPU()
	th := cpu.NewThread("worker", 0)
	var doneAt simclock.Time
	var n int
	cpu.Submit(th, &WorkItem{Tag: "job", CPU: 3 * simclock.Millisecond, OnDone: func(_ *WorkItem, now simclock.Time, k int) {
		doneAt, n = now, k
	}})
	eng.Drain(1000)
	if doneAt != simclock.Time(3*simclock.Millisecond) {
		t.Fatalf("completed at %v, want 3ms", doneAt)
	}
	if n != 1 {
		t.Fatalf("n = %d, want 1", n)
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
	th := cpu.NewThread("worker", 0)
	var doneAt simclock.Time
	cpu.Submit(th, &WorkItem{Tag: "long", CPU: 35 * simclock.Millisecond, OnDone: func(_ *WorkItem, now simclock.Time, _ int) {
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
	a := cpu.NewThread("a", 0)
	b := cpu.NewThread("b", 0)
	var aDone, bDone simclock.Time
	cpu.Submit(a, &WorkItem{Tag: "a", CPU: 20 * simclock.Millisecond, OnDone: func(_ *WorkItem, now simclock.Time, _ int) { aDone = now }})
	cpu.Submit(b, &WorkItem{Tag: "b", CPU: 20 * simclock.Millisecond, OnDone: func(_ *WorkItem, now simclock.Time, _ int) { bDone = now }})
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
	hog := cpu.NewThread("hog", 0)
	ed := cpu.NewThread("editor", 0)
	cpu.Submit(hog, &WorkItem{Tag: "spin", CPU: 100 * simclock.Millisecond})
	var echoAt simclock.Time
	// Keystroke arrives 2ms in; under round-robin with no wake preemption the
	// editor must wait for the hog's 10ms quantum boundary.
	cpu.SubmitAt(simclock.Time(2*simclock.Millisecond), ed, &WorkItem{
		Tag: "key", CPU: simclock.Millisecond,
		OnDone: func(_ *WorkItem, now simclock.Time, _ int) { echoAt = now },
	})
	eng.Drain(10000)
	if echoAt != simclock.Time(11*simclock.Millisecond) {
		t.Fatalf("echo at %v, want 11ms (wait for quantum boundary)", echoAt)
	}
}

func TestNTWakePreemption(t *testing.T) {
	eng := simclock.NewEngine()
	cpu := NewCPU(eng, NewNTSched(DefaultNTConfig()))
	hog := cpu.NewThread("hog", 8)
	ed := cpu.NewThread("editor", 9)
	ed.GUIBoost = true
	cpu.Submit(hog, &WorkItem{Tag: "spin", CPU: 100 * simclock.Millisecond})
	var echoAt simclock.Time
	cpu.SubmitAt(simclock.Time(2*simclock.Millisecond), ed, &WorkItem{
		Tag: "key", CPU: simclock.Millisecond,
		OnDone: func(_ *WorkItem, now simclock.Time, _ int) { echoAt = now },
	})
	eng.Drain(10000)
	// NT preempts the lower-priority hog immediately: echo at 2+1 = 3ms.
	if echoAt != simclock.Time(3*simclock.Millisecond) {
		t.Fatalf("echo at %v, want 3ms (immediate preemption)", echoAt)
	}
}

func TestNTGUIBoostAppliesAndDecays(t *testing.T) {
	eng := simclock.NewEngine()
	cfg := DefaultNTConfig()
	s := NewNTSched(cfg)
	cpu := NewCPU(eng, s)
	gui := cpu.NewThread("gui", 9)
	gui.GUIBoost = true
	// A long GUI operation (window maximize): 500ms of CPU. The boost to 15
	// lasts two quanta (60ms unstretched) and then decays to base 9.
	cpu.Submit(gui, &WorkItem{Tag: "maximize", CPU: 500 * simclock.Millisecond})
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
	cfg := DefaultNTConfig()
	cfg.Stretch = 3
	s := NewNTSched(cfg)
	fg := &Thread{Name: "fg", Foreground: true}
	bg := &Thread{Name: "bg"}
	if q := s.Quantum(fg); q != 90*simclock.Millisecond {
		t.Fatalf("foreground quantum = %v, want 90ms", q)
	}
	if q := s.Quantum(bg); q != 30*simclock.Millisecond {
		t.Fatalf("background quantum = %v, want 30ms", q)
	}
	// Stretch is clamped to 1..3.
	cfg.Stretch = 9
	if got := NewNTSched(cfg).Config().Stretch; got != 3 {
		t.Fatalf("stretch clamp = %d, want 3", got)
	}
	cfg.Stretch = 0
	if got := NewNTSched(cfg).Config().Stretch; got != 1 {
		t.Fatalf("stretch clamp = %d, want 1", got)
	}
}

func TestCoalescingAbsorbsSameTag(t *testing.T) {
	eng, cpu := newRRCPU()
	hog := cpu.NewThread("hog", 0)
	enc := cpu.NewThread("encoder", 0)
	cpu.Submit(hog, &WorkItem{Tag: "spin", CPU: 40 * simclock.Millisecond})
	// Five updates arrive while the hog runs; the encoder coalesces them
	// into a single completion.
	var counts []int
	for i := 0; i < 5; i++ {
		cpu.SubmitAt(simclock.Time(i+1)*simclock.Time(simclock.Millisecond), enc, &WorkItem{
			Tag: "update", CPU: 2 * simclock.Millisecond, ExtraCPU: 100 * simclock.Microsecond, Coalesce: true,
			OnDone: func(_ *WorkItem, now simclock.Time, n int) { counts = append(counts, n) },
		})
	}
	eng.Drain(10000)
	if len(counts) != 1 {
		t.Fatalf("completions = %v, want one coalesced completion", counts)
	}
	if counts[0] != 5 {
		t.Fatalf("coalesced count = %d, want 5", counts[0])
	}
}

func TestCoalescingLeavesOtherTags(t *testing.T) {
	eng, cpu := newRRCPU()
	hog := cpu.NewThread("hog", 0)
	enc := cpu.NewThread("worker", 0)
	cpu.Submit(hog, &WorkItem{Tag: "spin", CPU: 30 * simclock.Millisecond})
	var done []string
	mk := func(tag string, coalesce bool) *WorkItem {
		return &WorkItem{Tag: tag, CPU: simclock.Millisecond, Coalesce: coalesce,
			OnDone: func(_ *WorkItem, _ simclock.Time, _ int) { done = append(done, tag) }}
	}
	cpu.SubmitAt(1000, enc, mk("update", true))
	cpu.SubmitAt(1001, enc, mk("other", false))
	cpu.SubmitAt(1002, enc, mk("update", true))
	eng.Drain(10000)
	// The two "update" items coalesce; "other" survives separately.
	if len(done) != 2 {
		t.Fatalf("completions = %v, want [update other]", done)
	}
	if done[0] != "update" || done[1] != "other" {
		t.Fatalf("completions = %v, want [update other]", done)
	}
}

func TestBalanceSetBoostsStarvedThreads(t *testing.T) {
	eng := simclock.NewEngine()
	cfg := DefaultNTConfig()
	s := NewNTSched(cfg)
	cpu := NewCPU(eng, s)
	stopScan := s.InstallBalanceSet(eng)
	defer stopScan()
	// A priority 10 hog monopolizes the CPU; a priority 4 victim starves.
	hog := cpu.NewThread("hog", 10)
	victim := cpu.NewThread("victim", 4)
	cpu.Submit(hog, &WorkItem{Tag: "spin", CPU: 20 * simclock.Second})
	var victimDone simclock.Time
	cpu.Submit(victim, &WorkItem{Tag: "job", CPU: simclock.Millisecond,
		OnDone: func(_ *WorkItem, now simclock.Time, _ int) { victimDone = now }})
	eng.RunFor(10 * simclock.Second)
	if victimDone == 0 {
		t.Fatal("starved thread never ran despite balance-set scans")
	}
	// It must have waited at least StarvationWait before the boost.
	if victimDone < simclock.Time(cfg.StarvationWait) {
		t.Fatalf("victim ran at %v, before the starvation threshold %v", victimDone, cfg.StarvationWait)
	}
	// And not unreasonably long after the first eligible scan.
	if victimDone > simclock.Time(6*simclock.Second) {
		t.Fatalf("victim ran at %v, too long after starvation threshold", victimDone)
	}
}

func TestSVR4InteractivePreemptsTimeshare(t *testing.T) {
	eng := simclock.NewEngine()
	cpu := NewCPU(eng, NewSVR4IASched())
	hog := cpu.NewThread("hog", 0)
	ed := cpu.NewThread("editor", 0)
	ed.Interactive = true
	cpu.Submit(hog, &WorkItem{Tag: "spin", CPU: 100 * simclock.Millisecond})
	var echoAt simclock.Time
	cpu.SubmitAt(simclock.Time(2*simclock.Millisecond), ed, &WorkItem{
		Tag: "key", CPU: simclock.Millisecond,
		OnDone: func(_ *WorkItem, now simclock.Time, _ int) { echoAt = now },
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
		cpu := NewCPU(eng, NewSVR4IASched())
		for i := 0; i < nSinks; i++ {
			s := cpu.NewThread("sink", 0)
			cpu.Submit(s, &WorkItem{Tag: "spin", CPU: simclock.Duration(1000) * simclock.Second})
		}
		ed := cpu.NewThread("editor", 0)
		ed.Interactive = true
		var worst simclock.Duration
		cpu.OnItemDone = func(rec ItemRecord) {
			if rec.Tag == "key" {
				if l := rec.Latency(); l > worst {
					worst = l
				}
			}
		}
		for i := 0; i < 20; i++ {
			at := simclock.Time(i) * simclock.Time(50*simclock.Millisecond)
			cpu.SubmitAt(at, ed, &WorkItem{Tag: "key", CPU: simclock.Millisecond})
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
	th := cpu.NewThread("worker", 0)
	cpu.Submit(th, &WorkItem{Tag: "job", CPU: 250 * simclock.Millisecond})
	eng.RunFor(simclock.Second)
	if got := cpu.BusyTotal(); got != 250*simclock.Millisecond {
		t.Fatalf("BusyTotal = %v, want 250ms", got)
	}
	u := cpu.Utilization()
	if u < 0.24 || u > 0.26 {
		t.Fatalf("Utilization = %v, want ~0.25", u)
	}
}

func TestItemRecordFields(t *testing.T) {
	eng, cpu := newRRCPU()
	hog := cpu.NewThread("hog", 0)
	w := cpu.NewThread("w", 0)
	cpu.Submit(hog, &WorkItem{Tag: "spin", CPU: 20 * simclock.Millisecond})
	var rec ItemRecord
	cpu.OnItemDone = func(r ItemRecord) {
		if r.Tag == "job" {
			rec = r
		}
	}
	cpu.SubmitAt(simclock.Time(5*simclock.Millisecond), w, &WorkItem{Tag: "job", CPU: 2 * simclock.Millisecond})
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
	hog := cpu.NewThread("hog", 0)
	other := cpu.NewThread("other", 0)
	cpu.Submit(hog, &WorkItem{Tag: "spin", CPU: simclock.Duration(100) * simclock.Second})
	var otherDone simclock.Time
	cpu.SubmitAt(simclock.Time(simclock.Millisecond), other, &WorkItem{Tag: "job", CPU: simclock.Millisecond,
		OnDone: func(_ *WorkItem, now simclock.Time, _ int) { otherDone = now }})
	eng.At(simclock.Time(5*simclock.Millisecond), func(simclock.Time) { cpu.Retire(hog) })
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
	for _, mk := range []func() Scheduler{
		func() Scheduler { return NewRRSched() },
		func() Scheduler { return NewNTSched(DefaultNTConfig()) },
		func() Scheduler { return NewSVR4IASched() },
	} {
		eng := simclock.NewEngine()
		cpu := NewCPU(eng, mk())
		rng := simclock.NewRand(11)
		var demand simclock.Duration
		var completions int
		want := 0
		for i := 0; i < 8; i++ {
			th := cpu.NewThread("t", 4+rng.Intn(8))
			for j := 0; j < 5; j++ {
				cpu := cpu
				d := simclock.Duration(1+rng.Intn(20)) * simclock.Millisecond
				demand += d
				want++
				cpu.SubmitAt(simclock.Time(rng.Intn(100))*simclock.Time(simclock.Millisecond), th,
					&WorkItem{Tag: "job", CPU: d, OnDone: func(_ *WorkItem, _ simclock.Time, _ int) { completions++ }})
			}
		}
		eng.Drain(1_000_000)
		if completions != want {
			t.Fatalf("%s: %d completions, want %d", cpu.Scheduler().Name(), completions, want)
		}
		if cpu.BusyTotal() != demand {
			t.Fatalf("%s: busy %v != demand %v", cpu.Scheduler().Name(), cpu.BusyTotal(), demand)
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
		cpu := NewCPU(eng, NewNTSched(DefaultNTConfig()))
		cancel := p.Install(cpu)
		eng.RunFor(60 * simclock.Second)
		cancel()
		got := cpu.Utilization()
		want := p.TotalPerSecond()
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("%s: measured idle utilization %.4f, profile predicts %.4f", p.OS, got, want)
		}
	}
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
	th := cpu.NewThread("w", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("negative CPU demand did not panic")
		}
	}()
	cpu.Submit(th, &WorkItem{Tag: "bad", CPU: -1})
}

func TestSchedulerRemove(t *testing.T) {
	for _, mk := range []func() Scheduler{
		func() Scheduler { return NewRRSched() },
		func() Scheduler { return NewNTSched(DefaultNTConfig()) },
		func() Scheduler { return NewSVR4IASched() },
	} {
		s := mk()
		a := &Thread{Name: "a", Base: 8, cur: 8}
		b := &Thread{Name: "b", Base: 8, cur: 8}
		s.Enqueue(a, 0, ReasonWake)
		s.Enqueue(b, 0, ReasonWake)
		if s.ReadyCount() != 2 {
			t.Fatalf("%s: ReadyCount = %d, want 2", s.Name(), s.ReadyCount())
		}
		s.Remove(a)
		if got := s.Dequeue(0); got != b {
			t.Fatalf("%s: Dequeue after Remove = %v, want b", s.Name(), got)
		}
	}
}
