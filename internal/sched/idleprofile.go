package sched

import (
	"thinbench/internal/simclock"
)

// Activity is one periodic system task in an idle-state profile: a daemon or
// kernel housekeeping chore that consumes CPU even with no user logged in.
// These are the sources of the paper's "compulsory load".
type Activity struct {
	Name     string
	Period   simclock.Duration
	Duration simclock.Duration // CPU consumed per firing
	Priority int
	// Phase offsets the first firing so activities do not all align at t=0.
	Phase simclock.Duration
}

// IdleProfile is the set of periodic activities an operating system runs
// while idle. The three profiles below are calibrated so the aggregate
// idle-state load over a 600 s window reproduces the paper's Figure 2
// finding: TSE ≈ 3× NT Workstation ≈ 7× Linux, with NT's events all at or
// under 100 ms and TSE adding distinct 250 ms and 400 ms events from the
// Terminal Service and Session Manager (both priority 13 per §4.2.1).
type IdleProfile struct {
	OS         string
	Activities []Activity
}

// TotalPerSecond reports the profile's aggregate CPU demand per second of
// wall time, as a fraction.
func (p IdleProfile) TotalPerSecond() float64 {
	var frac float64
	for _, a := range p.Activities {
		frac += float64(a.Duration) / float64(a.Period)
	}
	return frac
}

// LinuxIdleProfile models an idle Linux 2.0.36 system in multi-user mode:
// the 10 ms clock tick plus kflushd/kswapd/update housekeeping. Aggregate
// ≈ 6.4 s of CPU per 600 s (≈ 1.1%), the paper's "much less CPU time
// handling tasks when idle".
func LinuxIdleProfile() IdleProfile {
	return IdleProfile{
		OS: "Linux",
		Activities: []Activity{
			{Name: "clock-tick", Period: 10 * simclock.Millisecond, Duration: 30 * simclock.Microsecond, Priority: 31},
			{Name: "kflushd", Period: 5 * simclock.Second, Duration: 5 * simclock.Millisecond, Priority: 20, Phase: simclock.Second},
			{Name: "update", Period: 30 * simclock.Second, Duration: 20 * simclock.Millisecond, Priority: 20, Phase: 3 * simclock.Second},
			{Name: "net-timers", Period: 200 * simclock.Millisecond, Duration: 600 * simclock.Microsecond, Priority: 30, Phase: 50 * simclock.Millisecond},
			{Name: "daemon-wakeups", Period: simclock.Second, Duration: 4 * simclock.Millisecond, Priority: 20, Phase: 700 * simclock.Millisecond},
		},
	}
}

// NTIdleProfile models an idle NT 4.0 Workstation: the same 10 ms clock
// interrupt cadence Endo et al. observed (despite documentation claiming
// 15 ms), the cache manager's lazy writer, registry lazy flush, and
// miscellaneous executive worker activity. Aggregate ≈ 15 s per 600 s
// (≈ 2.5%), with every event at or below 100 ms.
func NTIdleProfile() IdleProfile {
	return IdleProfile{
		OS: "NT Workstation",
		Activities: []Activity{
			{Name: "clock-tick", Period: 10 * simclock.Millisecond, Duration: 80 * simclock.Microsecond, Priority: 31},
			{Name: "lazy-writer", Period: simclock.Second, Duration: 8 * simclock.Millisecond, Priority: 16, Phase: 400 * simclock.Millisecond},
			{Name: "registry-flush", Period: 5 * simclock.Second, Duration: 20 * simclock.Millisecond, Priority: 16, Phase: 2 * simclock.Second},
			{Name: "worker-misc", Period: 100 * simclock.Millisecond, Duration: 300 * simclock.Microsecond, Priority: 12, Phase: 30 * simclock.Millisecond},
			{Name: "ccm-scan", Period: 10 * simclock.Second, Duration: 20 * simclock.Millisecond, Priority: 16, Phase: 7 * simclock.Second},
		},
	}
}

// TSEIdleProfile models an idle NT TSE system: the NT Workstation profile
// plus the Terminal Service connection listener and Session Manager
// housekeeping (priority 13 events of 250 ms and 400 ms, §4.2.1) and
// per-session virtualization overhead in the VM/Object/Process managers.
// Aggregate ≈ 45 s per 600 s (≈ 7.4%), three times NT Workstation.
func TSEIdleProfile() IdleProfile {
	nt := NTIdleProfile()
	acts := make([]Activity, len(nt.Activities), len(nt.Activities)+3)
	copy(acts, nt.Activities)
	acts = append(acts,
		Activity{Name: "terminal-service", Period: 10 * simclock.Second, Duration: 250 * simclock.Millisecond, Priority: 13, Phase: 4 * simclock.Second},
		Activity{Name: "session-manager", Period: 20 * simclock.Second, Duration: 400 * simclock.Millisecond, Priority: 13, Phase: 11 * simclock.Second},
		Activity{Name: "session-virtualization", Period: 100 * simclock.Millisecond, Duration: 500 * simclock.Microsecond, Priority: 12, Phase: 60 * simclock.Millisecond},
	)
	return IdleProfile{OS: "NT TSE", Activities: acts}
}

// Install creates one daemon thread per activity on the CPU and schedules
// its periodic work for as long as the CPU's engine runs.
func (p IdleProfile) Install(c *CPU) {
	d := &daemons{cpu: c, acts: p.Activities, threads: make([]*Thread, len(p.Activities))}
	d.tickFn = d.tick
	for i, a := range p.Activities {
		if a.Period <= 0 {
			panic("sched: an idle activity needs a positive period")
		}
		d.threads[i] = c.NewThread(a.Priority)
		c.eng.At(c.eng.Now().Add(a.Phase), d.tickFn, i, 0)
	}
}

// daemons runs an installed profile: activity i's thread is threads[i],
// and its ticks carry i as their payload.
type daemons struct {
	cpu     *CPU
	acts    []Activity
	threads []*Thread
	tickFn  simclock.Func
}

// tick submits activity i's work, then arms its next firing a period on.
func (d *daemons) tick(now simclock.Time, i, _ int) {
	it := d.cpu.Acquire()
	it.CPU = d.acts[i].Duration
	d.cpu.Submit(d.threads[i], it)
	d.cpu.eng.At(now.Add(d.acts[i].Period), d.tickFn, i, 0)
}
