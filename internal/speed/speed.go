// Package speed measures how fast the simulator itself runs: canonical
// workloads spanning the repo's layers (one contended server, a sharded
// fleet, a scheduled office day) timed for sim-events per second,
// wall-clock per simulated user-hour, and allocations per event.
//
// The event counts are deterministic — same seed, same binary, same
// numbers — so they golden-diff in CI like any other BENCH baseline; the
// allocation counts, stable under Measure's estimator, ratchet.
// Wall-clock derived numbers vary with the machine and are reported but
// never diffed.
package speed

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/shard"
	"thinbench/internal/simclock"
)

// Workload is one canonical speed scenario.
type Workload struct {
	// Name identifies the scenario in BENCH_speed.json.
	Name string
	// Users is the simulated population, the basis of the per-user-hour
	// normalization.
	Users int
	// Span is the simulated duration.
	Span simclock.Duration

	run func(seed uint64, workers int) (uint64, error)
}

// Run executes the workload once and reports how many simulator events it
// dispatched.
func (w Workload) Run(seed uint64, workers int) (uint64, error) { return w.run(seed, workers) }

// Workloads returns the canonical scenarios, sized to match the other
// BENCH baselines: cont1 is the contention sweep's largest single-server
// point, fleet the churn baseline's static population on the heterogeneous
// 3-machine fleet, officeday the schedule baseline's trace-driven day, and
// bigfleet the scale proof — 1,040 users riding the office-day profile
// across 40 heterogeneous machines, roughly the population of a small
// campus on one simulated fleet. quick shortens the simulated spans for
// smoke runs.
func Workloads(quick bool) []Workload {
	span := 10 * simclock.Second
	if quick {
		span = 3 * simclock.Second
	}
	cont1 := Workload{Name: "cont1", Users: 16, Span: span}
	cont1.run = func(seed uint64, workers int) (uint64, error) {
		cfg := server.DefaultConfig()
		cfg.Users = cont1.Users
		cfg.Protocol = "rdp"
		cfg.Scheduler = "rr"
		cfg.Span = cont1.Span
		cfg.Seed = seed
		srv, err := server.New(cfg)
		if err != nil {
			return 0, err
		}
		res, err := srv.Run()
		if err != nil {
			return 0, err
		}
		return res.SimEvents, nil
	}

	fleetCfg := func(users int, span simclock.Duration, seed uint64, workers int) shard.Config {
		base := server.DefaultConfig()
		base.Span = span
		return shard.Config{
			Base:      base,
			Machines:  shard.DefaultFleet(3),
			Users:     users,
			Policy:    shard.PolicyRoundRobin,
			ProbeSpan: 2 * simclock.Second,
			Workers:   workers,
			Seed:      seed,
		}
	}

	fleet := Workload{Name: "fleet", Users: 22, Span: span}
	fleet.run = func(seed uint64, workers int) (uint64, error) {
		fr, err := shard.Run(fleetCfg(fleet.Users, fleet.Span, seed, workers))
		if err != nil {
			return 0, err
		}
		return fr.SimEvents, nil
	}

	officeday := Workload{Name: "officeday", Users: 15, Span: span}
	officeday.run = func(seed uint64, workers int) (uint64, error) {
		prof, ok := schedule.Builtin("officeday")
		if !ok {
			return 0, fmt.Errorf("speed: builtin profile officeday missing")
		}
		cfg := fleetCfg(officeday.Users, officeday.Span, seed, workers)
		cfg.Schedule = &prof
		fr, err := shard.Run(cfg)
		if err != nil {
			return 0, err
		}
		return fr.SimEvents, nil
	}

	bigfleet := Workload{Name: "bigfleet", Users: 1040, Span: span}
	bigfleet.run = func(seed uint64, workers int) (uint64, error) {
		prof, ok := schedule.Builtin("officeday")
		if !ok {
			return 0, fmt.Errorf("speed: builtin profile officeday missing")
		}
		cfg := fleetCfg(bigfleet.Users, bigfleet.Span, seed, workers)
		cfg.Machines = shard.DefaultFleet(40)
		cfg.Schedule = &prof
		fr, err := shard.Run(cfg)
		if err != nil {
			return 0, err
		}
		return fr.SimEvents, nil
	}

	return []Workload{cont1, fleet, officeday, bigfleet}
}

// Report is one workload's measured speed. SimEvents is deterministic and
// golden-diffed; Allocs and AllocsPerEvent are stable at workers=1 and
// ratcheted; the wall-clock fields (WallMs, EventsPerSec, UsPerUserHour) vary with the
// machine and are excluded from every diff.
type Report struct {
	Name           string  `json:"name"`
	Users          int     `json:"users"`
	SpanSec        float64 `json:"span_sec"`
	SimEvents      uint64  `json:"sim_events"`
	Allocs         uint64  `json:"allocs"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	WallMs         float64 `json:"wall_ms"`
	EventsPerSec   float64 `json:"events_per_sec"`
	UsPerUserHour  float64 `json:"us_per_user_hour"`
}

// Measure times one workload, testing.AllocsPerRun-style: a warm-up run
// flushes lazy initialization (protocol tables, farm machinery) out of the
// measured window, then three counted runs each execute between a GC and
// two MemStats snapshots. Mallocs is process-global, so callers needing
// exact allocation counts must not run concurrent work (in tests: no
// t.Parallel, workers=1).
//
// Both the wall clock and the allocation count report the minimum of the
// three runs: a single run's time is dominated by one-off noise (page
// faults on fresh spans), and a few runtime-internal allocations depend on
// GC timing. Each counted run therefore switches the collector off after
// its opening GC, so no cycle lands inside the window however small the
// run's heap; the heap grows by the run's whole allocation instead (about
// 570 MB for bigfleet, which sets a speed run's peak RSS). At
// workers=1 the counted runs also hold GOMAXPROCS at 1, which takes the
// background GC workers' scheduling out of the count; with that and the
// minimum, the count is the same on every run at any GOMAXPROCS the
// process started with.
func Measure(w Workload, seed uint64, workers int) (Report, error) {
	if _, err := w.Run(seed, workers); err != nil {
		return Report{}, err
	}
	var events, allocs uint64
	var wall time.Duration
	for i := 0; i < 3; i++ {
		ev, a, d, err := countedRun(w, seed, workers)
		if err != nil {
			return Report{}, err
		}
		if i == 0 || a < allocs {
			allocs = a
		}
		if i == 0 || d < wall {
			wall = d
		}
		events = ev
	}

	r := Report{
		Name:      w.Name,
		Users:     w.Users,
		SpanSec:   w.Span.Seconds(),
		SimEvents: events,
		Allocs:    allocs,
		WallMs:    float64(wall.Nanoseconds()) / 1e6,
	}
	if events > 0 {
		r.AllocsPerEvent = roundTo(float64(r.Allocs)/float64(events), 4)
	}
	if secs := wall.Seconds(); secs > 0 {
		r.EventsPerSec = float64(events) / secs
	}
	if userHours := float64(w.Users) * w.Span.Seconds() / 3600; userHours > 0 {
		r.UsPerUserHour = float64(wall.Microseconds()) / userHours
	}
	return r, nil
}

// countedRun runs the workload once between a GC and two MemStats
// snapshots, reporting its events, allocations, and wall time.
func countedRun(w Workload, seed uint64, workers int) (uint64, uint64, time.Duration, error) {
	if workers == 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	// The wallclock reads below are the one legitimate exception to simdet:
	// this harness times the simulator from the outside, and no simulation
	// decision depends on them.
	t0 := time.Now() //thinlint:allow simdet.wallclock external self-measurement harness, not simulation state
	events, err := w.Run(seed, workers)
	wall := time.Since(t0) //thinlint:allow simdet.wallclock external self-measurement harness, not simulation state
	runtime.ReadMemStats(&after)
	return events, after.Mallocs - before.Mallocs, wall, err
}

// roundTo keeps the deterministic ratios readable in the checked-in JSON
// without losing ratchet resolution.
func roundTo(v float64, digits int) float64 {
	scale := 1.0
	for i := 0; i < digits; i++ {
		scale *= 10
	}
	return float64(int64(v*scale+0.5)) / scale
}
