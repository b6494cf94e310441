// Package speed counts what the simulator itself does: canonical
// workloads spanning the repo's layers (one contended server, a sharded
// fleet, a scheduled office day, a controlled fleet placed by probes)
// measured for simulator events, placement-probe events, and allocations
// per event.
//
// The event counts are deterministic — same seed, same binary, same
// numbers — so they golden-diff in CI like any other BENCH baseline; the
// allocation counts, stable under Measure's estimator, ratchet, both in
// total and split by the layer (internal package) that allocated. Wall
// clock is the bench/ module's job, with medians, quartiles and
// alternating pairs on a named machine.
package speed

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"

	"thinbench/internal/control"
	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/shard"
	"thinbench/internal/simclock"
	"thinbench/internal/sizing"
)

// Workload is one canonical speed scenario.
type Workload struct {
	// Name identifies the scenario in BENCH_speed.json.
	Name string
	// Users is the simulated population.
	Users int
	// Span is the simulated duration.
	Span simclock.Duration

	run func(seed uint64, workers int) (events, probeEvents uint64, err error)
}

// Run executes the workload once and reports how many simulator events
// its machines dispatched and, apart, how many its placement probes did.
func (w Workload) Run(seed uint64, workers int) (events, probeEvents uint64, err error) {
	return w.run(seed, workers)
}

// Workloads returns the canonical scenarios, sized to match the other
// BENCH baselines: cont1 is the contention sweep's largest single-server
// point, fleet the churn baseline's static population on the heterogeneous
// 3-machine fleet, officeday the schedule baseline's trace-driven day, and
// bigfleet the scale proof — 1,040 users riding the office-day profile
// across 40 heterogeneous machines, roughly the population of a small
// campus on one simulated fleet. gated is the one that probes: the bench's
// gated_day, 240 developer seats on 12 live and 12 standby 48 MB machines
// under lataware placement and all three controllers. quick shortens the
// simulated spans for smoke runs.
func Workloads(quick bool) []Workload {
	span := 10 * simclock.Second
	if quick {
		span = 3 * simclock.Second
	}
	cont1 := Workload{Name: "cont1", Users: 16, Span: span}
	cont1.run = func(seed uint64, workers int) (uint64, uint64, error) {
		cfg := server.DefaultConfig()
		cfg.Users = cont1.Users
		cfg.Protocol = "rdp"
		cfg.Scheduler = "rr"
		cfg.Span = cont1.Span
		cfg.Seed = seed
		srv, err := server.New(cfg)
		if err != nil {
			return 0, 0, err
		}
		res, err := srv.Run()
		return res.SimEvents, 0, err
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
	fleet.run = func(seed uint64, workers int) (uint64, uint64, error) {
		return fleetRun(shard.Run(fleetCfg(fleet.Users, fleet.Span, seed, workers)))
	}

	officeday := Workload{Name: "officeday", Users: 15, Span: span}
	officeday.run = func(seed uint64, workers int) (uint64, uint64, error) {
		prof, ok := schedule.Builtin("officeday")
		if !ok {
			return 0, 0, fmt.Errorf("speed: builtin profile officeday missing")
		}
		cfg := fleetCfg(officeday.Users, officeday.Span, seed, workers)
		cfg.Schedule = &prof
		return fleetRun(shard.Run(cfg))
	}

	bigfleet := Workload{Name: "bigfleet", Users: 1040, Span: span}
	bigfleet.run = func(seed uint64, workers int) (uint64, uint64, error) {
		prof, ok := schedule.Builtin("officeday")
		if !ok {
			return 0, 0, fmt.Errorf("speed: builtin profile officeday missing")
		}
		cfg := fleetCfg(bigfleet.Users, bigfleet.Span, seed, workers)
		cfg.Machines = shard.DefaultFleet(40)
		cfg.Schedule = &prof
		return fleetRun(shard.Run(cfg))
	}

	gated := Workload{Name: "gated", Users: 240, Span: span}
	gated.run = func(seed uint64, workers int) (uint64, uint64, error) {
		srv := sizing.DefaultServer()
		srv.PhysicalKB = 48 * 1024
		machines := make([]shard.Machine, 24)
		for j := 12; j < len(machines); j++ {
			machines[j].Standby = true
		}
		prof := schedule.OfficeDay()
		cfg := shard.Config{
			Base:      sizing.ProbeConfig(srv, sizing.Developer(), 1, gated.Span, seed),
			Machines:  machines,
			Users:     gated.Users,
			Policy:    shard.PolicyLatAware,
			Schedule:  &prof,
			ProbeSpan: 2 * simclock.Second,
			Workers:   workers,
			Seed:      seed,
		}
		return fleetRun(control.Run(cfg, control.Config{
			Admission:  &control.Admission{Retry: 500 * simclock.Millisecond},
			Shedder:    &control.Shedder{},
			Autoscaler: &control.Autoscaler{UpFrac: 0.75, DownFrac: 0.25, ProvisionDelay: 500 * simclock.Millisecond},
		}))
	}

	return []Workload{cont1, fleet, officeday, bigfleet, gated}
}

// fleetRun reads a fleet run's shard and probe events.
func fleetRun(fr shard.FleetResult, err error) (uint64, uint64, error) {
	return fr.SimEvents, fr.ProbeEvents, err
}

// Report is one workload's measured counts. SimEvents and ProbeEvents
// are deterministic and golden-diffed; Allocs, AllocBytes and
// AllocsPerEvent are stable at workers=1 and ratcheted. ProbeEvents is
// the placement probes' work, apart from the fleet's SimEvents and zero
// for a workload that never probes; Allocs covers both, so AllocsPerEvent
// divides by their sum. AllocBytes is the bytes those allocations asked
// for: a few large arrays can hold most of a run's bytes while adding
// little to its count. Layers splits one more run's allocations by layer
// (see Measure); it is nil under the race detector.
type Report struct {
	Name           string                 `json:"name"`
	Users          int                    `json:"users"`
	SpanSec        float64                `json:"span_sec"`
	SimEvents      uint64                 `json:"sim_events"`
	ProbeEvents    uint64                 `json:"probe_events,omitempty"`
	Allocs         uint64                 `json:"allocs"`
	AllocBytes     uint64                 `json:"alloc_bytes"`
	AllocsPerEvent float64                `json:"allocs_per_event"`
	Layers         map[string]LayerAllocs `json:"layers"`
}

// LayerAllocs is one layer's share of a run's allocations: how many it
// made and the bytes they asked for.
type LayerAllocs struct {
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

// Measure counts one workload's events and allocations,
// testing.AllocsPerRun-style: a warm-up run flushes lazy initialization
// (protocol tables, farm machinery) out of the measured window, then
// three counted runs each execute between a GC and two MemStats
// snapshots. Mallocs is process-global, so callers needing exact
// allocation counts must not run concurrent work (in tests: no
// t.Parallel, workers=1).
//
// The allocation count and bytes each report the minimum of the three
// runs, because a few runtime-internal allocations depend on GC timing.
// Each counted run therefore switches the collector off after its opening
// GC, so no cycle lands inside the window however small the run's heap;
// the heap grows by the run's whole allocation instead (under 2 MB for
// bigfleet, whose 40 machines one worker builds in one another's
// storage). At workers=1 the counted runs also hold GOMAXPROCS at 1,
// which takes the background GC workers' scheduling out of the count;
// with that and the minimum, the count and bytes are the same on every
// run at any GOMAXPROCS the process started with.
//
// A fourth run, under the same protocol, splits the allocations by layer
// (see layerRun). It profiles every allocation, which the race detector's
// own allocations would swamp, so a race build skips it.
func Measure(w Workload, seed uint64, workers int) (Report, error) {
	if _, _, err := w.Run(seed, workers); err != nil {
		return Report{}, err
	}
	r := Report{Name: w.Name, Users: w.Users, SpanSec: w.Span.Seconds()}
	for i := 0; i < 3; i++ {
		ev, pev, a, bytes, err := countedRun(w, seed, workers)
		if err != nil {
			return Report{}, err
		}
		if i == 0 || a < r.Allocs {
			r.Allocs = a
		}
		if i == 0 || bytes < r.AllocBytes {
			r.AllocBytes = bytes
		}
		r.SimEvents, r.ProbeEvents = ev, pev
	}
	if all := r.SimEvents + r.ProbeEvents; all > 0 {
		r.AllocsPerEvent = roundTo(float64(r.Allocs)/float64(all), 4)
	}
	if !RaceEnabled {
		layers, err := layerRun(w, seed, workers)
		if err != nil {
			return Report{}, err
		}
		r.Layers = layers
	}
	return r, nil
}

// internalPrefix is the import path prefix of the simulator's layers.
const internalPrefix = "thinbench/internal/"

// layerRun runs the workload once with every allocation profiled
// (runtime.MemProfileRate 1), the collector off and, at workers=1,
// GOMAXPROCS at 1, as countedRun does, and credits each allocation to the
// layer of the innermost frame on its stack, inlined frames included,
// that lies in a thinbench/internal package: "server", "proto/rdp" and
// so on, or "other" when no such frame is on the stack; every 16-byte
// allocation goes to the "class16" pool instead (see splitLayers). The
// memory profile's counts are cumulative, so the run's share is each
// layer's sum after the run less its sum before. It restores the profile
// rate before it returns.
func layerRun(w Workload, seed uint64, workers int) (map[string]LayerAllocs, error) {
	if workers == 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := layerSums()
	if _, _, err := w.Run(seed, workers); err != nil {
		return nil, err
	}
	layers := make(map[string]LayerAllocs)
	for layer, a := range layerSums() {
		b := before[layer]
		if a.Allocs > b.Allocs {
			layers[layer] = LayerAllocs{Allocs: a.Allocs - b.Allocs, AllocBytes: a.AllocBytes - b.AllocBytes}
		}
	}
	return layers, nil
}

// layerSums reads the memory profile as of a fresh collection and sums its
// cumulative allocations by layer (see splitLayers).
func layerSums() map[string]LayerAllocs {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+n/4+64)
	}
	return splitLayers(recs)
}

// class16 is the entry that pools every 16-byte allocation, whatever its
// layer. Go's allocator packs pointer-free allocations under 16 bytes into
// shared 16-byte blocks, and the profile records only the allocation that
// opens a block, so the layer a packed allocation is credited to depends
// on which layer opened the block before it. The profile cannot tell such
// a block from a genuine 16-byte object, since both are 16 bytes, so the
// whole size class is pooled: a rise in it is named as the pool, and every
// named layer counts only the allocations the profile records one for one.
const class16 = "class16"

// splitLayers sums memory-profile records by layer (see layerRun), every
// record of 16-byte objects into class16. A profile bucket is keyed by
// stack and object size, so each record holds objects of one size. It
// skips allocations made under layerSums itself, its record buffer and
// its map: the profile publishes them at the next collection, so the next
// read would count them as the run's.
func splitLayers(recs []runtime.MemProfileRecord) map[string]LayerAllocs {
	sums := make(map[string]LayerAllocs)
	for i := range recs {
		r := &recs[i]
		layer, self := frameLayer(r.Stack())
		if self {
			continue
		}
		if r.AllocBytes == 16*r.AllocObjects {
			layer = class16
		}
		s := sums[layer]
		s.Allocs += uint64(r.AllocObjects)
		s.AllocBytes += uint64(r.AllocBytes)
		sums[layer] = s
	}
	return sums
}

// frameLayer names the layer of an allocation's stack (see layerRun) and
// reports whether layerSums is on it.
func frameLayer(stack []uintptr) (layer string, self bool) {
	frames := runtime.CallersFrames(stack)
	for {
		f, more := frames.Next()
		if f.Function == internalPrefix+"speed.layerSums" {
			return "", true
		}
		if rest, ok := strings.CutPrefix(f.Function, internalPrefix); ok && layer == "" {
			layer, _, _ = strings.Cut(rest, ".")
		}
		if !more {
			break
		}
	}
	if layer == "" {
		layer = "other"
	}
	return layer, false
}

// countedRun runs the workload once between a GC and two MemStats
// snapshots, reporting its shard and probe events, its allocations and
// the bytes they asked for.
func countedRun(w Workload, seed uint64, workers int) (events, probeEvents, allocs, bytes uint64, err error) {
	if workers == 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	events, probeEvents, err = w.Run(seed, workers)
	runtime.ReadMemStats(&after)
	return events, probeEvents, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
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
