// Package thinbench is a reproduction, as a Go library, of Wong & Seltzer,
// "Operating System Support for Multi-User, Remote, Graphical Interaction"
// (USENIX Annual Technical Conference 2000).
//
// The paper is a measurement study of thin-client server operating systems
// — Windows NT Terminal Server Edition versus Linux with the X Window
// System — organized around one idea: user behavior generates resource
// load, and operating system design translates that load into
// user-perceived latency. This package provides that evaluation framework
// plus simulated implementations of every system the paper measures:
//
//   - a CPU scheduler simulator with the NT/TSE policy (priority levels,
//     30 ms quanta, quantum stretching, GUI wake boosts, balance-set
//     anti-starvation), the paper's round-robin model of Linux, and the
//     SVR4 interactive-class scheduler of Evans et al.;
//   - a virtual memory simulator (frame pool, clock replacement, swap cost
//     model) reproducing the §5.2 paging pathology and its fixes;
//   - a shared-Ethernet network simulator for the load/latency/jitter
//     relationship of Figures 8-9;
//   - three remote display protocols over real byte streams: RDP-like
//     (orders, batching, RLE, glyph and bitmap caches), X11-like (verbose
//     requests, 32-byte events), and LBX-like (transcoding, DEFLATE,
//     chunking);
//   - the 1.5 MB LRU client bitmap cache and a loop-aware extension;
//   - workload generators for every behavior in the paper (keystroke
//     repeat, office applications, banner ads, marquee tickers, looping
//     animations, CPU sinks, memory streamers).
//
// Every table and figure in the paper's evaluation is a registered
// Experiment; run them all with RunAll or individually via Lookup. The
// cmd/thinbench command is a CLI front end over the same registry.
package thinbench

import (
	"thinbench/internal/core"
	"thinbench/internal/simclock"
)

// Config controls experiment execution: the random seed (identical seeds
// reproduce identical results bit-for-bit) and the Quick flag, which
// shortens measurement windows while preserving every result's shape.
type Config = core.Config

// Experiment is one reproducible table or figure from the paper.
type Experiment = core.Experiment

// Result is an experiment's output: tables, series, and notes comparing
// against what the paper reports, and the claims it makes about its
// numbers.
type Result = core.Result

// Series is one labeled data series of a figure.
type Series = core.Series

// System identifies an evaluated operating system configuration.
type System = core.System

// The paper's three systems.
const (
	SystemLinuxX        = core.SystemLinuxX
	SystemNTWorkstation = core.SystemNTWorkstation
	SystemTSE           = core.SystemTSE
)

// PerceptionThreshold is the human perception limit the paper evaluates
// latency against: users are "generally irritated by latencies 100ms or
// greater".
const PerceptionThreshold = 100 * simclock.Millisecond

// DefaultConfig runs experiments at the paper's measurement durations with
// the default seed.
func DefaultConfig() Config { return core.DefaultConfig() }

// QuickConfig runs experiments with shortened measurement windows, for
// smoke tests and benchmarks.
func QuickConfig() Config { return Config{Seed: 1999, Quick: true} }

// Experiments lists every registered experiment (figures fig1..fig9,
// tables tab1..tab6, ablations abl1..abl5, cap1, and the extension
// experiments cont1, shard1, churn1, fail1, day1, storm1 and ctrl1),
// sorted by ID.
func Experiments() []Experiment { return core.Experiments() }

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) { return core.Lookup(id) }

// Run executes one experiment by ID.
func Run(id string, cfg Config) (*Result, error) {
	exp, ok := core.Lookup(id)
	if !ok {
		return nil, &UnknownExperimentError{ID: id}
	}
	return exp.Run(cfg)
}

// RunAll executes every experiment in ID order.
func RunAll(cfg Config) ([]*Result, error) { return core.RunAll(cfg) }

// RunAllParallel executes every experiment across a concurrent session
// farm of the given worker count (<= 0 means GOMAXPROCS). Results are
// identical to RunAll — experiments are deterministic in the seed and
// share no state — only wall-clock time changes.
func RunAllParallel(cfg Config, workers int) ([]*Result, error) {
	return core.RunAllParallel(cfg, workers)
}

// UnknownExperimentError reports a Run call with an unregistered ID.
type UnknownExperimentError struct{ ID string }

func (e *UnknownExperimentError) Error() string {
	return "thinbench: unknown experiment " + e.ID
}

// Duration re-exports the simulator's virtual time span type for callers
// configuring custom scenarios through the examples.
type Duration = simclock.Duration

// Common duration units.
const (
	Microsecond = simclock.Microsecond
	Millisecond = simclock.Millisecond
	Second      = simclock.Second
)
