// Package core implements the paper's contribution: a structured approach
// for evaluating thin-client server operating systems on user-perceived
// latency. The framework follows the paper's two-step decomposition —
// user behavior generates resource load, and operating system design
// translates load into latency — applied per resource (processor, memory,
// network).
//
// The package also hosts the experiment registry: one runnable experiment
// per table and figure in the paper's evaluation, each wired to the
// simulated substrates (sched, vm, netsim, proto, bitmapcache) and
// producing the same rows or series the paper reports.
//
// The five extension families (contention, shard, churn, schedule,
// control) each have one builder here: it takes the family's typed
// scenario and returns the document the family's thinbench bench mode
// writes, and the family's registry experiments are presets of the same
// scenario, rendered from that document.
//
// Every claim the reproduction makes is one Claim, written here beside
// the code that computes its number: each experiment attaches its claims
// to its Result, and each family document derives its own with Claims.
// The registry tests, the golden test, thinbench's scorecard and the
// claim sweep (BENCH_claims.json) all read those records, and Check is
// the one gate.
package core

import (
	"fmt"
	"sort"
	"strings"

	"thinbench/internal/farm"
	"thinbench/internal/metrics"
)

// System identifies an evaluated operating system configuration.
type System string

// The paper's three systems.
const (
	SystemLinuxX        System = "Linux/X"
	SystemNTWorkstation System = "NT Workstation"
	SystemTSE           System = "NT TSE"
)

// Series is one labeled data series of a figure.
type Series struct {
	Label string
	// XLabel and YLabel name the axes (shared across a figure's series).
	XLabel, YLabel string
	X, Y           []float64
}

// Result is an experiment's output: tables and/or series plus notes
// recording what the paper reports for comparison, and the claims the
// experiment makes about its numbers. Render leaves the claims out;
// thinbench's scorecard prints them.
type Result struct {
	ID     string
	Title  string
	Tables []*metrics.Table
	Series []Series
	Notes  []string
	Claims []Claim
}

// Notef appends a formatted note.
func (r *Result) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render formats the result for terminal output.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, s := range r.Series {
		fmt.Fprintf(&b, "series %q (%s vs %s):\n", s.Label, s.YLabel, s.XLabel)
		for i := range s.X {
			fmt.Fprintf(&b, "  %12.3f  %12.4f\n", s.X[i], s.Y[i])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Config controls experiment execution.
type Config struct {
	// Seed drives all randomness; identical seeds reproduce identical
	// results.
	Seed uint64
	// Quick shortens measurement windows (for smoke tests and benchmarks
	// that iterate). Experiments preserve shape under Quick, with more
	// noise.
	Quick bool
}

// DefaultConfig runs experiments at the paper's measurement durations.
func DefaultConfig() Config { return Config{Seed: 1999} }

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the registry key: the paper's fig1..fig9 and tab1..tab6,
	// the ablations abl1..abl5, cap1, and the extension experiments
	// cont1, shard1, churn1, fail1, day1, storm1 and ctrl1.
	ID string
	// Title describes the artifact.
	Title string
	// Paper summarizes what the paper reports, for side-by-side reading.
	Paper string
	// Run executes the experiment.
	Run func(cfg Config) (*Result, error)
}

var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// Experiments lists all registered experiments sorted by ID.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment sequentially, returning results in ID
// order. It is RunAllParallel with a single worker.
func RunAll(cfg Config) ([]*Result, error) {
	return RunAllParallel(cfg, 1)
}

// RunAllParallel executes every experiment across a farm of the given
// worker count (<= 0 means GOMAXPROCS), returning results in ID order.
// Experiments share no mutable state and each derives all randomness from
// cfg.Seed, so the results are identical to a sequential run — only the
// wall-clock time changes.
func RunAllParallel(cfg Config, workers int) ([]*Result, error) {
	exps := Experiments()
	results, err := farm.Run(farm.Config{Sessions: len(exps), Workers: workers, Seed: cfg.Seed},
		func(s *farm.Session) (*Result, error) {
			r, err := exps[s.Index].Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("experiment %s: %w", exps[s.Index].ID, err)
			}
			return r, nil
		})
	if err != nil {
		return nil, err
	}
	return results, nil
}
