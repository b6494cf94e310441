// Package farm is the concurrent simulation execution engine of the
// reproduction: it runs N independent simulation bodies — each with its
// own index-derived seed and whatever clock, scheduler, VM, netsim, or
// protocol state the body builds from it — across a bounded number of
// worker goroutines, and returns per-body results in index order.
//
// The unit of parallelism is a whole simulation, not a user session.
// Since the shared-server refactor, concurrent user sessions deliberately
// share one clock, one CPU, one memory pool, and one link inside a single
// server.Server so that they contend — splitting them across workers
// would destroy the contention the paper measures. What fans out across
// the farm instead is the scenario grid: one complete server instance per
// candidate user count and protocol × scheduler combination
// (server.Sweep), one experiment per worker (core.RunAllParallel), one
// machine of a fleet (shard.Run), one run of the claim sweep, and one TCP
// session pipeline per connection (thinserve). A capacity search does
// not fan its probes out: which populations it probes would then depend
// on the worker count, and so would its answer wherever a probe's pass is
// not monotone in the population.
//
// Determinism is the design constraint. Each body derives its seed from
// the root seed and its index (simclock.DeriveSeed), never from which
// worker picks it up; and Run returns results in index order, so a
// caller that folds them in that order on its own goroutine gets a run
// with 8 workers bit-for-bit identical to a run with 1. Bodies share no
// simulation state — shard metrics live in the body and merge in the
// caller's ordered fold — and the farm shares nothing between them.
// Storage a caller wants its bodies to reuse lives with the caller: a
// sweep's or a fleet run's machines come from one server.Pool, whose lock
// a body takes once to build its machine and once to give it back, off
// the simulation's hot path. A machine rebuilt in another's storage runs
// exactly as a new one, so no result depends on which body ran where.
package farm

import (
	"fmt"
	"runtime"
	"sync"

	"thinbench/internal/simclock"
)

// Config sizes a farm run.
type Config struct {
	// Sessions is the number of independent sessions to run.
	Sessions int
	// Workers bounds how many sessions run at once; <= 0 means
	// GOMAXPROCS. The worker count never affects results, only
	// wall-clock time.
	Workers int
	// Seed is the root seed; session i runs with
	// simclock.DeriveSeed(Seed, i).
	Seed uint64
}

// EffectiveWorkers resolves how many workers a run will actually start:
// Workers, defaulted to GOMAXPROCS, clamped to [1, Sessions]. The clamp
// floor means Sessions <= 0 still reports one worker; Run never starts
// that worker — zero sessions is an explicit empty run and
// negative sessions is an error.
func (c Config) EffectiveWorkers() int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > c.Sessions {
		w = c.Sessions
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Session is the per-session context the farm hands to a session body: a
// stable index and a deterministically derived seed. Bodies build any
// per-session state (clocks, random streams, schedulers, VMs, network
// simulators, protocol codecs) from these; no state passes between
// sessions. Each worker hands its bodies one Session in turn, so a body
// must not keep it past its return.
type Session struct {
	// Index is the session's position in [0, Sessions).
	Index int
	// Seed is DeriveSeed(root, Index); use it to seed any per-session
	// randomness.
	Seed uint64
}

// Error reports the failure of one session. When several sessions fail,
// the farm returns the lowest-indexed failure so that the reported error
// does not depend on goroutine scheduling.
type Error struct {
	Index int
	Err   error
}

func (e *Error) Error() string {
	return fmt.Sprintf("farm: session %d: %v", e.Index, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// Run executes body once per session on EffectiveWorkers goroutines,
// which start with the run and end before it returns, and returns the
// per-session results in session-index order. Every session runs even if
// an earlier one fails; on failure the results of failed sessions are
// zero values and the returned error is the lowest-indexed session error.
//
// Zero sessions is a legal empty sweep and returns an empty, non-nil
// slice; a negative session count is always a caller bug (an inverted
// range, an uninitialized config) and fails loudly rather than silently
// running nothing.
func Run[T any](cfg Config, body func(s *Session) (T, error)) ([]T, error) {
	if cfg.Sessions < 0 {
		return nil, fmt.Errorf("farm: negative session count %d", cfg.Sessions)
	}
	if cfg.Sessions == 0 {
		return []T{}, nil
	}
	results := make([]T, cfg.Sessions)

	// Sequential runs (the golden-diffed configuration) execute inline on
	// the caller's goroutine: no channels and no goroutines, and hence no
	// scheduling-dependent runtime allocations to jitter the speed layer's
	// counts. Results are identical either way.
	if cfg.EffectiveWorkers() == 1 {
		s := &Session{}
		var first error
		for i := 0; i < cfg.Sessions; i++ {
			var err error
			results[i], err = runSession(cfg, s, i, body)
			if err != nil && first == nil {
				first = &Error{Index: i, Err: err}
			}
		}
		return results, first
	}

	errs := make([]error, cfg.Sessions)
	indices := make(chan int)
	var wg sync.WaitGroup
	// One Session per worker.
	workers := make([]Session, cfg.EffectiveWorkers())
	work := func(s *Session) {
		defer wg.Done()
		for i := range indices {
			// Each slot is written by exactly one goroutine, so the
			// slices need no locking.
			results[i], errs[i] = runSession(cfg, s, i, body)
		}
	}
	for w := range workers {
		wg.Add(1)
		go work(&workers[w])
	}
	for i := 0; i < cfg.Sessions; i++ {
		indices <- i
	}
	close(indices)
	wg.Wait()

	return results, firstError(errs)
}

// runSession points the worker's Session at session i and invokes the
// body. Panics are deliberately not recovered: a panicking simulation is a
// bug and should crash loudly.
func runSession[T any](cfg Config, s *Session, i int, body func(s *Session) (T, error)) (T, error) {
	s.Index, s.Seed = i, simclock.DeriveSeed(cfg.Seed, uint64(i))
	return body(s)
}

// firstError returns the lowest-indexed session error, wrapped.
func firstError(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return &Error{Index: i, Err: err}
		}
	}
	return nil
}
