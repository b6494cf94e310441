package server

import (
	"thinbench/internal/farm"
	"thinbench/internal/simclock"
)

// Sweep runs one server instance per configuration across the farm's
// worker pool and returns results in configuration order. The farm's unit
// of parallelism here is a whole server — a complete machine simulation —
// not an individual session: sessions inside each server must share one
// clock to contend, so fan-out happens across the scenario grid (candidate
// user counts, protocol × scheduler combinations) instead.
//
// Any configuration with Seed zero gets a seed derived from root and its
// grid index (simclock.DeriveSeed via the farm), never from worker
// identity, so a sweep is bit-for-bit identical at any worker count. The
// workers build their servers from one Pool, which changes nothing but
// the allocations.
func Sweep(cfgs []Config, workers int, root uint64) ([]Result, error) {
	if len(cfgs) == 0 {
		// An empty grid is a legal no-op sweep, not a degenerate farm run.
		return []Result{}, nil
	}
	var pool Pool
	return farm.Run(farm.Config{Sessions: len(cfgs), Workers: workers, Seed: root},
		func(s *farm.Session) (Result, error) {
			c := cfgs[s.Index]
			if c.Seed == 0 {
				c.Seed = s.Seed
			}
			srv, err := pool.New(c)
			if err != nil {
				return Result{}, err
			}
			res, err := srv.Run()
			if err != nil {
				return Result{}, err
			}
			pool.Put(srv)
			return res, nil
		})
}

// Scenario names one protocol × scheduler combination of a contention
// grid.
type Scenario struct {
	Protocol  string `json:"protocol"`
	Scheduler string `json:"scheduler"`
	// Points is the latency-versus-users series, one Result per
	// candidate user count in ascending order.
	Points []Result `json:"points"`
}

// Grid runs the full contention scenario grid: for every protocol ×
// scheduler combination, a latency-versus-users series over the candidate
// counts. All points across all scenarios fan out through one farm pool.
//
// Every point shares one root-derived seed — common random numbers. A
// server derives user i's phase from (seed, i), so the n+1-user point
// keeps the first n users' behavior bit-identical and strictly adds one
// more: series degrade monotonically instead of wobbling with per-point
// sampling noise, and protocol/scheduler columns compare the same
// population.
func Grid(base Config, protocols, schedulers []string, users []int, workers int, root uint64) ([]Scenario, error) {
	if len(protocols) == 0 || len(schedulers) == 0 || len(users) == 0 {
		// Any empty axis empties the whole grid; return an explicit empty
		// result rather than scenarios with zero rows.
		return []Scenario{}, nil
	}
	seed := simclock.DeriveSeed(root, 0x9d1d)
	var cfgs []Config
	for _, p := range protocols {
		for _, s := range schedulers {
			for _, n := range users {
				c := base
				c.Protocol, c.Scheduler, c.Users = p, s, n
				c.Seed = seed
				cfgs = append(cfgs, c)
			}
		}
	}
	results, err := Sweep(cfgs, workers, root)
	if err != nil {
		return nil, err
	}
	var out []Scenario
	i := 0
	for _, p := range protocols {
		for _, s := range schedulers {
			sc := Scenario{Protocol: p, Scheduler: s}
			for range users {
				sc.Points = append(sc.Points, results[i])
				i++
			}
			out = append(out, sc)
		}
	}
	return out, nil
}
