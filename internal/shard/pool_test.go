package shard

import (
	"reflect"
	"sync"
	"testing"

	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/simclock"
)

// TestFleetBuildsOneMachinePerWorker runs a lataware fleet of three
// hardware classes over an office day, so the run probes in a farm
// prefetch, in the walk and in the control hooks before it builds the
// fleet's machines. Every probe and every fleet machine must draw from
// one pool, and the run must never hold more machines at once than it has
// workers: a pool builds a machine from nothing only when every machine
// it built is held, so a run on W workers builds at most W. The result
// must not depend on the worker count.
func TestFleetBuildsOneMachinePerWorker(t *testing.T) {
	var (
		mu         sync.Mutex
		draws      map[*server.Pool]int
		held, peak int
	)
	orig := evaluate
	evaluate = func(pool *server.Pool, cfg server.Config) (server.Result, [][]float64, error) {
		mu.Lock()
		draws[pool]++
		held++
		peak = max(peak, held)
		mu.Unlock()
		defer func() {
			mu.Lock()
			held--
			mu.Unlock()
		}()
		return orig(pool, cfg)
	}
	defer func() { evaluate = orig }()

	base := server.DefaultConfig()
	base.Span = 2 * simclock.Second
	prof := schedule.OfficeDay()
	var ref FleetResult
	for _, workers := range []int{1, 2, 3, 8} {
		cfg := Config{
			Base:      base,
			Machines:  DefaultFleet(6),
			Users:     14,
			Policy:    PolicyLatAware,
			Schedule:  &prof,
			ProbeSpan: 500 * simclock.Millisecond,
			Workers:   workers,
			Seed:      5,
			Control: &ControlHooks{Moved: func(_ simclock.Time, v *FleetView, j int) {
				if _, err := v.ShardP95(j); err != nil {
					t.Error(err)
				}
			}},
		}
		draws, peak = map[*server.Pool]int{}, 0
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Probes <= 3 {
			t.Fatalf("workers=%d: %d probes, want the walk to probe past the prefetch's 3", workers, res.Probes)
		}
		machines := 0
		for _, sr := range res.Shards {
			if sr.P95TimelineMs != nil {
				machines++
			}
		}
		if len(draws) != 1 {
			t.Fatalf("workers=%d: machines drew from %d pools, want one", workers, len(draws))
		}
		for pool, n := range draws {
			if pool == nil || n != res.Probes+machines {
				t.Fatalf("workers=%d: %d machines drew from pool %p, want the %d probes and %d fleet machines from one pool",
					workers, n, pool, res.Probes, machines)
			}
		}
		if peak > min(workers, len(cfg.Machines)) {
			t.Fatalf("workers=%d: %d machines held at once", workers, peak)
		}
		if workers == 1 {
			ref = res
		} else if !reflect.DeepEqual(res, ref) {
			t.Fatalf("workers=%d: the fleet result differs from one worker's", workers)
		}
	}
}
