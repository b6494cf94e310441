package shard

import (
	"reflect"
	"sync/atomic"
	"testing"

	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/simclock"
)

// TestFleetBuildsOneMachinePerWorker runs a lataware fleet of three
// hardware classes over an office day, so the run probes in a farm
// prefetch, in the walk and in the control hooks before it builds the
// fleet's machines, and counts the machines built from nothing: at most
// one per worker, since every later machine is built in a finished one.
// The result must not depend on the worker count.
func TestFleetBuildsOneMachinePerWorker(t *testing.T) {
	var fresh atomic.Int64
	orig := evaluate
	evaluate = func(spare *server.Server, cfg server.Config) (server.Result, *server.Server, error) {
		if spare == nil {
			fresh.Add(1)
		}
		return orig(spare, cfg)
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
		fresh.Store(0)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Probes <= 3 {
			t.Fatalf("workers=%d: %d probes, want the walk to probe past the prefetch's 3", workers, res.Probes)
		}
		if n := fresh.Load(); n > int64(min(workers, len(cfg.Machines))) {
			t.Fatalf("workers=%d: %d machines built from nothing", workers, n)
		}
		if workers == 1 {
			ref = res
		} else if !reflect.DeepEqual(res, ref) {
			t.Fatalf("workers=%d: the fleet result differs from one worker's", workers)
		}
	}
}
