package server

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"thinbench/internal/farm"
	"thinbench/internal/simclock"
)

// TestPoolLendsEachMachineToOneBody runs machines of several sizes and
// codecs on a W-worker farm whose bodies share one Pool: each body builds
// its machine from the pool, runs it and gives it back. No machine may be
// in two bodies at once, the pool may build at most W machines from
// nothing, one per body running at once, every machine must come back,
// and every result must equal New's.
func TestPoolLendsEachMachineToOneBody(t *testing.T) {
	var cfgs []Config
	for _, n := range []int{1, 3, 6, 2, 5, 4} {
		for _, proto := range []string{"rdp", "model"} {
			c := quick()
			c.Span = simclock.Second
			c.Users, c.Protocol = n, proto
			cfgs = append(cfgs, c)
		}
	}
	want := make([]Result, len(cfgs))
	for i, c := range cfgs {
		want[i] = mustRun(t, c)
	}
	for _, workers := range []int{1, 3} {
		var pool Pool
		var mu sync.Mutex
		// holder is the body holding each machine the pool built, -1 while
		// the machine waits in the pool.
		holder := map[*Server]int{}
		got, err := farm.Run(farm.Config{Sessions: len(cfgs), Workers: workers}, func(s *farm.Session) (Result, error) {
			srv, err := pool.New(cfgs[s.Index])
			if err != nil {
				return Result{}, err
			}
			mu.Lock()
			h, seen := holder[srv]
			holder[srv] = s.Index
			mu.Unlock()
			if seen && h >= 0 {
				return Result{}, fmt.Errorf("body %d was lent the machine body %d holds", s.Index, h)
			}
			runtime.Gosched()
			res, err := srv.Run()
			if err != nil {
				return Result{}, err
			}
			mu.Lock()
			holder[srv] = -1
			mu.Unlock()
			pool.Put(srv)
			return res, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: machines built from the pool differ from New's", workers)
		}
		if len(holder) > workers {
			t.Fatalf("workers=%d: the pool built %d machines from nothing", workers, len(holder))
		}
		idle := 0
		for s := pool.idle; s != nil; s = s.nextIdle {
			idle++
		}
		if idle != len(holder) {
			t.Fatalf("workers=%d: %d machines built, %d back in the pool", workers, len(holder), idle)
		}
	}
}
