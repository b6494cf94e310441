package shard

import (
	"reflect"
	"testing"

	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/simclock"
)

// pickerConfig is a small memaware fleet for white-box picker tests.
func pickerConfig(machines []Machine) *Config {
	cfg := &Config{
		Base:     server.DefaultConfig(),
		Machines: machines,
		Users:    1,
		Policy:   PolicyMemAware,
	}
	cfg.Base.Span = simclock.Second
	return cfg
}

// TestPickerReleaseAfterFailover is the occupancy-underflow regression:
// a departure whose event was scheduled before a failover relocated its
// seat reaches release with the dead shard's index after that shard's
// seats were already freed. The unguarded decrement drove occ negative —
// phantom free capacity that pulled every later memaware placement toward
// the dead machine's slot accounting.
func TestPickerReleaseAfterFailover(t *testing.T) {
	pk, err := newPicker(pickerConfig(DefaultFleet(3)), nil)
	if err != nil {
		t.Fatal(err)
	}
	// A populated fleet: two sessions land somewhere, one on shard 1.
	for i := 0; i < 3; i++ {
		if _, err := pk.pick(0); err != nil {
			t.Fatal(err)
		}
	}
	occ1 := pk.occ[1]

	// The failover path: shard 1 dies, its sessions log out (releasing
	// their seats) and relocate. The seats are now free.
	pk.kill(1)
	for i := 0; i < occ1; i++ {
		pk.release(1)
	}
	if pk.occ[1] != 0 {
		t.Fatalf("occ[1] = %d after failover logout, want 0", pk.occ[1])
	}

	// The stale departure: a logout event scheduled pre-kill fires for a
	// seat the failover already released. It must be a no-op.
	pk.release(1)
	if pk.occ[1] != 0 {
		t.Fatalf("occ[1] = %d after stale release, want 0 (underflow regression)", pk.occ[1])
	}

	// With occ clamped at zero, later placements rank the dead shard by
	// its true (zero) population — and never pick it at all.
	for i := 0; i < 4; i++ {
		j, err := pk.pick(0)
		if err != nil {
			t.Fatal(err)
		}
		if j == 1 {
			t.Fatalf("pick %d landed on dead shard 1", i)
		}
	}
}

// TestPickerReleaseBounds exercises the out-of-range guards directly.
func TestPickerReleaseBounds(t *testing.T) {
	pk, err := newPicker(pickerConfig(DefaultFleet(2)), nil)
	if err != nil {
		t.Fatal(err)
	}
	pk.release(-1) // must not panic
	pk.release(2)  // must not panic
	pk.release(0)  // empty shard: must stay at zero
	if pk.occ[0] != 0 || pk.occ[1] != 0 {
		t.Fatalf("occ = %v after no-op releases, want zeros", pk.occ)
	}
}

// TestPickerStandbyAndDrain covers the control-plane placement states:
// a standby machine takes no arrivals until powered on, and a draining
// machine is closed to new placements while its sessions remain.
func TestPickerStandbyAndDrain(t *testing.T) {
	machines := DefaultFleet(3)
	machines[2].Standby = true
	pk, err := newPicker(pickerConfig(machines), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		j, err := pk.pick(0)
		if err != nil {
			t.Fatal(err)
		}
		if j == 2 {
			t.Fatal("placed a session on a standby machine")
		}
	}
	// Powered on at t=5s: placeable only from that instant.
	on := simclock.Time(5 * simclock.Second)
	pk.availAt[2] = on
	if pk.placeable(2, on.Add(-1)) {
		t.Fatal("standby machine placeable before its power-on instant")
	}
	if !pk.placeable(2, on) {
		t.Fatal("standby machine not placeable at its power-on instant")
	}
	// Draining closes a machine without touching its occupancy.
	pk.draining[0] = true
	occ0 := pk.occ[0]
	for i := 0; i < 4; i++ {
		j, err := pk.pick(on)
		if err != nil {
			t.Fatal(err)
		}
		if j == 0 {
			t.Fatal("placed a session on a draining machine")
		}
	}
	if pk.occ[0] != occ0 {
		t.Fatalf("draining changed occ[0]: %d -> %d", occ0, pk.occ[0])
	}
}

// TestClasses: machines share a hardware class when shardConfig gives
// them the same memory and CPU speed, so an override equal to the 64 MB
// base joins the base machine's class, and Standby is a state, not
// hardware.
func TestClasses(t *testing.T) {
	cfg := pickerConfig([]Machine{
		{}, {MemoryMB: 128, CPUSpeed: 1.5}, {MemoryMB: 64}, {CPUSpeed: 1},
		{Standby: true}, {MemoryMB: 48, CPUSpeed: 0.6}, {MemoryMB: 128, CPUSpeed: 1.5},
	})
	if got, want := cfg.classes(), []int{0, 1, 0, 0, 0, 5, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("classes %v, want %v", got, want)
	}
}

// TestProbesFollowOccupancyNotIndex runs a homogeneous lataware rack
// through an office day with a Moved hook that only observes: at every
// occupancy change, any two machines holding the same number of sessions
// must read the same marginal and current p95 estimates, since they are
// one kind of machine. Every estimate is cached under the class
// representative.
func TestProbesFollowOccupancyNotIndex(t *testing.T) {
	base := server.DefaultConfig()
	base.Protocol = "model"
	base.Span = 2 * simclock.Second
	day := schedule.OfficeDay()
	changes := 0
	cfg := Config{
		Base:      base,
		Machines:  make([]Machine, 4),
		Users:     12,
		Policy:    PolicyLatAware,
		Schedule:  &day,
		ProbeSpan: simclock.Second,
		Seed:      1999,
		Control: &ControlHooks{Moved: func(now simclock.Time, v *FleetView, _ int) {
			changes++
			marginal, current := map[int]float64{}, map[int]float64{}
			for j := 0; j < v.Machines(); j++ {
				m, err := v.MarginalP95(j)
				if err != nil {
					t.Fatal(err)
				}
				c, err := v.ShardP95(j)
				if err != nil {
					t.Fatal(err)
				}
				occ := v.Occupancy(j)
				if want, ok := marginal[occ]; ok && (m != want || c != current[occ]) {
					t.Fatalf("at %v machine %d with %d sessions reads %v/%v ms, a peer %v/%v ms",
						now, j, occ, m, c, want, current[occ])
				}
				marginal[occ], current[occ] = m, c
			}
		}},
	}
	walk, err := buildPlans(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if changes == 0 {
		t.Fatal("the office day moved nobody")
	}
	pr := walk.pk.pr
	for k := range pr.cache {
		if pr.class[k.class] != k.class {
			t.Fatalf("cache key %+v does not name a class representative (classes %v)", k, pr.class)
		}
	}
}
