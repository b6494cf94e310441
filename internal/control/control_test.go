package control_test

import (
	"reflect"
	"testing"

	"thinbench/internal/control"
	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/shard"
	"thinbench/internal/simclock"
)

// stormFleet is a deliberately under-provisioned fleet facing an office
// day: two weak machines, model codec for speed, a morning storm that
// overcommits them.
func stormFleet(users int) (shard.Config, *schedule.Profile) {
	base := server.DefaultConfig()
	base.Protocol = "model"
	base.Span = 6 * simclock.Second
	day := schedule.OfficeDay()
	return shard.Config{
		Base:     base,
		Machines: []shard.Machine{{MemoryMB: 48, CPUSpeed: 0.6}, {MemoryMB: 48, CPUSpeed: 0.6}},
		Users:    users,
		Schedule: &day,
		Seed:     7,
	}, &day
}

func sum(counts []int) int {
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

func TestRunRequiresAController(t *testing.T) {
	fleet, _ := stormFleet(8)
	if _, err := control.Run(fleet, control.Config{}); err == nil {
		t.Fatal("control.Run with no controllers should error")
	}
}

// TestAdmissionProtectsTheAdmitted is the control plane's core claim: an
// admission gate holding arrivals at the login screen keeps the latency
// of the users it lets in at or below the uncontrolled fleet's, at the
// cost of queueing delay and turned-away logins — overload moved from
// everyone's keystrokes to the login queue.
func TestAdmissionProtectsTheAdmitted(t *testing.T) {
	const users = 28
	fleet, _ := stormFleet(users)
	open, err := shard.Run(fleet)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := control.Run(fleet, control.Config{
		Admission: &control.Admission{Retry: 500 * simclock.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if gated.DeferredLogins == 0 && gated.RejectedLogins == 0 {
		t.Fatal("an overcommitted storm should queue or reject some logins")
	}
	if gated.PeakUsers <= 0 || gated.PeakUsers > users {
		t.Fatalf("gated peak %d outside (0, %d]", gated.PeakUsers, users)
	}
	// Rejections only remove logins; the gate can never create them.
	openLogins := sum(open.Placement) + open.Arrivals
	gatedLogins := sum(gated.Placement) + gated.Arrivals
	if gatedLogins > openLogins {
		t.Fatalf("gated fleet logged in %d sessions vs open %d", gatedLogins, openLogins)
	}
	if gated.EchoP95Ms > open.EchoP95Ms {
		t.Fatalf("gated p95 %.0f ms > open p95 %.0f ms: admission made the admitted worse",
			gated.EchoP95Ms, open.EchoP95Ms)
	}
	if gated.DeferredLogins > 0 && gated.QueueWaitMaxMs <= 0 {
		t.Fatal("deferred logins with no recorded queue wait")
	}
}

// TestShedderDegradesUnderLoad drives the same storm through the load
// shedder alone and checks it actually moved: tier changes scheduled,
// frames shed on the machines.
func TestShedderDegradesUnderLoad(t *testing.T) {
	fleet, _ := stormFleet(16)
	res, err := control.Run(fleet, control.Config{
		Shedder: &control.Shedder{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TierChanges == 0 {
		t.Fatal("an overloaded fleet should cross the shed threshold at least once")
	}
	if res.SheddedFrames == 0 {
		t.Fatal("degraded tiers should shed probe frames")
	}
	// Nothing here may leak into uncontrolled runs: shedding is the only
	// admitted-population knob, so arrivals match the open fleet's.
	open, err := shard.Run(fleet)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrivals != open.Arrivals || res.Departures != open.Departures {
		t.Fatalf("shedder changed the population: %d/%d arrivals/departures vs %d/%d",
			res.Arrivals, res.Departures, open.Arrivals, open.Departures)
	}
}

// TestAutoscalerPowersOnSpares ramps an office day's morning storm over
// one live machine with two standby spares and checks the autoscaler
// brings capacity up behind the ramp.
func TestAutoscalerPowersOnSpares(t *testing.T) {
	base := server.DefaultConfig()
	base.Protocol = "model"
	base.Span = 6 * simclock.Second
	day := schedule.OfficeDay()
	fleet := shard.Config{
		Base:     base,
		Machines: []shard.Machine{{}, {Standby: true}, {Standby: true}},
		Users:    20,
		Schedule: &day,
		Seed:     11,
	}
	res, err := control.Run(fleet, control.Config{
		Autoscaler: &control.Autoscaler{UpFrac: 0.5, DownFrac: 0.1, ProvisionDelay: 200 * simclock.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Activations == 0 {
		t.Fatal("a ramp past the up threshold should power on a spare")
	}
	spareArrivals := 0
	for _, sh := range res.Shards[1:] {
		spareArrivals += sh.Arrivals
	}
	if spareArrivals == 0 {
		t.Fatal("powered-on spares never hosted an arrival")
	}
}

// TestControlledRunWorkerInvariant is the determinism contract extended
// to the control plane: the same controlled configuration produces a
// deeply identical result at any worker count.
func TestControlledRunWorkerInvariant(t *testing.T) {
	fleet, _ := stormFleet(12)
	c := control.Config{
		Admission: &control.Admission{Retry: 500 * simclock.Millisecond},
		Shedder:   &control.Shedder{},
	}
	fleet.Workers = 1
	one, err := control.Run(fleet, c)
	if err != nil {
		t.Fatal(err)
	}
	fleet.Workers = 8
	eight, err := control.Run(fleet, c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, eight) {
		t.Fatal("controlled fleet result differs between 1 and 8 workers")
	}
}

// TestUncontrolledResultOmitsControlFields pins the baseline-compat
// contract: an uncontrolled run's result must carry zero in every
// control field, so the five pre-existing BENCH baselines serialize
// byte-identically.
func TestUncontrolledResultOmitsControlFields(t *testing.T) {
	fleet, _ := stormFleet(8)
	res, err := shard.Run(fleet)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakUsers != 0 || res.DeferredLogins != 0 || res.RejectedLogins != 0 ||
		res.QueueWaitMeanMs != 0 || res.QueueWaitMaxMs != 0 || res.TierChanges != 0 ||
		res.SheddedFrames != 0 || res.Activations != 0 || res.Drains != 0 {
		t.Fatalf("uncontrolled run carries control stats: %+v", res)
	}
}
