package benchdoc

import (
	"fmt"

	"thinbench/internal/control"
	"thinbench/internal/schedule"
	"thinbench/internal/shard"
	"thinbench/internal/simclock"
	"thinbench/internal/sizing"
)

// ControlDoc is the control-plane result (BENCH_control.json): per
// arrival profile, the offline oracle's capacity answer next to four
// fleet runs of the same demand on the same machine model — open
// (uncontrolled), admission-gated, admission plus load shedding, and
// autoscaled from standby spares. The point of the document is the
// trade it prices: an oracle-provisioned fleet needs MachinesNeeded
// boxes for the storm's peak, while the controlled fleet holds the
// budget on fewer by moving the overload into login-screen queueing.
type ControlDoc struct {
	Command string  `json:"command"`
	Seed    uint64  `json:"seed"`
	SpanSec float64 `json:"span_sec"`
	// Machines is the live fleet size; the autoscale run adds the same
	// number again as standby spares.
	Machines int `json:"machines"`
	// UserProfile is the sizing profile every seat runs; the fleet's
	// base machine is sizing.ProbeConfig for it, so the oracle and the
	// controllers judge the identical machine.
	UserProfile string           `json:"user_profile"`
	BudgetMs    float64          `json:"budget_ms"`
	Profiles    []ControlProfile `json:"profiles"`
}

// ControlProfile is one arrival profile's oracle answer and fleet runs.
type ControlProfile struct {
	Profile    string `json:"profile"`
	Definition string `json:"definition"`
	// OracleSeats is sizing.ScheduleCapacity's per-machine answer for
	// this profile (worst-slice p95 within budget), FleetSeats that
	// times the live machines, and OracleLimit the resource binding at
	// OracleSeats+1.
	OracleSeats int    `json:"oracle_seats_per_machine"`
	OracleLimit string `json:"oracle_limit"`
	FleetSeats  int    `json:"oracle_fleet_seats"`
	// Demand is the seat count actually offered — 1.5x FleetSeats when
	// derived — and MachinesNeeded is the oracle's overprovisioning
	// answer for it: the machines required to serve every seat within
	// budget at the storm's peak.
	Demand         int `json:"demand"`
	MachinesNeeded int `json:"machines_needed"`

	Open       shard.FleetResult `json:"open"`
	Admission  shard.FleetResult `json:"admission"`
	Controlled shard.FleetResult `json:"controlled"`
	Autoscale  shard.FleetResult `json:"autoscale"`
}

// controlRetry is the admission deferral quantum on the compressed
// 10-second day — fine enough that queue waits resolve against the
// storm, coarse enough that a held login is visibly a held login.
const controlRetry = 500 * simclock.Millisecond

// Control runs the offline-oracle-versus-online-controller comparison
// on each arrival profile: ScheduleCapacity sizes one machine for the
// profile's worst slice, then the same demand runs open, admission-
// gated, gated-plus-shedding, and autoscaled (the live machines plus as
// many standby spares, powered on behind the ramp). demand 0 derives
// 1.5x the oracle's fleet seats per profile.
func Control(profiles string, machines, demand int, quick bool, seed uint64, workers int) (ControlDoc, error) {
	profileList := SplitList(profiles)
	if len(profileList) == 0 {
		return ControlDoc{}, fmt.Errorf("empty -profile list")
	}
	if machines < 1 {
		return ControlDoc{}, fmt.Errorf("bad -shards count %d (want >= 1)", machines)
	}
	if demand < 0 {
		return ControlDoc{}, fmt.Errorf("bad -users %d (0 derives demand from the oracle)", demand)
	}
	srv := sizing.DefaultServer()
	// A 48 MB box: the §5.1.1 memory division is the operative limit, the
	// cliff both the offline oracle and the gate's marginal probes see.
	srv.PhysicalKB = 48 * 1024
	user := sizing.Developer()
	span := 10 * simclock.Second
	probeSpan := 2 * simclock.Second
	if quick {
		span = 6 * simclock.Second
		probeSpan = simclock.Second
	}
	doc := ControlDoc{
		Command: fmt.Sprintf("thinbench -run control -shards %d -profile %s -users %d -seed %d -quick=%v",
			machines, profiles, demand, seed, quick),
		Seed:        seed,
		SpanSec:     span.Seconds(),
		Machines:    machines,
		UserProfile: user.Name,
		BudgetMs:    sizing.DefaultLatencyBudget.Milliseconds(),
	}
	// The latency capacity can never exceed the memory-only division,
	// so twice it safely brackets every profile's oracle search.
	maxSeats := 2 * sizing.MemoryCapacity(srv, user)
	for _, spec := range profileList {
		prof, err := ResolveProfile(spec)
		if err != nil {
			return ControlDoc{}, err
		}
		oracle, limit, err := sizing.ScheduleCapacity(srv, user, prof, maxSeats, span, seed, workers)
		if err != nil {
			return ControlDoc{}, err
		}
		seats := oracle.Users
		cp := ControlProfile{
			Profile:     prof.Name,
			Definition:  schedule.Format(prof),
			OracleSeats: seats,
			OracleLimit: string(limit),
			FleetSeats:  machines * seats,
			Demand:      demand,
		}
		if cp.Demand == 0 {
			cp.Demand = cp.FleetSeats + (cp.FleetSeats+1)/2
		}
		if seats > 0 {
			cp.MachinesNeeded = (cp.Demand + seats - 1) / seats
		}
		fleet := shard.Config{
			Base:      sizing.ProbeConfig(srv, user, 1, span, seed),
			Machines:  make([]shard.Machine, machines),
			Users:     cp.Demand,
			Schedule:  &prof,
			ProbeSpan: probeSpan,
			Workers:   workers,
			Seed:      seed,
		}
		if cp.Open, err = shard.Run(fleet); err != nil {
			return ControlDoc{}, err
		}
		gate := &control.Admission{Retry: controlRetry}
		if cp.Admission, err = control.Run(fleet, control.Config{Admission: gate}); err != nil {
			return ControlDoc{}, err
		}
		if cp.Controlled, err = control.Run(fleet, control.Config{Admission: gate, Shedder: &control.Shedder{}}); err != nil {
			return ControlDoc{}, err
		}
		// The autoscaled fleet starts with the same live machines plus
		// as many standby spares; capacity follows the ramp instead of
		// being racked for it, with the gate covering the boot delay.
		auto := fleet
		auto.Machines = make([]shard.Machine, 2*machines)
		for j := machines; j < len(auto.Machines); j++ {
			auto.Machines[j].Standby = true
		}
		cp.Autoscale, err = control.Run(auto, control.Config{
			Admission:  gate,
			Autoscaler: &control.Autoscaler{UpFrac: 0.75, DownFrac: 0.25, ProvisionDelay: controlRetry},
		})
		if err != nil {
			return ControlDoc{}, err
		}
		doc.Profiles = append(doc.Profiles, cp)
	}
	return doc, nil
}
