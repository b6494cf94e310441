package core

import (
	"math"

	"thinbench/internal/control"
	"thinbench/internal/schedule"
	"thinbench/internal/shard"
	"thinbench/internal/simclock"
	"thinbench/internal/sizing"
)

func init() {
	register(Experiment{
		ID:    "ctrl1",
		Title: "Online admission control versus the offline sizing oracle",
		Paper: "Beyond the paper's offline sizing question (§5): the paper asks how many users a machine supports before the day starts; this asks what a live controller achieves deciding login by login with no knowledge of the day. The oracle sizes for the 9 AM storm's worst minute, so serving everyone means overprovisioning for a transient; the admission gate instead holds the excess at the login screen, trading racked machines for queueing delay.",
		Run:   runCtrl1,
	})
}

// Control is the control family's scenario: per arrival profile,
// ScheduleCapacity sizes one machine for the profile's worst slice, then
// the same demand runs open, admission-gated, gated-plus-shedding, and
// autoscaled (the live machines plus as many standby spares, powered on
// behind the ramp). Demand 0 derives 1.5x the oracle's fleet seats per
// profile.
type Control struct {
	Machines        int
	Demand          int
	Profiles        []schedule.Profile
	Span, ProbeSpan simclock.Duration
}

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

// Build sizes and runs every profile.
func (s Control) Build(seed uint64, workers int) (ControlDoc, error) {
	srv := sizing.DefaultServer()
	// A 48 MB box: the §5.1.1 memory division is the operative limit, the
	// cliff both the offline oracle and the gate's marginal probes see.
	srv.PhysicalKB = 48 * 1024
	user := sizing.Developer()
	doc := ControlDoc{
		Seed:        seed,
		SpanSec:     s.Span.Seconds(),
		Machines:    s.Machines,
		UserProfile: user.Name,
		BudgetMs:    sizing.DefaultLatencyBudget.Milliseconds(),
	}
	// The latency capacity can never exceed the memory-only division,
	// so twice it safely brackets every profile's oracle search.
	maxSeats := 2 * sizing.MemoryCapacity(srv, user)
	for _, prof := range s.Profiles {
		oracle, limit, err := sizing.ScheduleCapacity(srv, user, prof, maxSeats, s.Span, seed)
		if err != nil {
			return ControlDoc{}, err
		}
		seats := oracle.Users
		cp := ControlProfile{
			Profile:     prof.Name,
			Definition:  schedule.Format(prof),
			OracleSeats: seats,
			OracleLimit: string(limit),
			FleetSeats:  s.Machines * seats,
			Demand:      s.Demand,
		}
		if cp.Demand == 0 {
			cp.Demand = cp.FleetSeats + (cp.FleetSeats+1)/2
		}
		if seats > 0 {
			cp.MachinesNeeded = (cp.Demand + seats - 1) / seats
		}
		if cp.Demand == 0 {
			// The oracle fits no seats, so no demand derives from it: the
			// profile records the answer with no fleet runs, and its
			// claims fail.
			doc.Profiles = append(doc.Profiles, cp)
			continue
		}
		fleet := shard.Config{
			Base:      sizing.ProbeConfig(srv, user, 1, s.Span, seed),
			Machines:  make([]shard.Machine, s.Machines),
			Users:     cp.Demand,
			Schedule:  &prof,
			ProbeSpan: s.ProbeSpan,
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
		auto.Machines = make([]shard.Machine, 2*s.Machines)
		for j := s.Machines; j < len(auto.Machines); j++ {
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

// Claims: on every profile the oracle fits seats, the open run carries
// no control fields, the gate holds some logins without making the
// admitted worse off than the open fleet, and the gated peak lands within
// ctrl1Margin of the oracle's fleet seats either way.
func (d ControlDoc) Claims() []Claim {
	if len(d.Profiles) == 0 {
		return nil
	}
	seats, leaked, gap, held, factor := math.Inf(1), 0.0, math.Inf(-1), math.Inf(1), 0.0
	for _, cp := range d.Profiles {
		open, gated := cp.Open, cp.Admission
		seats = min(seats, float64(cp.OracleSeats))
		leaked = max(leaked, float64(open.PeakUsers+open.DeferredLogins))
		gap = max(gap, gated.EchoP95Ms-open.EchoP95Ms)
		held = min(held, float64(gated.DeferredLogins+gated.RejectedLogins))
		r := float64(gated.PeakUsers) / float64(cp.FleetSeats)
		factor = max(factor, r, 1/r)
	}
	return []Claim{
		{ID: "control.oracle_seats", Statement: "the fewest seats per machine the oracle fits on any profile",
			Value: seats, Unit: "seats", Band: atLeast(1)},
		{ID: "control.open_uncontrolled", Statement: "admission fields (peak users, deferred logins) the open runs record",
			Value: leaked, Unit: "count", Band: exactly(0)},
		{ID: "control.gated_vs_open", Statement: "gated fleet p95 minus open, on the profile where the gate helps least",
			Value: gap, Unit: "ms", Band: atMost(0)},
		{ID: "control.gate_held", Statement: "deferred plus rejected logins on the profile where the gate held fewest",
			Value: held, Unit: "logins", Band: atLeast(1)},
		{ID: "control.peak_vs_oracle", Statement: "the gated peak over the oracle's fleet seats, either way, on the worst profile",
			Value: factor, Unit: "x", Band: atMost(ctrl1Margin)},
	}
}

// ctrl1Margin is the stated controller-versus-oracle margin: the gated
// fleet's peak admitted population must land within this factor of the
// oracle's fleet seats, in either direction. The two answer different
// questions — worst-slice capacity for a known day versus greedy
// admission against steady-state probes — so they agree to a factor,
// not a seat.
const ctrl1Margin = 1.5

// ctrl1 offers 1.5x the oracle's fleet-wide answer to a two-machine
// fleet of the oracle's machine model, on the office day and the shift
// handover.
func ctrl1(cfg Config) Control {
	s := Control{Machines: 2, Profiles: []schedule.Profile{schedule.OfficeDay(), schedule.ShiftChange()}, Span: 10 * simclock.Second, ProbeSpan: 2 * simclock.Second}
	if cfg.Quick {
		s.Span, s.ProbeSpan = 6*simclock.Second, simclock.Second
	}
	return s
}

// runCtrl1 compares the admission controller against the offline
// schedule oracle: the same overcommitted demand runs open and gated,
// and the notes price the alternative — how many machines the oracle
// would rack to serve it all within budget versus the queueing delay the
// gate charges instead. The shedding and autoscaling runs go unused.
func runCtrl1(cfg Config) (*Result, error) {
	doc, err := ctrl1(cfg).Build(cfg.Seed, 0)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "ctrl1", Title: "Admission-gated fleet p95 versus open overload, priced against oracle provisioning"}
	for _, cp := range doc.Profiles {
		open, gated := cp.Open, cp.Admission
		res.Series = append(res.Series, timeline(cp.Profile+"/open", open), timeline(cp.Profile+"/gated", gated))
		res.Notef("%s: oracle sizes each machine at %d seats (%s-limited at %d); %d seats fleet-wide, %d offered",
			cp.Profile, cp.OracleSeats, cp.OracleLimit, cp.OracleSeats+1, cp.FleetSeats, cp.Demand)
		if cp.Demand == 0 {
			res.Notef("%s: no seats to overcommit, so no fleet ran", cp.Profile)
			continue
		}
		res.Notef("%s: open p95 %.0f ms; gated p95 %.0f ms at peak %d admitted (%.2fx the oracle's fleet seats), %d logins deferred, %d rejected, queue wait mean %.0f / max %.0f ms",
			cp.Profile, open.EchoP95Ms, gated.EchoP95Ms, gated.PeakUsers,
			float64(gated.PeakUsers)/float64(cp.FleetSeats),
			gated.DeferredLogins, gated.RejectedLogins,
			gated.QueueWaitMeanMs, gated.QueueWaitMaxMs)
		if cp.OracleSeats > 0 {
			res.Notef("%s: serving all %d within budget takes %d oracle-sized machines — the gate holds the budget on %d by charging the storm's excess to the login queue",
				cp.Profile, cp.Demand, cp.MachinesNeeded, doc.Machines)
		}
	}
	res.Notef("stated margin: the gated peak lands within %.1fx of the oracle's fleet seats on every profile — the controller re-derives the oracle's answer online, without seeing the day in advance", ctrl1Margin)
	res.Claims = doc.Claims()
	return res, nil
}
