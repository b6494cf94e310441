package shard

import (
	"container/heap"
	"fmt"

	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/simclock"
)

// fleetScheduleSalt separates the fleet's schedule stream from every
// other consumer of Config.Seed.
const fleetScheduleSalt = 0x7363686564 // "sched"

// Fleet event kinds, in tie-break priority order at an instant: a machine
// fails before anything else scheduled at the same microsecond reacts.
const (
	evKill = iota
	evDepart
	evArrive
)

// fleetEvent is one population change awaiting its turn on the fleet
// clock. Events order by (time, creation sequence), so the walk is fully
// deterministic.
type fleetEvent struct {
	at   simclock.Time
	seq  int
	kind int
	seat int // evDepart and evArrive
	// gen is the stale-generation guard on evDepart; on evArrive it is the
	// index of the episode arriving. That episode's Login is the arrival's
	// planned instant: at is later when an admission controller has queued
	// it, and the difference is the user's login-queue wait.
	gen int
}

type eventHeap []*fleetEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*fleetEvent)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// seat is one logical user slot across its whole history: its episodes,
// fixed before the walk starts, and the session occupying it now. An
// episode's times are the profile's business; only the placement of each
// arrival — and of a failover re-login — is decided live.
type seat struct {
	id    int
	shard int
	idx   int // index of the current lifecycle in plans[shard]
	gen   int // bumped per login; stale departure events are skipped
	alive bool
	// epi is the episode the current session belongs to. A failover
	// re-login keeps it, and with it the episode's logout: a displaced
	// user's shift does not get longer for having moved.
	epi      int
	episodes []schedule.Session
}

// SchedulePlan compiles the fleet's schedule into its seats' episodes —
// the arrival and departure times the fleet will execute, before any
// placement decision. Experiments use it to report the offered load (the
// storm itself) alongside the measured latency. It returns nil when the
// configuration has no schedule.
func (c Config) SchedulePlan() ([]schedule.Session, error) {
	if c.Schedule == nil {
		return nil, nil
	}
	return schedule.Compile(*c.Schedule, c.Users, c.Base.Span,
		simclock.DeriveSeed(c.Seed, fleetScheduleSalt))
}

// seatEpisodes gives every seat its episode list: the schedule's, or, for
// a static population that only a kill makes dynamic, one episode per
// seat that stays to the end.
func (c Config) seatEpisodes() ([][]schedule.Session, error) {
	out := make([][]schedule.Session, c.Users)
	if c.Schedule == nil {
		for u := range out {
			out[u] = []schedule.Session{{Seat: u + 1}}
		}
		return out, nil
	}
	compiled, err := schedule.NewCompiled(*c.Schedule)
	if err != nil {
		return nil, err
	}
	sseed := simclock.DeriveSeed(c.Seed, fleetScheduleSalt)
	for u := range out {
		out[u] = compiled.SeatSessions(u, c.Users, c.Base.Span, sseed)
	}
	return out, nil
}

// fleetPlan is buildPlans' output: the per-shard lifecycle plans, the
// time-zero placement, each shard's scheduled degradation-tier changes
// (nil on an uncontrolled run), and the controllers' statistics.
type fleetPlan struct {
	plans  [][]server.Lifecycle
	counts []int
	tiers  [][]server.TierChange
	stats  ControlStats
}

// buildPlans walks the fleet's population dynamics in time order —
// time-zero placement, every later episode's arrival, each session's
// departure, the machine kill and its re-login storm — routing every
// arrival through the live picker (and, when Control is set, the
// admission gate), and emits one explicit lifecycle plan per shard for
// the server layer to execute. The walk is bookkeeping, not simulation:
// placement and control decisions depend only on occupancy counts (plus
// the probe cache), so the plans are deterministic and each shard's
// simulation still fans out independently across the farm.
//
// Every seat's episodes are compiled up front, but each arrival is
// placed live at its instant — so a 9 AM storm floods the picker exactly
// as it floods the machines, and a kill during the ramp forces the
// displaced users to re-login into the middle of the surge.
func buildPlans(cfg Config) (fleetPlan, error) {
	if err := cfg.validate(); err != nil {
		return fleetPlan{}, err
	}
	pk, err := newPicker(&cfg)
	if err != nil {
		return fleetPlan{}, err
	}
	episodes, err := cfg.seatEpisodes()
	if err != nil {
		return fleetPlan{}, err
	}
	span := simclock.Time(cfg.Base.Span)
	plans := make([][]server.Lifecycle, len(cfg.Machines))
	seats := make([]seat, cfg.Users)
	for u := range seats {
		seats[u] = seat{id: u, shard: -1, episodes: episodes[u]}
	}

	var events eventHeap
	seq := 0
	push := func(at simclock.Time, kind, seatID, gen int) {
		heap.Push(&events, &fleetEvent{at: at, seq: seq, kind: kind, seat: seatID, gen: gen})
		seq++
	}

	// The control surface: hooks see and steer the walk through the view.
	// A nil Control leaves every decision exactly as the uncontrolled
	// fleet makes it.
	hooks := cfg.Control
	var view *FleetView
	if hooks != nil {
		view = newFleetView(&cfg, pk)
	}
	// login places seat st's episode k, at instant at, on the machine the
	// picker chooses.
	login := func(st *seat, at simclock.Time, k int) error {
		j, err := pk.pick(at)
		if err != nil {
			return err
		}
		st.shard, st.idx, st.alive, st.epi = j, len(plans[j]), true, k
		st.gen++
		// The fleet-global seat number rides along as the session's
		// random-stream identity, so a seat keeps its behavior wherever
		// failover moves it and the plan for N users stays a prefix of the
		// plan for N+1. (Unlike the single-server case, fleet seat streams
		// are global while a static fleet's streams are per-shard indices,
		// so a dynamic fleet is compared to its static baseline by effect
		// size, not common random numbers.)
		plans[j] = append(plans[j], server.Lifecycle{Login: at, Seat: st.id + 1})
		if end := st.episodes[k].Logout; end > 0 {
			push(end, evDepart, st.id, st.gen)
		}
		if view != nil {
			view.curUsers++
			if view.curUsers > view.stats.PeakUsers {
				view.stats.PeakUsers = view.curUsers
			}
			if hooks.Moved != nil {
				hooks.Moved(at, view, j)
			}
		}
		return nil
	}
	logout := func(st *seat, at simclock.Time) {
		plans[st.shard][st.idx].Logout = at
		st.alive = false
		pk.release(st.shard)
		if view != nil {
			view.curUsers--
			if hooks.Moved != nil {
				hooks.Moved(at, view, st.shard)
			}
		}
	}
	// arrive admits and places seat st's episode k at now. The admission
	// hook decides first, before any handover bookkeeping: a queued or
	// rejected arrival leaves the seat's pending departure (still at its
	// own gen) to fire normally. A deferred arrival re-enters the heap and
	// decides afresh when its retry fires; a deferral past the span — or
	// past the episode's own logout — is a rejection (the user's shift
	// would end before they got in).
	arrive := func(now simclock.Time, st *seat, k int) error {
		ep := st.episodes[k]
		if hooks != nil && hooks.Admit != nil {
			if d := hooks.Admit(now, view); d.Defer > 0 {
				at := now.Add(d.Defer)
				if at >= span || (ep.Logout > 0 && at >= ep.Logout) {
					view.stats.RejectedLogins++
					return nil
				}
				if now == ep.Login {
					// Count each queued arrival once, at its first deferral.
					view.stats.DeferredLogins++
				}
				push(at, evArrive, st.id, k)
				return nil
			}
			view.recordAdmit(now, ep.Login)
		}
		if st.alive {
			// A zero-gap handover: the seat's previous episode ends at this
			// very instant, and its departure event (pushed later, so
			// sequenced after this arrival) has not fired yet.
			logout(st, now)
		}
		return login(st, now, k)
	}

	// The kill is pushed first so that, at its exact instant, the machine
	// fails before any same-instant departure or arrival is handled.
	if cfg.KillAt > 0 {
		push(simclock.Time(cfg.KillAt), evKill, -1, 0)
	}
	// Log the time-zero occupants in first, in seat order — exactly how a
	// static placement deals them. The overnight population is
	// admission-controlled too: a deferred time-zero occupant queues at the
	// morning login screen like any 9 AM arrival.
	for u := range seats {
		st := &seats[u]
		if len(st.episodes) > 0 && st.episodes[0].Login == 0 {
			if err := arrive(0, st, 0); err != nil {
				return fleetPlan{}, err
			}
		}
	}
	counts := append([]int(nil), pk.occ...)
	// Then queue each later episode as an arrival to be placed live when
	// its time comes.
	for u := range seats {
		for k, ep := range seats[u].episodes {
			if ep.Login > 0 {
				push(ep.Login, evArrive, u, k)
			}
		}
	}

	for events.Len() > 0 {
		e := heap.Pop(&events).(*fleetEvent)
		switch e.kind {
		case evDepart:
			st := &seats[e.seat]
			if e.gen == st.gen && st.alive {
				// The seat re-arrives on the profile's clock, or not at all.
				logout(st, e.at)
			}
		case evArrive:
			if err := arrive(e.at, &seats[e.seat], e.gen); err != nil {
				return fleetPlan{}, err
			}
		case evKill:
			pk.kill(cfg.KillShard)
			// Every session on the dead machine logs out at the kill —
			// in-flight echoes censor there — and re-logs-in elsewhere at
			// the same instant, keeping its episode's logout: a reconnect
			// storm of full session setups against the survivors, in seat
			// order. Re-logins bypass admission control — a reconnect is
			// not a new admission.
			for u := range seats {
				st := &seats[u]
				if !st.alive || st.shard != cfg.KillShard {
					continue
				}
				logout(st, e.at)
				if err := login(st, e.at, st.epi); err != nil {
					return fleetPlan{}, err
				}
			}
		}
	}
	// The picker's occupancy is what every placement ranked machines on,
	// so it must end the walk equal to each machine's live seats.
	live := make([]int, len(cfg.Machines))
	for _, st := range seats {
		if st.alive {
			live[st.shard]++
		}
	}
	for j, n := range live {
		if pk.occ[j] != n {
			return fleetPlan{}, fmt.Errorf("shard: machine %d ends the walk with occupancy %d but %d live seats", j, pk.occ[j], n)
		}
	}
	out := fleetPlan{plans: plans, counts: counts}
	if view != nil {
		out.tiers = view.tiers
		out.stats = view.finalize()
	}
	return out, nil
}
