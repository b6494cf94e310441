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

// eventHeap holds the walk's pending population changes. It is a
// container/heap, not a simclock.Engine, on purpose: the walk schedules
// every later arrival up front, thousands of them for a login storm,
// while the engine's calendar queue carves calCarveSlack spare entries
// per bucket for the few hundred events a server run holds pending.
// Ported onto the engine, the walk of a 1,040-seat office day cost 5.1 ms
// and 3.28 MB instead of 1.5 ms and 0.53 MB (2-vCPU VM, Go 1.24), and the
// login_storm benchmark allocated 4.6% more.
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

// seatEpisodes gives every seat its episode list: the schedule's, or,
// without a schedule, one episode per seat that stays to the end, all cut
// from one backing array.
func (c Config) seatEpisodes() ([][]schedule.Session, error) {
	out := make([][]schedule.Session, c.Users)
	if c.Schedule == nil {
		all := make([]schedule.Session, c.Users)
		for u := range out {
			all[u].Seat = u + 1
			out[u] = all[u : u+1 : u+1]
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

// FleetView is the population walk: the fleet's seats, the lifecycle plan
// each shard will execute, the pending population events, and the live
// placement state behind them. It is also the live fleet a controller
// sees and steers through ControlHooks (see control.go for what a
// controller reads and sets); a hook may use it only while the walk
// calls it. After the walk it holds the walk's output.
type FleetView struct {
	cfg   *Config
	pk    *picker
	hooks ControlHooks // zero for an uncontrolled fleet
	span  simclock.Time

	seats []seat
	// plans is each shard's lifecycle plan; counts is the time-zero
	// placement, each shard's population before the first later event.
	plans  [][]server.Lifecycle
	counts []int
	events eventHeap
	seq    int // creation sequence, the tie-break among same-instant events
	// tiers accumulates each shard's scheduled degradation changes; cur
	// mirrors the latest tier per shard so hysteresis reads its own
	// state instead of replaying the plan.
	tiers [][]server.TierChange
	cur   []int

	// stats is the controllers' record, curUsers the live population,
	// and waitN and waitSum the admitted-late arrivals behind the mean
	// queue wait.
	stats    ControlStats
	curUsers int
	waitN    int
	waitSum  float64
}

// buildPlans walks the fleet's population dynamics in time order —
// time-zero placement, every later episode's arrival, each session's
// departure, the machine kill and its re-login storm — routing every
// arrival through the live picker (and, when Control is set, the
// admission gate), and returns the walk with one explicit lifecycle plan
// per shard for the server layer to execute. A static fleet is the walk
// with no events: its time-zero placement is all there is. The walk is
// bookkeeping, not simulation: placement and control decisions depend
// only on occupancy counts (plus the probe cache), so the plans are
// deterministic and each shard's simulation still fans out independently
// across the farm.
//
// Every seat's episodes are compiled up front, but each arrival is
// placed live at its instant — so a 9 AM storm floods the picker exactly
// as it floods the machines, and a kill during the ramp forces the
// displaced users to re-login into the middle of the surge.
func buildPlans(cfg Config) (*FleetView, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pk, err := newPicker(&cfg)
	if err != nil {
		return nil, err
	}
	episodes, err := cfg.seatEpisodes()
	if err != nil {
		return nil, err
	}
	m := len(cfg.Machines)
	v := &FleetView{
		cfg:   &cfg,
		pk:    pk,
		span:  simclock.Time(cfg.Base.Span),
		seats: make([]seat, cfg.Users),
		plans: make([][]server.Lifecycle, m),
		tiers: make([][]server.TierChange, m),
		cur:   make([]int, m),
	}
	if cfg.Control != nil {
		v.hooks = *cfg.Control
	}
	for u := range v.seats {
		v.seats[u] = seat{id: u, shard: -1, episodes: episodes[u]}
	}

	// The kill is pushed first so that, at its exact instant, the machine
	// fails before any same-instant departure or arrival is handled.
	if cfg.KillAt > 0 {
		v.push(simclock.Time(cfg.KillAt), evKill, -1, 0)
	}
	// Log the time-zero occupants in first, in seat order — exactly how a
	// static placement deals them. The overnight population is
	// admission-controlled too: a deferred time-zero occupant queues at the
	// morning login screen like any 9 AM arrival.
	for u := range v.seats {
		st := &v.seats[u]
		if len(st.episodes) > 0 && st.episodes[0].Login == 0 {
			if err := v.arrive(0, st, 0); err != nil {
				return nil, err
			}
		}
	}
	v.counts = append([]int(nil), pk.occ...)
	// Then queue each later episode as an arrival to be placed live when
	// its time comes.
	for u := range v.seats {
		for k, ep := range v.seats[u].episodes {
			if ep.Login > 0 {
				v.push(ep.Login, evArrive, u, k)
			}
		}
	}

	for v.events.Len() > 0 {
		e := heap.Pop(&v.events).(*fleetEvent)
		switch e.kind {
		case evDepart:
			st := &v.seats[e.seat]
			if e.gen == st.gen && st.alive {
				// The seat re-arrives on the profile's clock, or not at all.
				v.logout(st, e.at)
			}
		case evArrive:
			if err := v.arrive(e.at, &v.seats[e.seat], e.gen); err != nil {
				return nil, err
			}
		case evKill:
			pk.kill(cfg.KillShard)
			// Every session on the dead machine logs out at the kill —
			// in-flight echoes censor there — and re-logs-in elsewhere at
			// the same instant, keeping its episode's logout: a reconnect
			// storm of full session setups against the survivors, in seat
			// order. Re-logins bypass admission control — a reconnect is
			// not a new admission.
			for u := range v.seats {
				st := &v.seats[u]
				if !st.alive || st.shard != cfg.KillShard {
					continue
				}
				v.logout(st, e.at)
				if err := v.login(st, e.at, st.epi); err != nil {
					return nil, err
				}
			}
		}
	}
	// The picker's occupancy is what every placement ranked machines on,
	// so it must end the walk equal to each machine's live seats.
	live := make([]int, m)
	for _, st := range v.seats {
		if st.alive {
			live[st.shard]++
		}
	}
	for j, n := range live {
		if pk.occ[j] != n {
			return nil, fmt.Errorf("shard: machine %d ends the walk with occupancy %d but %d live seats", j, pk.occ[j], n)
		}
	}
	if v.waitN > 0 {
		v.stats.QueueWaitMeanMs = v.waitSum / float64(v.waitN)
	}
	return v, nil
}

// push schedules a population event, sequenced after every event already
// pending at the same instant.
func (v *FleetView) push(at simclock.Time, kind, seatID, gen int) {
	heap.Push(&v.events, &fleetEvent{at: at, seq: v.seq, kind: kind, seat: seatID, gen: gen})
	v.seq++
}

// login places seat st's episode k, at instant at, on the machine the
// picker chooses.
func (v *FleetView) login(st *seat, at simclock.Time, k int) error {
	j, err := v.pk.pick(at)
	if err != nil {
		return err
	}
	st.shard, st.idx, st.alive, st.epi = j, len(v.plans[j]), true, k
	st.gen++
	// The fleet-global seat number rides along as the session's
	// random-stream identity, so a seat keeps its behavior wherever
	// failover moves it and the plan for N users stays a prefix of the
	// plan for N+1. (Unlike the single-server case, fleet seat streams
	// are global while a static fleet's streams are per-shard indices,
	// so a dynamic fleet is compared to its static baseline by effect
	// size, not common random numbers.)
	v.plans[j] = append(v.plans[j], server.Lifecycle{Login: at, Seat: st.id + 1})
	if end := st.episodes[k].Logout; end > 0 {
		v.push(end, evDepart, st.id, st.gen)
	}
	v.curUsers++
	v.stats.PeakUsers = max(v.stats.PeakUsers, v.curUsers)
	if v.hooks.Moved != nil {
		v.hooks.Moved(at, v, j)
	}
	return nil
}

// logout ends seat st's current session at instant at.
func (v *FleetView) logout(st *seat, at simclock.Time) {
	v.plans[st.shard][st.idx].Logout = at
	st.alive = false
	v.pk.release(st.shard)
	v.curUsers--
	if v.hooks.Moved != nil {
		v.hooks.Moved(at, v, st.shard)
	}
}

// arrive admits and places seat st's episode k at now. The admission
// hook decides first, before any handover bookkeeping: a queued or
// rejected arrival leaves the seat's pending departure (still at its own
// gen) to fire normally. A deferred arrival re-enters the heap and
// decides afresh when its retry fires; a deferral past the span — or
// past the episode's own logout — is a rejection (the user's shift would
// end before they got in).
func (v *FleetView) arrive(now simclock.Time, st *seat, k int) error {
	ep := st.episodes[k]
	if v.hooks.Admit != nil {
		if d := v.hooks.Admit(now, v); d.Defer > 0 {
			at := now.Add(d.Defer)
			if at >= v.span || (ep.Logout > 0 && at >= ep.Logout) {
				v.stats.RejectedLogins++
				return nil
			}
			if now == ep.Login {
				// Count each queued arrival once, at its first deferral.
				v.stats.DeferredLogins++
			}
			v.push(at, evArrive, st.id, k)
			return nil
		}
		v.recordAdmit(now, ep.Login)
	}
	if st.alive {
		// A zero-gap handover: the seat's previous episode ends at this
		// very instant, and its departure event (pushed later, so
		// sequenced after this arrival) has not fired yet.
		v.logout(st, now)
	}
	return v.login(st, now, k)
}
