package shard

import (
	"fmt"

	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/simclock"
)

// fleetScheduleSalt separates the fleet's schedule stream from every
// other consumer of Config.Seed.
const fleetScheduleSalt = 0x7363686564 // "sched"

// seat is one logical user slot across its whole history: its episodes,
// fixed before the walk starts, and the session occupying it now. An
// episode's times are the profile's business; only the placement of each
// arrival — and of a failover re-login — is decided live. A seat is named
// by its index in FleetView.seats, from 0.
type seat struct {
	shard int
	idx   int // index of the current lifecycle in plans[shard]
	gen   int // bumped per login; stale departure events are skipped
	alive bool
	// epi is the episode the current session belongs to. A failover
	// re-login keeps it, and with it the episode's logout: a displaced
	// user's shift does not get longer for having moved.
	epi int
	// next is the sequence number buildPlans reserved for the seat's next
	// episode still to be queued on the walk's clock.
	next     uint64
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

// FleetView is the population walk: the fleet's seats, the session plan
// each shard will execute, the clock its population events wait on, and
// the live placement state behind them. It is also the live fleet a
// controller sees and steers through ControlHooks (see control.go for what
// a controller reads and sets); a hook may use it only while the walk
// calls it. After the walk it holds the walk's output.
type FleetView struct {
	cfg   *Config
	pk    *picker
	hooks ControlHooks // zero for an uncontrolled fleet
	span  simclock.Time

	seats []seat
	// plans is each shard's session plan; counts is the time-zero
	// placement, each shard's population before the first later event.
	plans  [][]schedule.Session
	counts []int
	// eng is the walk's own clock: the kill, arrivals and departures fire
	// on it in (time, creation order). It is no shard's engine, so none of
	// these bookkeeping events count in SimEvents. onArrive and onDepart
	// are arriveAt and depart bound once, and err is the placement error
	// that stops the walk.
	eng                *simclock.Engine
	onArrive, onDepart simclock.Func
	err                error
	// tiers accumulates each shard's scheduled degradation changes; cur
	// mirrors the latest tier per shard so hysteresis reads its own
	// state instead of replaying the plan.
	tiers [][]server.TierChange
	cur   []int
	// pool lends storage to every machine the run builds: the probes'
	// and, after the walk, the fleet's.
	pool server.Pool

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
// admission gate), and returns the walk with one explicit session plan
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
// displaced users to re-login into the middle of the surge. A seat's
// later episodes are queued one at a time, each when the one before it
// first fires, so the walk holds at most one pending episode per seat
// (plus any deferred retry) rather than the whole day's.
func buildPlans(cfg Config) (*FleetView, error) {
	v, err := openWalk(cfg)
	if err != nil {
		return nil, err
	}
	v.queueEpisodes()
	return v, v.walk()
}

// queueEpisodes queues each seat's first later episode, under sequence
// numbers reserved here for every later episode in (seat, episode) order:
// each arrival then fires under the (time, seq) key an At for every
// episode, made here, would give it, so no placement moves.
func (v *FleetView) queueEpisodes() {
	n := 0
	for u := range v.seats {
		n += len(v.seats[u].episodes) - v.seats[u].firstLater()
	}
	seq := v.eng.Reserve(n)
	for u := range v.seats {
		st := &v.seats[u]
		k := st.firstLater()
		st.next = seq
		seq += uint64(len(st.episodes) - k)
		if k < len(st.episodes) {
			v.eng.AtReserved(st.episodes[k].Login, st.next, v.onArrive, u, k)
			st.next++
		}
	}
}

// firstLater is the index of seat st's first episode after time zero.
// Only a seat's first episode can log in at time zero: every later one
// starts at or after an earlier episode's logout, which is never zero.
func (st *seat) firstLater() int {
	if len(st.episodes) > 0 && st.episodes[0].Login == 0 {
		return 1
	}
	return 0
}

// openWalk builds the walk's picker, seats and clock and logs the
// time-zero occupants in, with no later episode queued.
func openWalk(cfg Config) (*FleetView, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := len(cfg.Machines)
	v := &FleetView{
		cfg:   &cfg,
		span:  simclock.Time(cfg.Base.Span),
		seats: make([]seat, cfg.Users),
		plans: make([][]schedule.Session, m),
		tiers: make([][]server.TierChange, m),
		cur:   make([]int, m),
	}
	pk, err := newPicker(&cfg, &v.pool)
	if err != nil {
		return nil, err
	}
	v.pk = pk
	episodes, err := cfg.seatEpisodes()
	if err != nil {
		return nil, err
	}
	if cfg.Control != nil {
		v.hooks = *cfg.Control
	}
	for u := range v.seats {
		v.seats[u] = seat{shard: -1, episodes: episodes[u]}
	}

	v.eng = simclock.NewEngine()
	v.onArrive, v.onDepart = v.arriveAt, v.depart
	// The kill is scheduled first so that, at its exact instant, the
	// machine fails before any same-instant departure or arrival is
	// handled.
	if cfg.KillAt > 0 {
		v.eng.At(simclock.Time(cfg.KillAt), v.kill, 0, 0)
	}
	// Log the time-zero occupants in first, in seat order — exactly how a
	// static placement deals them. The overnight population is
	// admission-controlled too: a deferred time-zero occupant queues at the
	// morning login screen like any 9 AM arrival.
	for u := range v.seats {
		if v.seats[u].firstLater() == 1 {
			if err := v.arrive(0, u, 0); err != nil {
				return nil, err
			}
		}
	}
	v.counts = append([]int(nil), pk.occ...)
	return v, nil
}

// walk runs the walk's clock dry and checks that the picker's occupancy
// ends equal to each machine's live seats.
func (v *FleetView) walk() error {
	for v.err == nil && v.eng.Step() {
	}
	if v.err != nil {
		return v.err
	}
	// The picker's occupancy is what every placement ranked machines on,
	// so it must end the walk equal to each machine's live seats.
	live := make([]int, len(v.cfg.Machines))
	for _, st := range v.seats {
		if st.alive {
			live[st.shard]++
		}
	}
	for j, n := range live {
		if v.pk.occ[j] != n {
			return fmt.Errorf("shard: machine %d ends the walk with occupancy %d but %d live seats", j, v.pk.occ[j], n)
		}
	}
	if v.waitN > 0 {
		v.stats.QueueWaitMeanMs = v.waitSum / float64(v.waitN)
	}
	return nil
}

// arriveAt is arrive as an engine callback: seat u's episode k. The
// episode's first firing, at its own login, first queues the seat's next
// episode under the sequence number reserved for it; a deferred retry
// fires later than the login and queues nothing.
func (v *FleetView) arriveAt(now simclock.Time, u, k int) {
	st := &v.seats[u]
	if now == st.episodes[k].Login && k+1 < len(st.episodes) {
		v.eng.AtReserved(st.episodes[k+1].Login, st.next, v.onArrive, u, k+1)
		st.next++
	}
	v.err = v.arrive(now, u, k)
}

// depart ends seat u's session at its episode's logout, unless the seat
// has logged in again since the login numbered gen.
func (v *FleetView) depart(now simclock.Time, u, gen int) {
	if st := &v.seats[u]; gen == st.gen && st.alive {
		// The seat re-arrives on the profile's clock, or not at all.
		v.logout(st, now)
	}
}

// kill fails machine cfg.KillShard at now. Every session on it logs out
// at the kill — in-flight echoes censor there — and re-logs-in elsewhere
// at the same instant, keeping its episode's logout: a reconnect storm of
// full session setups against the survivors, in seat order. Re-logins
// bypass admission control — a reconnect is not a new admission.
func (v *FleetView) kill(now simclock.Time, _, _ int) {
	v.pk.kill(v.cfg.KillShard)
	for u := range v.seats {
		st := &v.seats[u]
		if !st.alive || st.shard != v.cfg.KillShard {
			continue
		}
		v.logout(st, now)
		if v.err = v.login(u, now, st.epi); v.err != nil {
			return
		}
	}
}

// login places seat u's episode k, at instant at, on the machine the
// picker chooses.
func (v *FleetView) login(u int, at simclock.Time, k int) error {
	j, err := v.pk.pick(at)
	if err != nil {
		return err
	}
	st := &v.seats[u]
	st.shard, st.idx, st.alive, st.epi = j, len(v.plans[j]), true, k
	st.gen++
	// The fleet-global seat number rides along as the session's
	// random-stream identity, so a seat keeps its behavior wherever
	// failover moves it and the plan for N users stays a prefix of the
	// plan for N+1. (Unlike the single-server case, fleet seat streams
	// are global while a static fleet's streams are per-shard indices,
	// so a dynamic fleet is compared to its static baseline by effect
	// size, not common random numbers.)
	v.plans[j] = append(v.plans[j], schedule.Session{Login: at, Seat: u + 1})
	if end := st.episodes[k].Logout; end > 0 {
		v.eng.At(end, v.onDepart, u, st.gen)
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

// arrive admits and places seat u's episode k at now. The admission
// hook decides first, before any handover bookkeeping: a queued or
// rejected arrival leaves the seat's pending departure (still at its own
// gen) to fire normally. A deferred arrival is scheduled again and
// decides afresh when its retry fires; a deferral past the span — or
// past the episode's own logout — is a rejection (the user's shift would
// end before they got in).
func (v *FleetView) arrive(now simclock.Time, u, k int) error {
	st := &v.seats[u]
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
			v.eng.At(at, v.onArrive, u, k)
			return nil
		}
		v.recordAdmit(now, ep.Login)
	}
	if st.alive {
		// A zero-gap handover: the seat's previous episode ends at this
		// very instant, and its departure event (scheduled later, so
		// sequenced after this arrival) has not fired yet.
		v.logout(st, now)
	}
	return v.login(u, now, k)
}
