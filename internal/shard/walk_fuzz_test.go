package shard

import (
	"cmp"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/simclock"
)

// walkConfig decodes fuzz input into a roundrobin or memaware fleet of
// 1–5 machines (standbyMask marks standby spares), 1–40 seats, an
// arrival model (none, OfficeDay, ShiftChange, Flat, or zero stays), and
// an optional kill.
func walkConfig(memaware bool, machines, standbyMask, seats, model uint8, rate uint16,
	kill bool, killShard uint8, killFrac uint16, seed uint64) Config {
	m := 1 + int(machines)%5
	fleet := DefaultFleet(m)
	for j := range fleet {
		fleet[j].Standby = standbyMask&(1<<j) != 0
	}
	base := server.DefaultConfig()
	base.Span = 4 * simclock.Second
	cfg := Config{
		Base:     base,
		Machines: fleet,
		Users:    1 + int(seats)%40,
		Policy:   PolicyRoundRobin,
		Seed:     seed,
	}
	if memaware {
		cfg.Policy = PolicyMemAware
	}
	var p schedule.Profile
	switch model % 5 {
	case 1:
		p = schedule.OfficeDay()
	case 2:
		p = schedule.ShiftChange()
	case 3:
		p = schedule.Flat(0.05 + float64(rate%400)/100)
	case 4:
		p = zeroStays(rate)
	}
	if model%5 != 0 {
		cfg.Schedule = &p
	}
	if kill {
		// Anywhere from the end of the first timeline slice to just
		// before the span ends.
		room := base.Span - server.TimelineSlice
		cfg.KillAt = server.TimelineSlice + room*simclock.Duration(killFrac)/65536
		cfg.KillShard = int(killShard) % m
	}
	return cfg
}

// zeroStays is the office day with stays drawn from quantiles that
// start at zero: two draws in three last no time at all and compile to
// no episode, so under Replace (odd rate) a seat's next episode often
// starts at the very instant its last one ended, and without Replace a
// seat re-arrives from the instant it drew an empty stay.
func zeroStays(rate uint16) schedule.Profile {
	p := schedule.OfficeDay()
	p.Name = "zerostays"
	p.Replace = rate%2 == 1
	p.Stay = schedule.Stay{Kind: schedule.StayQuantiles,
		Quantiles: []simclock.Duration{0, 0, simclock.Duration(1+rate%8) * 250 * simclock.Millisecond}}
	return p
}

// eagerWalk is the walk as it ran before a seat's episodes were chained:
// every later episode queued with At before the clock starts. It is the
// oracle the chained walk must match in every plan, count and control
// statistic.
func eagerWalk(cfg Config) (*FleetView, error) {
	v, err := openWalk(cfg)
	if err != nil {
		return nil, err
	}
	arrive := func(now simclock.Time, u, k int) { v.err = v.arrive(now, u, k) }
	for u, st := range v.seats {
		for k, ep := range st.episodes {
			if ep.Login > 0 {
				v.eng.At(ep.Login, arrive, u, k)
			}
		}
	}
	return v, v.walk()
}

// gate is a test admission hook: it defers every arrival by retry while
// the fleet holds limit sessions or more.
type gate struct {
	limit int
	retry simclock.Duration
}

func (g gate) admit(_ simclock.Time, v *FleetView) AdmitDecision {
	if v.TotalOccupancy() >= g.limit {
		return AdmitDecision{Defer: g.retry}
	}
	return AdmitDecision{}
}

// checkChained checks the chained walk against the eager oracle on cfg:
// equal plans, time-zero counts, tier changes and control statistics, or
// the same error. It returns the chained walk and its error.
func checkChained(t *testing.T, cfg Config) (*FleetView, error) {
	t.Helper()
	got, err := buildPlans(cfg)
	want, werr := eagerWalk(cfg)
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("chained walk failed with %v, the eager oracle with %v", err, werr)
	}
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(got.plans, want.plans) {
		t.Fatal("the chained walk's plans differ from the eager oracle's")
	}
	if !slices.Equal(got.counts, want.counts) || !reflect.DeepEqual(got.tiers, want.tiers) || got.stats != want.stats {
		t.Fatalf("chained walk: counts %v, tiers %v, stats %+v; eager oracle: %v, %v, %+v",
			got.counts, got.tiers, got.stats, want.counts, want.tiers, want.stats)
	}
	return got, nil
}

// checkWalk runs buildPlans on a cfg that validates and checks the
// lifecycle plans it emits. One error return is allowed: killing the only
// live machine of a fleet whose other machines are standby spares leaves
// a displaced user nowhere to go. A static fleet's time-zero placement
// must match a bare picker dealing every seat at time zero, and a
// scheduled fleet's walk must keep its occupancy counts consistent at
// every change and plan the same with an observing hook as without. The
// walk, with and without a gate deferring arrivals, must equal the eager
// oracle's.
func checkWalk(t *testing.T, cfg Config) {
	t.Helper()
	if cfg.validate() != nil {
		return
	}
	fp, err := checkChained(t, cfg)
	if err != nil {
		if !strings.Contains(err.Error(), "no machine alive to place a session on") {
			t.Fatal(err)
		}
		return
	}
	// Before the clock starts, the walk holds at most the kill, one
	// departure per time-zero occupant and one arrival per seat.
	if v, err := openWalk(cfg); err == nil {
		v.queueEpisodes()
		if n := v.eng.Pending(); n > 2*cfg.Users+1 {
			t.Fatalf("%d events pending on the walk's clock at time zero for %d seats", n, cfg.Users)
		}
	}
	span := simclock.Time(cfg.Base.Span)
	killAt := simclock.Time(cfg.KillAt)

	// Every compiled episode, keyed by (seat, login).
	type key struct {
		seat  int
		login simclock.Time
	}
	episodes, err := cfg.SchedulePlan()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Schedule == nil {
		for u := 0; u < cfg.Users; u++ {
			episodes = append(episodes, schedule.Session{Seat: u + 1})
		}
	}
	end := func(logout simclock.Time) simclock.Time {
		if logout == 0 {
			return span
		}
		return logout
	}
	want := map[key]int{}
	wantEnds := map[int][]simclock.Time{}
	for _, ep := range episodes {
		want[key{ep.Seat, ep.Login}]++
		wantEnds[ep.Seat] = append(wantEnds[ep.Seat], end(ep.Logout))
	}

	type stint struct {
		shard int
		schedule.Session
	}
	bySeat := map[int][]stint{}
	got := map[key]int{}
	gotEnds := map[int][]simclock.Time{}
	displaced := 0
	for j, plan := range fp.plans {
		if cfg.Machines[j].Standby && len(plan) > 0 {
			t.Fatalf("uncontrolled standby machine %d hosts %d lifecycles", j, len(plan))
		}
		atOpen := 0
		for _, lc := range plan {
			if lc.Login >= span || (lc.Logout != 0 && lc.Logout < lc.Login) {
				t.Fatalf("shard %d: lifecycle %+v outside [0, span %v) or logs out before it logs in", j, lc, span)
			}
			if lc.Login == 0 {
				atOpen++
			}
			killed := cfg.KillAt > 0 && j == cfg.KillShard
			if killed && lc.Login >= killAt {
				t.Fatalf("lifecycle %+v lands on machine %d at or after its kill at %v", lc, j, killAt)
			}
			if killed && (lc.Logout == 0 || lc.Logout > killAt) {
				t.Fatalf("lifecycle %+v outlives the kill of machine %d at %v", lc, j, killAt)
			}
			if killed && lc.Logout == killAt {
				displaced++
			} else {
				gotEnds[lc.Seat] = append(gotEnds[lc.Seat], end(lc.Logout))
			}
			bySeat[lc.Seat] = append(bySeat[lc.Seat], stint{j, lc})
			got[key{lc.Seat, lc.Login}]++
		}
		if fp.counts[j] != atOpen {
			t.Fatalf("shard %d: time-zero placement %d, but %d lifecycles open at 0", j, fp.counts[j], atOpen)
		}
	}

	// Each episode starts exactly one lifecycle; every other lifecycle is
	// a displaced session's re-login at the kill.
	relogins := 0
	for k, n := range want {
		if got[k] < n {
			t.Fatalf("seat %d's episode at %v starts %d lifecycles, want %d", k.seat, k.login, got[k], n)
		}
	}
	for k, n := range got {
		extra := n - want[k]
		if extra > 0 && (cfg.KillAt == 0 || k.login != killAt) {
			t.Fatalf("seat %d has %d lifecycles at %v with no episode behind them", k.seat, extra, k.login)
		}
		relogins += extra
	}
	if relogins != displaced {
		t.Fatalf("%d re-logins at the kill for %d displaced sessions", relogins, displaced)
	}

	// Every episode ends exactly once, at its own logout: a displaced
	// session's re-login carries it.
	for s, ends := range wantEnds {
		slices.Sort(ends)
		slices.Sort(gotEnds[s])
		if !slices.Equal(ends, gotEnds[s]) {
			t.Fatalf("seat %d's episodes end at %v, its lifecycles at %v", s, ends, gotEnds[s])
		}
	}

	// The static placement the walk replaced: a fresh picker dealing every
	// seat at time zero.
	if !cfg.dynamic() {
		pk, err := newPicker(&cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < cfg.Users; u++ {
			if _, err := pk.pick(0); err != nil {
				t.Fatal(err)
			}
		}
		if !slices.Equal(fp.counts, pk.occ) {
			t.Fatalf("static walk placed %v, a bare picker %v", fp.counts, pk.occ)
		}
	}

	// An observing hook sees consistent counts at every occupancy change
	// and steers nothing.
	if cfg.Schedule != nil {
		watched := cfg
		watched.Control = &ControlHooks{Moved: func(now simclock.Time, v *FleetView, j int) {
			sum := 0
			for k := 0; k < v.Machines(); k++ {
				sum += v.Occupancy(k)
			}
			if sum != v.TotalOccupancy() {
				t.Fatalf("at %v after a change on machine %d: machines hold %d sessions, the fleet %d", now, j, sum, v.TotalOccupancy())
			}
		}}
		again, err := buildPlans(watched)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.plans, fp.plans) {
			t.Fatal("an observing Moved hook changed the walk's plans")
		}

		// A gate at half the seats defers arrivals past their episodes'
		// logins, and a retry must not queue a seat's next episode again.
		// A deferral can carry an arrival past a kill that leaves no
		// machine to place it on; the oracle must then fail alike.
		gated := cfg
		gated.Control = &ControlHooks{Admit: gate{limit: max(1, cfg.Users/2), retry: 300 * simclock.Millisecond}.admit}
		checkChained(t, gated)
	}

	// A seat is never on two machines at once.
	for s, stints := range bySeat {
		slices.SortFunc(stints, func(a, b stint) int {
			return cmp.Or(cmp.Compare(a.Login, b.Login), cmp.Compare(end(a.Logout), end(b.Logout)))
		})
		for i := 1; i < len(stints); i++ {
			if prev := stints[i-1]; stints[i].Login < end(prev.Logout) {
				t.Fatalf("seat %d on machine %d %+v and machine %d %+v at once",
					s, prev.shard, prev.Session, stints[i].shard, stints[i].Session)
			}
		}
	}
}

// FuzzFleetWalk checks the population walk's invariants over random
// roundrobin and memaware fleets: lifecycles inside the span, one
// machine per seat at a time, nothing on a killed machine from its kill
// on, one lifecycle per compiled episode plus one re-login per displaced
// session, each episode ending once at its own logout, idle standby
// spares, a static placement equal to a bare picker's, and occupancy
// counts that agree at every change.
func FuzzFleetWalk(f *testing.F) {
	f.Add(false, uint8(2), uint8(0), uint8(14), uint8(1), uint16(0), true, uint8(2), uint16(16384), uint64(1999))
	f.Add(true, uint8(2), uint8(0), uint8(21), uint8(3), uint16(25), true, uint8(0), uint16(40000), uint64(7))
	f.Add(false, uint8(3), uint8(0b1010), uint8(9), uint8(2), uint16(0), true, uint8(0), uint16(0), uint64(3))
	f.Add(true, uint8(4), uint8(0b10), uint8(39), uint8(0), uint16(0), true, uint8(1), uint16(65535), uint64(5))
	f.Add(false, uint8(0), uint8(0), uint8(5), uint8(3), uint16(399), false, uint8(0), uint16(0), uint64(11))
	// The only live machine dies and every other machine is a spare.
	f.Add(false, uint8(1), uint8(0b10), uint8(3), uint8(0), uint16(0), true, uint8(0), uint16(100), uint64(1))
	// Zero stays, which compile to no episode: handovers at one instant
	// under Replace (odd rate), and re-arrivals from a logout's instant
	// without it, one with a kill among them.
	f.Add(false, uint8(2), uint8(0), uint8(17), uint8(4), uint16(1), false, uint8(0), uint16(0), uint64(1999))
	f.Add(true, uint8(3), uint8(0b100), uint8(30), uint8(4), uint16(6), true, uint8(1), uint16(30000), uint64(7))
	f.Add(false, uint8(0), uint8(0), uint8(8), uint8(4), uint16(7), true, uint8(0), uint16(9000), uint64(42))
	f.Fuzz(func(t *testing.T, memaware bool, machines, standbyMask, seats, model uint8, rate uint16,
		kill bool, killShard uint8, killFrac uint16, seed uint64) {
		checkWalk(t, walkConfig(memaware, machines, standbyMask, seats, model, rate, kill, killShard, killFrac, seed))
	})
}

// TestSeatSize pins the walk's seat record at 72 bytes: the fleet holds
// one per seat, so a word more costs bigfleet 8 KB.
func TestSeatSize(t *testing.T) {
	if size := unsafe.Sizeof(seat{}); size != 72 {
		t.Fatalf("a seat is %d bytes, want 72", size)
	}
}
