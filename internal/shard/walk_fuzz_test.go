package shard

import (
	"cmp"
	"slices"
	"strings"
	"testing"

	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/simclock"
)

// walkConfig decodes fuzz input into a roundrobin or memaware fleet of
// 1–5 machines (standbyMask marks standby spares), 1–40 seats, an
// arrival model (none, OfficeDay, ShiftChange or Flat), and an optional
// kill.
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
	switch model % 4 {
	case 1:
		p = schedule.OfficeDay()
	case 2:
		p = schedule.ShiftChange()
	case 3:
		p = schedule.Flat(0.05 + float64(rate%400)/100)
	}
	if model%4 != 0 {
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

// checkWalk runs buildPlans on a cfg that validates and checks the
// lifecycle plans it emits. One error return is allowed: killing the only
// live machine of a fleet whose other machines are standby spares leaves
// a displaced user nowhere to go.
func checkWalk(t *testing.T, cfg Config) {
	t.Helper()
	if cfg.validate() != nil {
		return
	}
	fp, err := buildPlans(cfg)
	if err != nil {
		if !strings.Contains(err.Error(), "no machine alive to place a session on") {
			t.Fatal(err)
		}
		return
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
		server.Lifecycle
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

	// A seat is never on two machines at once.
	for s, stints := range bySeat {
		slices.SortFunc(stints, func(a, b stint) int {
			return cmp.Or(cmp.Compare(a.Login, b.Login), cmp.Compare(end(a.Logout), end(b.Logout)))
		})
		for i := 1; i < len(stints); i++ {
			if prev := stints[i-1]; stints[i].Login < end(prev.Logout) {
				t.Fatalf("seat %d on machine %d %+v and machine %d %+v at once",
					s, prev.shard, prev.Lifecycle, stints[i].shard, stints[i].Lifecycle)
			}
		}
	}
}

// FuzzFleetWalk checks the population walk's invariants over random
// roundrobin and memaware fleets: lifecycles inside the span, one
// machine per seat at a time, nothing on a killed machine from its kill
// on, one lifecycle per compiled episode plus one re-login per displaced
// session, each episode ending once at its own logout, and idle standby
// spares.
func FuzzFleetWalk(f *testing.F) {
	f.Add(false, uint8(2), uint8(0), uint8(14), uint8(1), uint16(0), true, uint8(2), uint16(16384), uint64(1999))
	f.Add(true, uint8(2), uint8(0), uint8(21), uint8(3), uint16(25), true, uint8(0), uint16(40000), uint64(7))
	f.Add(false, uint8(3), uint8(0b1010), uint8(9), uint8(2), uint16(0), true, uint8(0), uint16(0), uint64(3))
	f.Add(true, uint8(4), uint8(0b10), uint8(39), uint8(0), uint16(0), true, uint8(1), uint16(65535), uint64(5))
	f.Add(false, uint8(0), uint8(0), uint8(5), uint8(3), uint16(399), false, uint8(0), uint16(0), uint64(11))
	// The only live machine dies and every other machine is a spare.
	f.Add(false, uint8(1), uint8(0b10), uint8(3), uint8(0), uint16(0), true, uint8(0), uint16(100), uint64(1))
	f.Fuzz(func(t *testing.T, memaware bool, machines, standbyMask, seats, model uint8, rate uint16,
		kill bool, killShard uint8, killFrac uint16, seed uint64) {
		checkWalk(t, walkConfig(memaware, machines, standbyMask, seats, model, rate, kill, killShard, killFrac, seed))
	})
}
