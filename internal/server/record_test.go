package server

import (
	"cmp"
	"slices"
	"testing"

	"thinbench/internal/sched"
	"thinbench/internal/simclock"
	"thinbench/internal/vm"
)

// checkRecords fails t unless every record srv holds, live, parked or
// claimed for a handshake, has every part: the manifest's processes, the
// largest of them as its working set, three threads of its own, and a
// codec pair exactly when the protocol is a real one.
func checkRecords(t *testing.T, srv *Server) {
	t.Helper()
	held := slices.Clone(srv.sessionPool)
	for _, u := range srv.states {
		if u.rec != nil {
			held = append(held, u.rec)
		}
	}
	if len(held) != srv.records {
		t.Fatalf("%d records built, %d held", srv.records, len(held))
	}
	threads := map[*sched.Thread]bool{}
	for i, r := range held {
		if len(r.procs) != len(srv.cfg.Manifest.Processes) || slices.Contains(r.procs, nil) {
			t.Fatalf("record %d holds processes %v for a %d-process manifest", i, r.procs, len(srv.cfg.Manifest.Processes))
		}
		if r.ws == nil || r.ws != largest(r.procs) {
			t.Fatalf("record %d: working set %v is not its largest process", i, r.ws)
		}
		for _, th := range []*sched.Thread{r.app, r.enc, r.bg} {
			if th == nil || threads[th] {
				t.Fatalf("record %d: a thread is missing or another record's", i)
			}
			threads[th] = true
		}
		if real := realProtocol(srv.cfg.Protocol); (r.psrv != nil) != real || (r.pcli != nil) != real {
			t.Fatalf("record %d: codec pair %v/%v under protocol %q", i, r.psrv, r.pcli, srv.cfg.Protocol)
		}
	}
}

// largest is the first of procs with the most pages.
func largest(procs []*vm.Process) *vm.Process {
	return slices.MaxFunc(procs, func(a, b *vm.Process) int { return cmp.Compare(a.Pages(), b.Pages()) })
}

// residentKB is the memory srv's sessions hold: everything resident but
// the system baseline.
func residentKB(srv *Server) int {
	pageKB := srv.mem.Config().PageKB
	return (srv.mem.TotalPages()-srv.mem.FreePages())*pageKB - (srv.cfg.SystemKB+pageKB-1)/pageKB*pageKB
}

// TestRecordWiresSharedSubstrates: two sessions logged in at time zero
// share one CPU and one memory manager, but each gets its own threads,
// and the threads are marked by role under every policy, the application
// thread GUI-boosted and both pipeline threads in the SVR4 interactive
// class, on a new record and on one logged out, parked and claimed again.
// The working set is the largest process, the application.
func TestRecordWiresSharedSubstrates(t *testing.T) {
	for _, policy := range []string{"rr", "nt", "svr4ia"} {
		cfg := quick()
		cfg.Users, cfg.Scheduler = 2, policy
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, b := &srv.states[0], &srv.states[1]
		checkRecords(t, srv)
		if a.rec.ws.Name != "app" {
			t.Fatalf("%s: working set %s, want the largest process, app", policy, a.rec.ws.Name)
		}
		// Both logins are resident in the one shared memory manager.
		if used, want := residentKB(srv), 2*cfg.Manifest.TotalKB(); used < want {
			t.Fatalf("%s: shared manager holds %d KB for sessions, want at least %d", policy, used, want)
		}
		srv.logout(b)
		rec := b.rec
		srv.park(b)
		srv.claim(b)
		if b.rec != rec {
			t.Fatalf("%s: the claim after a park built a record instead of reusing it", policy)
		}
		srv.login(b)
		for i, r := range []*record{a.rec, b.rec} {
			if !r.app.GUIBoost || r.enc.GUIBoost || r.bg.GUIBoost ||
				!r.app.Interactive || !r.enc.Interactive || r.bg.Interactive {
				t.Fatalf("%s session %d: app boost %v interactive %v, encoder boost %v interactive %v, background boost %v interactive %v; want the app boosted and both pipeline threads, only they, interactive",
					policy, i, r.app.GUIBoost, r.app.Interactive, r.enc.GUIBoost, r.enc.Interactive, r.bg.GUIBoost, r.bg.Interactive)
			}
		}
	}
}

// TestLogoutReleasesEverything: logging a session out retires its three
// threads, dropping their queued work, and frees its memory, while the
// session that stays keeps all of its own.
func TestLogoutReleasesEverything(t *testing.T) {
	cfg := quick()
	cfg.Users = 2
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gone, stays := &srv.states[0], &srv.states[1]
	r := gone.rec
	for _, th := range []*sched.Thread{r.bg, r.app, r.enc} {
		it := srv.cpu.Acquire()
		it.CPU = simclock.Millisecond
		it.OnDone = func(simclock.Time, int, int) { t.Fatal("a retired thread completed work") }
		srv.cpu.Submit(th, it)
	}
	srv.logout(gone)
	srv.eng.RunFor(simclock.Second)
	for _, p := range r.procs {
		if p.Resident() != 0 {
			t.Fatalf("logged-out process %s still has %d pages resident", p.Name, p.Resident())
		}
	}
	for _, p := range stays.rec.procs {
		if p.Resident() != p.Pages() {
			t.Fatalf("the logout evicted %d of the staying session's %s pages", p.Pages()-p.Resident(), p.Name)
		}
	}
	pageKB := srv.mem.Config().PageKB
	if used, want := residentKB(srv), cfg.Manifest.TotalKB(); used < want || used > want+len(r.procs)*pageKB {
		t.Fatalf("after the logout sessions hold %d KB, want one login's %d KB, page-rounded", used, want)
	}
	if err := srv.mem.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
