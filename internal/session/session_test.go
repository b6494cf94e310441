package session

import (
	"testing"

	"thinbench/internal/sched"
	"thinbench/internal/simclock"
	"thinbench/internal/vm"
)

func TestManifestTotalsMatchPaper(t *testing.T) {
	if got := LinuxManifest().TotalKB(); got != 752 {
		t.Errorf("Linux login = %d KB, paper reports 752", got)
	}
	if got := TSEManifest().TotalKB(); got != 3244 {
		t.Errorf("TSE login = %d KB, paper reports 3,244", got)
	}
	if got := TSELightManifest().TotalKB(); got != 2100 {
		t.Errorf("TSE light login = %d KB, paper reports 2,100", got)
	}
}

func TestSystemIdleBaselines(t *testing.T) {
	if LinuxSystemIdleKB != 17*1024 || TSESystemIdleKB != 19*1024 {
		t.Fatal("system idle baselines diverge from the paper's 17MB/19MB")
	}
}

func TestLoginMakesManifestResident(t *testing.T) {
	cfg := vm.DefaultConfig()
	m := vm.New(cfg)
	before := m.FreeKB()
	procs := Login(m, TSEManifest())
	if len(procs) != 5 {
		t.Fatalf("login created %d processes, want 5", len(procs))
	}
	used := before - m.FreeKB()
	want := TSEManifest().TotalKB()
	// Page-granular rounding may add up to one page per process.
	if used < want || used > want+len(procs)*cfg.PageKB {
		t.Fatalf("login consumed %d KB, want ~%d", used, want)
	}
	for _, p := range procs {
		if !p.Interactive {
			t.Fatal("session processes must be interactive")
		}
	}
}

func TestCapacity(t *testing.T) {
	// 64 MB server, TSE: (65536-19456)/3244 = 14 sessions.
	if got := Capacity(64*1024, TSESystemIdleKB, TSEManifest()); got != 14 {
		t.Fatalf("TSE capacity = %d, want 14", got)
	}
	// Linux: (65536-17408)/752 = 64 sessions.
	if got := Capacity(64*1024, LinuxSystemIdleKB, LinuxManifest()); got != 64 {
		t.Fatalf("Linux capacity = %d, want 64", got)
	}
	if Capacity(1024, 2048, LinuxManifest()) != 0 {
		t.Fatal("negative free memory should give zero capacity")
	}
}

func TestLightVsTypicalOrdering(t *testing.T) {
	if !(LinuxManifest().TotalKB() < TSELightManifest().TotalKB() &&
		TSELightManifest().TotalKB() < TSEManifest().TotalKB()) {
		t.Fatal("per-session memory ordering violated")
	}
}

// TestLogoutIsLoginInverse: logging out returns exactly the pages a login
// made resident, so the memory division the capacity arithmetic relies on
// holds across arbitrary login/logout sequences, not just a one-shot boot.
func TestLogoutIsLoginInverse(t *testing.T) {
	m := vm.New(vm.DefaultConfig())
	baseline := m.FreeKB()
	procs := Login(m, TSEManifest())
	if m.FreeKB() >= baseline {
		t.Fatal("login did not consume memory")
	}
	Logout(m, procs)
	if got := m.FreeKB(); got != baseline {
		t.Fatalf("logout left %d KB free, want the pre-login %d", got, baseline)
	}
	for _, p := range procs {
		if p.Resident() != 0 {
			t.Fatalf("process %s still has %d resident pages after logout", p.Name, p.Resident())
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("manager accounting broken after logout: %v", err)
	}
	// A second churn cycle lands on the same division.
	again := Login(m, TSEManifest())
	used := baseline - m.FreeKB()
	want := TSEManifest().TotalKB()
	if used < want || used > want+len(again)*m.Config().PageKB {
		t.Fatalf("re-login consumed %d KB, want ~%d", used, want)
	}
}

// TestDetachUserReleasesEverything: the wiring-level inverse retires both
// pipeline threads and frees the session's memory in one call.
func TestDetachUserReleasesEverything(t *testing.T) {
	eng := simclock.NewEngine()
	cpu := sched.NewCPU(eng, sched.NewRR())
	m := vm.New(vm.DefaultConfig())
	baseline := m.FreeKB()
	u := AttachUser(cpu, m, LinuxManifest())
	survivor := AttachUser(cpu, m, LinuxManifest())

	// Queue work on the departing user so Retire has something to drop.
	cpu.Submit(u.App, &sched.WorkItem{CPU: simclock.Millisecond,
		OnDone: func(simclock.Time, int, int) { t.Fatal("retired thread completed work") }})
	DetachUser(cpu, m, u)
	eng.RunFor(simclock.Second)

	for _, p := range u.Procs {
		if p.Resident() != 0 {
			t.Fatalf("departed process %s still resident", p.Name)
		}
	}
	// The survivor is untouched and the departed pages are free again.
	if got := baseline - m.FreeKB(); got < LinuxManifest().TotalKB() ||
		got > LinuxManifest().TotalKB()+len(survivor.Procs)*m.Config().PageKB {
		t.Fatalf("after detach %d KB in use, want one login's worth", got)
	}
	if survivor.Procs[0].Resident() == 0 {
		t.Fatal("detach evicted the surviving session")
	}
}

// TestAttachUserWiresSharedSubstrates: two logins share one CPU and one
// memory manager, and both pipeline threads are marked by role under
// every policy — the application thread boosted, both threads in the
// SVR4 interactive class — on a fresh login and on a pooled re-login.
func TestAttachUserWiresSharedSubstrates(t *testing.T) {
	for _, policy := range []*sched.Policy{sched.NewRR(), sched.NewNT(1), sched.NewSVR4IA()} {
		cpu := sched.NewCPU(simclock.NewEngine(), policy)
		m := vm.New(vm.DefaultConfig())
		a := AttachUser(cpu, m, LinuxManifest())
		b := AttachUser(cpu, m, LinuxManifest())
		if len(a.Procs) != 3 {
			t.Fatalf("user 0 created %d processes, want 3", len(a.Procs))
		}
		if a.App == b.App || a.Encoder == b.Encoder || a.App == a.Encoder {
			t.Fatal("users share threads on the shared CPU")
		}
		ws := a.WorkingSet()
		if ws == nil || ws.Name != "xterm" {
			t.Fatalf("working set should be the largest process, got %+v", ws)
		}
		// Both logins are resident in the one shared memory manager.
		want := 2 * LinuxManifest().TotalKB()
		used := m.TotalPages()*m.Config().PageKB - m.FreeKB()
		if used < want {
			t.Fatalf("shared manager holds %d KB resident, want at least %d", used, want)
		}
		DetachUser(cpu, m, b)
		for i, u := range []*User{a, ReattachUser(cpu, m, b)} {
			if !u.App.GUIBoost || u.Encoder.GUIBoost || !u.App.Interactive || !u.Encoder.Interactive {
				t.Fatalf("%s user %d: app boost %v interactive %v, encoder boost %v interactive %v; want the app boosted and both interactive",
					policy.Name(), i, u.App.GUIBoost, u.App.Interactive, u.Encoder.GUIBoost, u.Encoder.Interactive)
			}
		}
	}
}
