package session

import (
	"testing"

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

// TestLogoutIsLoginInverse: logging out, which evicts every process of
// the login as the server's logout does, returns exactly the pages a login
// made resident, so the memory division the capacity arithmetic relies on
// holds across arbitrary login/logout sequences, not just a one-shot boot.
func TestLogoutIsLoginInverse(t *testing.T) {
	m := vm.New(vm.DefaultConfig())
	baseline := m.FreeKB()
	procs := Login(m, TSEManifest())
	if m.FreeKB() >= baseline {
		t.Fatal("login did not consume memory")
	}
	for _, p := range procs {
		m.EvictAll(p)
	}
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
