package server

import (
	"cmp"
	"reflect"
	"testing"

	"thinbench/internal/sched"
	"thinbench/internal/schedule"
	"thinbench/internal/session"
)

// recycleChain is a sequence of machines for one server to be rebuilt
// through: 48, 64 and 128 MB machines, static and scheduled, with and
// without background CPU and traffic, a storm that overflows the link, an
// arrival that leaves mid-handshake, a TierPlan under nt and a second nt
// machine after it, then a protocol change and a manifest change, each of
// which must drop the records, and machines that carry the new ones on.
func recycleChain() []Config {
	office := schedule.OfficeDay()
	// The TSE login running the default configuration's application.
	tse := session.TSEManifest()
	tse.Processes = append(tse.Processes, session.ProcessSpec{Name: "app", PrivateKB: 2800})
	var chain []Config
	add := func(set func(c *Config)) {
		c := quick()
		c.Users = 6
		set(&c)
		chain = append(chain, c)
	}
	add(func(c *Config) { c.PhysicalKB = 48 * 1024 })
	add(func(c *Config) { c.PhysicalKB, c.Users = 128*1024, 14 })
	add(func(c *Config) { *c = scheduled(*c, office, 12) })
	add(func(c *Config) {
		*c = scheduled(*c, office, 20)
		c.PhysicalKB = 48 * 1024
		c.BackgroundCPUFrac, c.BackgroundBitsPerSec = 0, 0
	})
	add(func(c *Config) { c.Sessions, c.Link.QueuePackets = stormPlan(), 4 })
	add(func(c *Config) {
		c.Sessions = []schedule.Session{
			{Logout: sec(1)},
			{Login: sec(0.5), Logout: sec(0.501)}, // leaves mid-handshake
			{Login: sec(1.2), Logout: sec(2.8)},
		}
	})
	add(func(c *Config) {
		c.Users, c.Scheduler = 8, "nt"
		c.TierPlan = []TierChange{{At: sec(1), Tier: 2}, {At: sec(2), Tier: 1}}
	})
	add(func(c *Config) { *c = scheduled(*c, office, 16); c.PhysicalKB, c.Scheduler = 128*1024, "nt" })
	add(func(c *Config) { *c = scheduled(*c, office, 10); c.Protocol = "x" })
	add(func(c *Config) { c.Protocol, c.Manifest, c.Users = "x", tse, 5 })
	add(func(c *Config) {
		*c = scheduled(*c, office, 12)
		c.Protocol, c.Manifest, c.Scheduler = "x", tse, "svr4ia"
		c.PhysicalKB = 48 * 1024
	})
	add(func(c *Config) { c.Protocol, c.Users = "model", 3 })
	return chain
}

// TestNewFromMatchesNew runs recycleChain through one server, each machine
// built in the last one's storage with newFrom, and runs each machine
// again through New: Result and Samples must be deeply equal. A machine
// whose protocol and session manifest equal the last one's keeps its
// memory manager, so its logins take the parked records; any other starts
// a new manager, so that no registered process outlives its record. A
// machine keeps the last one's scheduling policy exactly when it names
// the same scheduler.
func TestNewFromMatchesNew(t *testing.T) {
	chain := recycleChain()
	var prev *Server
	carried, dropped := 0, 0
	for i, cfg := range chain {
		var lastMem any
		var lastPolicy *sched.Policy
		carry, samePolicy := false, false
		if prev != nil {
			lastMem, lastPolicy = prev.mem, prev.cpu.Policy()
			last := chain[i-1]
			carry = last.Protocol == cfg.Protocol && sameManifest(last.Manifest, cfg.Manifest)
			samePolicy = cmp.Or(last.Scheduler, "rr") == cmp.Or(cfg.Scheduler, "rr")
		}
		srv, err := newFrom(prev, cfg)
		if err != nil {
			t.Fatalf("machine %d: %v", i, err)
		}
		if prev != nil {
			if keeps := any(srv.mem) == lastMem; keeps != carry {
				t.Fatalf("machine %d: kept its memory manager %v, want %v", i, keeps, carry)
			}
			if keeps := srv.cpu.Policy() == lastPolicy; keeps != samePolicy {
				t.Fatalf("machine %d: kept its scheduling policy %v, want %v", i, keeps, samePolicy)
			}
			if carry {
				carried++
			} else {
				dropped++
			}
		}
		got, err := srv.Run()
		if err != nil {
			t.Fatalf("machine %d: %v", i, err)
		}
		if err := srv.mem.CheckInvariants(); err != nil {
			t.Fatalf("machine %d: %v", i, err)
		}
		checkRecords(t, srv)
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("machine %d: rebuilt %+v\nnew     %+v", i, got, want)
		}
		if !reflect.DeepEqual(srv.Samples(), fresh.Samples()) {
			t.Fatalf("machine %d: rebuilt and new samples differ", i)
		}
		prev = srv
	}
	if carried == 0 || dropped < 3 {
		t.Fatalf("%d machines kept their records and %d dropped them; want both, and three drops", carried, dropped)
	}
}

// TestMidHandshakeLogoutParksItsRecord: an arrival that logs out before
// its handshake lands gives its session record back whole, though it never
// logged in, so the next arrival reuses it; Run's accounting finds every
// record live or parked, and every record held when Run returns has every
// part (checkRecords), under the model codec and every protocol.
func TestMidHandshakeLogoutParksItsRecord(t *testing.T) {
	left := schedule.Session{Login: sec(1), Logout: sec(1) + 1} // the handshake outlasts the stay
	for _, proto := range codecs {
		for _, plan := range [][]schedule.Session{
			{{}, left},
			{{}, left, {Login: sec(2), Logout: sec(2.5)}},
		} {
			cfg := quick()
			cfg.Protocol = proto
			cfg.Sessions = plan
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := srv.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Arrivals != len(plan)-2 || srv.records != 2 || len(srv.sessionPool) != 1 {
				t.Fatalf("%s, %d sessions: %d arrivals logged in, %d records built, %d parked; want %d, 2 built and the departed one parked",
					proto, len(plan), res.Arrivals, srv.records, len(srv.sessionPool), len(plan)-2)
			}
			checkRecords(t, srv)
		}
	}
}
