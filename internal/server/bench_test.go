package server

import (
	"testing"

	"thinbench/internal/display"
	"thinbench/internal/proto/protos"
	"thinbench/internal/schedule"
	"thinbench/internal/simclock"
)

// BenchmarkEchoPath measures the steady-state echo pipeline and nothing
// else, once per protocol: a contended server is built and warmed outside
// the timer, and each iteration injects one keystroke per user and drains
// the engine through the full path — input encode, link transfer,
// scheduler dispatch, input validate, echo encode, client apply. The
// allocation report is the pipeline's regression canary and must read 0
// allocs/op for every codec (CI asserts it): pooled echo ops, scratch
// encoders, payload-carrying events, and shared delivery callbacks leave
// nothing to allocate per interaction, so any nonzero count means a
// closure, a boxed op, or a scratch buffer crept back onto the hot path.
func BenchmarkEchoPath(b *testing.B) {
	for _, p := range protos.Names() {
		b.Run(p, func(b *testing.B) { benchEchoPath(b, p) })
	}
}

func benchEchoPath(b *testing.B, protocol string) {
	cfg := DefaultConfig()
	cfg.Users = 4
	cfg.Protocol = protocol
	cfg.Scheduler = "rr"
	cfg.Seed = 7
	srv, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	period := simclock.Duration(1e6 / cfg.InteractionsPerSec)
	for _, u := range srv.users {
		u.keyEv[0] = display.KeyEvent{Down: true, Code: uint16(30 + u.idx%26)}
	}
	step := func() {
		for _, u := range srv.users {
			srv.keystroke(u, srv.eng.Now(), u.keyEv[:])
		}
		srv.eng.RunFor(period)
	}
	// Warm every pool to its high-water mark — echo ops, work items,
	// engine events, the event queue's heap and slots, encoder scratch,
	// the sample logs' first growth doublings — so the measured loop sees
	// steady state.
	// The warm-up types one full caret wrap (24 lines of 70 columns), so
	// every framebuffer band the echo can store is stored before the timer
	// starts; a band first touched inside the timed loop would be one
	// allocation that integer allocs/op rounds away.
	for i := 0; i < 24*70; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkLoginStorm measures session churn end to end: the office-day
// profile compiled once over a small population, as a fleet machine is
// handed the walk's plan, so every run pays the full arrival pipeline —
// handshake bytes on the contended link, login page-ins, process
// creation, codec setup, departure teardown — with the session pool
// recycling wiring across episodes. fresh builds each iteration's machine
// with New, so it allocates a whole substrate every time. recycled builds
// it from a Pool and gives it back after the run, as a fleet worker does,
// so once warm it allocates only what is new in each run: what Run hands
// out, the samples and the Result. CI pins that count; the
// report ratchets the per-login cost the same way BENCH_speed ratchets
// allocs/event.
func BenchmarkLoginStorm(b *testing.B) {
	prof, ok := schedule.Builtin("officeday")
	if !ok {
		b.Fatal("builtin officeday profile missing")
	}
	cfg := DefaultConfig()
	cfg.Protocol = "rdp"
	cfg.Scheduler = "rr"
	cfg.Span = 10 * simclock.Second
	cfg.Seed = 7
	plan, err := schedule.Compile(prof, 24, cfg.Span, cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Sessions = plan
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			srv, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := srv.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recycled", func(b *testing.B) {
		var pool Pool
		run := func() {
			srv, err := pool.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := srv.Run(); err != nil {
				b.Fatal(err)
			}
			pool.Put(srv)
		}
		// One warm-up machine outside the timer sizes every store the
		// timed rebuilds reuse.
		run()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	})
}
