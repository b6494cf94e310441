package server

import (
	"reflect"
	"testing"

	"thinbench/internal/schedule"
	"thinbench/internal/simclock"
)

func TestOfficeDayScheduleRuns(t *testing.T) {
	cfg := quick()
	cfg.Span = 6 * simclock.Second
	cfg = scheduled(cfg, schedule.OfficeDay(), 10)
	res := mustRun(t, cfg)
	if res.Arrivals == 0 {
		t.Fatalf("office day produced no mid-run logins: %+v", res)
	}
	if res.EchoSamples != res.Interactions {
		t.Fatalf("samples %d != interactions %d: schedule censoring leak", res.EchoSamples, res.Interactions)
	}
	again := mustRun(t, cfg)
	if !reflect.DeepEqual(res, again) {
		t.Fatal("identical schedule configs diverged")
	}
}

// TestLifecycleEdgeCases drives the admission/departure machinery through
// its corners with explicit plans, asserting the metrics each corner must
// produce — not just the absence of a panic.
func TestLifecycleEdgeCases(t *testing.T) {
	base := quick() // rdp protocol: a 45 KB setup handshake, far over 1 ms of link time
	sec := simclock.Time(simclock.Second)
	span := simclock.Time(base.Span)
	cases := []struct {
		name     string
		sessions []schedule.Session
		check    func(t *testing.T, res Result)
	}{
		{
			// The logout beats the 45 KB handshake: the connection dies at
			// the login screen. Nothing attaches, but the wait is still an
			// (immediately censored) interaction aged login->logout — an
			// overloaded machine must not hide its failed admissions.
			name: "departure before login completes",
			sessions: []schedule.Session{
				{},
				{Login: sec, Logout: sec + simclock.Time(simclock.Millisecond)},
			},
			check: func(t *testing.T, res Result) {
				if res.Arrivals != 0 || res.Departures != 0 {
					t.Fatalf("aborted handshake counted: arrivals=%d departures=%d", res.Arrivals, res.Departures)
				}
				if res.PeakUsers != 1 {
					t.Fatalf("aborted session attached: peak %d", res.PeakUsers)
				}
				if res.Censored < 1 {
					t.Fatal("the login-screen wait was not censored")
				}
				if res.LoginMaxMs != 1 {
					t.Fatalf("login wait %v ms, want the 1 ms login->logout age", res.LoginMaxMs)
				}
			},
		},
		{
			// A zero-length stay is an empty interval: normalized away
			// before the clock moves, leaving the static user alone.
			name: "zero-length stay",
			sessions: []schedule.Session{
				{},
				{Login: sec, Logout: sec},
			},
			check: func(t *testing.T, res Result) {
				if res.Arrivals != 0 || res.Departures != 0 || res.Censored != 0 {
					t.Fatalf("empty interval left traces: %+v", res)
				}
				if res.PeakUsers != 1 || res.LoginMaxMs != 0 {
					t.Fatalf("empty interval affected the population: peak=%d login=%v",
						res.PeakUsers, res.LoginMaxMs)
				}
			},
		},
		{
			// An arrival in the final second: its handshake and page-ins
			// land inside the drain tail, so the login completes and is
			// measured, but it types for (at most) a sliver of the span.
			name: "arrival in the final second",
			sessions: []schedule.Session{
				{},
				{Login: span - simclock.Time(500*simclock.Millisecond)},
			},
			check: func(t *testing.T, res Result) {
				if res.Arrivals != 1 {
					t.Fatalf("late arrival never admitted: %+v", res)
				}
				if res.LoginMaxMs <= 0 {
					t.Fatal("late arrival's admission latency unmeasured")
				}
				if res.PeakUsers != 2 {
					t.Fatalf("peak %d, want 2", res.PeakUsers)
				}
				if res.EchoSamples != res.Interactions {
					t.Fatalf("samples %d != interactions %d", res.EchoSamples, res.Interactions)
				}
			},
		},
		{
			// Two arrivals on the same seat in one tick: a zero-gap
			// handover. Both admissions run in full (two setups, two login
			// waits), the seat's random stream is shared, and the
			// departure frees the first session's memory the instant the
			// second's handshake starts.
			name: "two arrivals on the same seat in one tick",
			sessions: []schedule.Session{
				{},
				{Login: sec, Logout: 2 * sec, Seat: 5},
				{Login: 2 * sec, Seat: 5},
			},
			check: func(t *testing.T, res Result) {
				if res.Arrivals != 2 || res.Departures != 1 {
					t.Fatalf("handover accounting: arrivals=%d departures=%d, want 2/1",
						res.Arrivals, res.Departures)
				}
				if res.PeakUsers != 2 {
					t.Fatalf("peak %d, want 2 (the seat holds one session at a time)", res.PeakUsers)
				}
				if res.LoginMaxMs <= 0 {
					t.Fatal("handover logins unmeasured")
				}
				if res.EchoSamples != res.Interactions {
					t.Fatalf("samples %d != interactions %d: handover censoring leak",
						res.EchoSamples, res.Interactions)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Sessions = tc.sessions
			res := mustRun(t, cfg)
			tc.check(t, res)
			if again := mustRun(t, cfg); !reflect.DeepEqual(res, again) {
				t.Fatal("identical configs diverged")
			}
		})
	}
}
