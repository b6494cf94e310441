package server

import (
	"slices"

	"thinbench/internal/schedule"
	"thinbench/internal/simclock"
)

// plan expands the configuration's population into explicit sessions: the
// caller's Sessions plan, normalized, or, without one, Users sessions
// present for the whole run. It writes them into dst's storage when it
// has room, so a rebuilt server lays its plan out where the last one's
// lay.
func (c Config) plan(dst []schedule.Session) []schedule.Session {
	if c.Sessions == nil {
		return reuse(dst, max(1, c.Users))
	}
	span := simclock.Time(c.Span)
	out := slices.Grow(dst[:0], len(c.Sessions))
	for _, s := range c.Sessions {
		if s.Login < 0 {
			s.Login = 0
		}
		if s.Login >= span {
			continue // would log in after measurement ends
		}
		if s.Logout != 0 && s.Logout <= s.Login {
			continue // empty interval
		}
		out = append(out, s)
	}
	return out
}

// initialUsers counts the sessions present from time zero.
func initialUsers(plan []schedule.Session) int {
	n := 0
	for _, s := range plan {
		if s.Login == 0 {
			n++
		}
	}
	return n
}
