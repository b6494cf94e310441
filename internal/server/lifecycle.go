package server

import (
	"slices"

	"thinbench/internal/schedule"
	"thinbench/internal/simclock"
)

// Lifecycle is one session's presence on the server clock. The zero value
// is the static session every run before the churn refactor assumed:
// logged in at time zero, logged in at the end.
type Lifecycle struct {
	// Login is when the session arrives. Zero means present from the
	// start: the session is logged in before the clock moves and pays no
	// setup cost, exactly as the static model's whole population did.
	// A later login is a real arrival — it pays the protocol's
	// session-setup bytes on the contended link and the login page-ins on
	// the shared memory before its first interaction counts.
	Login simclock.Time
	// Logout is when the session departs, freeing its memory and retiring
	// its threads; interactions still in flight are right-censored at this
	// instant. Zero means the session stays for the whole run.
	Logout simclock.Time
	// Seat, when positive, names the session's random-stream identity:
	// its typing phase and background offsets derive from (Seed, Seat-1)
	// instead of the plan position. Plan generators assign stable
	// 1-based seat numbers so that a replacement keeps its slot's stream
	// no matter how many other sessions the plan holds, and so that seat
	// k's stream equals static session k-1's — common random numbers
	// both across candidate populations (what capacity bisection relies
	// on) and between a static run and the same population under churn.
	// Zero falls back to the plan position, which keeps a static plan
	// bit-identical to the pre-lifecycle model.
	Seat int
}

// plan expands the configuration's population into explicit lifecycles:
// the caller-provided Sessions plan (normalized), the compiled Schedule
// profile, or, with neither, Users sessions present for the whole run. It
// writes them into dst's storage when it has room, so a rebuilt server
// compiles its plan where the last one's lay.
func (c Config) plan(dst []Lifecycle) []Lifecycle {
	span := simclock.Time(c.Span)
	if c.Sessions != nil {
		out := slices.Grow(dst[:0], len(c.Sessions))
		for _, lc := range c.Sessions {
			if lc.Login < 0 {
				lc.Login = 0
			}
			if lc.Login >= span {
				continue // would log in after measurement ends
			}
			if lc.Logout != 0 && lc.Logout <= lc.Login {
				continue // empty interval
			}
			out = append(out, lc)
		}
		return out
	}
	users := c.Users
	if users < 1 {
		users = 1
	}
	if c.Schedule == nil {
		return reuse(dst, users)
	}
	// The schedule compiler owns seat streams: each seat draws from a
	// (Seed, schedule.Salt, seat)-derived stream and stamps its seat
	// number on every episode, so the plan for N users is a prefix of the
	// plan for N+1 and a replacement keeps its slot's stream (common
	// random numbers across candidate populations, the property capacity
	// bisection relies on). New validated the profile, so compilation
	// cannot fail here.
	ss, err := schedule.Compile(*c.Schedule, users, c.Span, c.Seed)
	if err != nil {
		panic("server: plan on unvalidated schedule: " + err.Error())
	}
	out := slices.Grow(dst[:0], len(ss))
	for _, s := range ss {
		out = append(out, Lifecycle{Login: s.Login, Logout: s.Logout, Seat: s.Seat})
	}
	return out
}

// initialUsers counts the sessions present from time zero.
func initialUsers(plan []Lifecycle) int {
	n := 0
	for _, lc := range plan {
		if lc.Login == 0 {
			n++
		}
	}
	return n
}
