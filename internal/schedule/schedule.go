// Package schedule generates time-varying session arrival plans — the
// shape of a real terminal-server day instead of the memoryless churn the
// lifecycle layer started with. A Profile is a piecewise-constant arrival
// rate timeline plus a stay-duration distribution; Compile expands it
// deterministically into explicit login/logout episodes that the server
// layer runs as a session plan and the shard layer routes through its live
// placement policy.
//
// The paper's whole argument (§5) is that interactive load is bursty and
// correlated: a 9 AM login storm is not a Poisson trickle, and failover
// under a storm is the stress case SLIM's stateless-client design argues
// about. Profiles express exactly that — OfficeDay's morning storm, lunch
// dip and close-of-day exodus, ShiftChange's synchronized handovers — while
// Flat reproduces the legacy exponential churn draw-for-draw, so the
// refactor is behavior-preserving by construction.
//
// Determinism contract: every seat owns a private random stream derived
// from (seed, Salt, seat), so the plan for N seats is a prefix of the plan
// for N+1 (the property capacity bisection relies on), a replacement keeps
// its seat's stream, and a compiled plan is bit-for-bit reproducible.
package schedule

import (
	"fmt"
	"math"

	"thinbench/internal/simclock"
)

// Salt separates schedule compilation's random streams from every other
// consumer of a configuration seed. It equals the legacy churn salt
// ("life") so a Flat profile's draws land on exactly the streams the
// exponential churn process used.
const Salt = 0x6c696665

// maxStaysPerSeat bounds the stays one seat draws, a guard against
// degenerate profiles (near-zero stays under Replace) compiling into
// unbounded plans or spinning on stays that emit no episode. Real
// profiles sit orders of magnitude below it.
const maxStaysPerSeat = 100_000

// Session is one login/logout episode of one seat, in span-relative
// virtual time: the one plan entry of every layer. Compile emits them, a
// server runs a list of them as its session plan (server.Config.Sessions),
// and the fleet walk writes each machine's plan in them.
type Session struct {
	// Login is the arrival instant. Zero means present from the start: the
	// session is logged in before the clock moves and pays no setup cost.
	// A later login is a real arrival, which pays the protocol's
	// session-setup bytes on the contended link and the login page-ins on
	// the shared memory before its first interaction counts.
	Login simclock.Time
	// Logout is the departure instant, which frees the session's memory
	// and retires its threads; interactions still in flight are
	// right-censored there. Zero means the session stays to the end of
	// the span.
	Logout simclock.Time
	// Seat, when positive, is the 1-based random-stream identity shared by
	// every episode of the same seat: a server derives the session's
	// typing phase and background offsets from (seed, Seat-1), so a
	// replacement keeps its slot's stream however many other sessions the
	// plan holds, and seat k's stream equals static session k-1's. Zero,
	// in a plan written by hand, falls back to the plan position.
	Seat int
}

// Segment is one piece of the arrival-rate timeline.
type Segment struct {
	// From is where the segment starts, as a fraction of the span in
	// [0, 1). The segment extends to the next segment's From (or to the
	// end of the span). Arrival rate is zero before the first segment.
	From float64
	// Rate is the segment's relative arrival intensity. Only ratios
	// matter: Compile normalizes the timeline into an arrival-time
	// distribution, so doubling every Rate changes nothing.
	Rate float64
}

// Stay distribution kinds.
const (
	StayExp       = "exp"
	StayLognorm   = "lognorm"
	StayQuantiles = "quantiles"
)

// Stay is the logged-in duration distribution of a profile's sessions.
// Durations are absolute virtual time; the built-in profiles are tuned for
// the repo's canonical ~10-second measurement spans.
type Stay struct {
	// Kind selects the distribution: StayExp, StayLognorm, or
	// StayQuantiles.
	Kind string
	// Mean is the exponential mean (StayExp). Drawn with the same
	// generator call the legacy churn process used, which is what makes
	// Flat reproduce it bit-for-bit.
	Mean simclock.Duration
	// Median and Sigma shape the lognormal (StayLognorm): Median is the
	// 50th-percentile stay and Sigma the log-space standard deviation.
	Median simclock.Duration
	Sigma  float64
	// Quantiles are evenly spaced stay quantiles (StayQuantiles): a draw
	// picks a uniform position and interpolates linearly, so any measured
	// stay distribution can be replayed from its quantile sketch.
	Quantiles []simclock.Duration
}

// Profile is a time-varying arrival/occupancy model: who is logged in
// when, expressed as machine-free fractions of a measurement span so the
// same profile compiles onto any span and any seat count.
type Profile struct {
	// Name identifies the profile in the codec and in bench output. It
	// must be non-empty and use only [A-Za-z0-9._-].
	Name string
	// StartFrac is the fraction of seats occupied when the span opens
	// (sessions present from time zero, paying no login cost — the
	// overnight population). Seats 0..round(StartFrac*seats)-1 start
	// occupied, so a StartFrac-1 profile's initial population matches the
	// static model seat for seat.
	StartFrac float64
	// Replace makes every departure an immediate handover: the next
	// shift's user takes the seat at the same instant, the legacy churn
	// semantics. Without it a departed seat re-arrives through the
	// remaining timeline mass (back from lunch) or never.
	Replace bool
	// Timeline is the piecewise-constant relative arrival intensity, in
	// strictly increasing From order. Empty means no timed arrivals: every
	// session comes from StartFrac (and Replace handovers).
	Timeline []Segment
	// Stay is the logged-in duration distribution.
	Stay Stay
}

// Validate checks the profile's shape: a malformed timeline (negative
// rate, unsorted breakpoints, zero total weight) or a degenerate stay
// distribution is rejected here, once, rather than surfacing as a silent
// mis-compile.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("schedule: profile has no name")
	}
	for _, c := range p.Name {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '.' || c == '_' || c == '-') {
			return fmt.Errorf("schedule: profile name %q has characters outside [A-Za-z0-9._-]", p.Name)
		}
	}
	if !(p.StartFrac >= 0 && p.StartFrac <= 1) {
		return fmt.Errorf("schedule: start fraction %v outside [0, 1]", p.StartFrac)
	}
	total := 0.0
	for i, s := range p.Timeline {
		if !(s.From >= 0 && s.From < 1) {
			return fmt.Errorf("schedule: segment %d starts at %v, outside [0, 1)", i, s.From)
		}
		if i > 0 && !(s.From > p.Timeline[i-1].From) {
			return fmt.Errorf("schedule: segment %d at %v does not follow segment %d at %v",
				i, s.From, i-1, p.Timeline[i-1].From)
		}
		if !(s.Rate >= 0) || math.IsInf(s.Rate, 0) {
			return fmt.Errorf("schedule: segment %d has rate %v, want finite and >= 0", i, s.Rate)
		}
		end := 1.0
		if i+1 < len(p.Timeline) {
			end = p.Timeline[i+1].From
		}
		total += s.Rate * (end - s.From)
	}
	if len(p.Timeline) > 0 && !(total > 0) {
		return fmt.Errorf("schedule: timeline has zero total weight")
	}
	if len(p.Timeline) == 0 && !(p.StartFrac > 0) {
		return fmt.Errorf("schedule: no timeline and no starting occupancy — the profile admits no sessions")
	}
	return p.Stay.validate()
}

// minStayScale is the smallest stay scale (exponential mean, lognormal
// median, top quantile) a profile may declare. Stays below the clock's
// millisecond neighborhood mostly truncate to zero-length sessions, and
// under Replace those loop at a single instant — a parseable profile
// must not be able to compile into a plan of hundreds of thousands of
// same-tick episodes.
const minStayScale = simclock.Millisecond

func (s Stay) validate() error {
	switch s.Kind {
	case StayExp:
		if s.Mean < minStayScale {
			return fmt.Errorf("schedule: exponential stay mean %v below the %v minimum", s.Mean, minStayScale)
		}
	case StayLognorm:
		if s.Median < minStayScale {
			return fmt.Errorf("schedule: lognormal stay median %v below the %v minimum", s.Median, minStayScale)
		}
		if !(s.Sigma >= 0) || math.IsInf(s.Sigma, 0) {
			return fmt.Errorf("schedule: lognormal sigma %v, want finite and >= 0", s.Sigma)
		}
	case StayQuantiles:
		if len(s.Quantiles) == 0 {
			return fmt.Errorf("schedule: empty stay quantile list")
		}
		for i, q := range s.Quantiles {
			if q < 0 {
				return fmt.Errorf("schedule: stay quantile %d is negative (%v)", i, q)
			}
			if i > 0 && q < s.Quantiles[i-1] {
				return fmt.Errorf("schedule: stay quantiles not non-decreasing at %d (%v after %v)",
					i, q, s.Quantiles[i-1])
			}
		}
		if s.Quantiles[len(s.Quantiles)-1] < minStayScale {
			return fmt.Errorf("schedule: top stay quantile %v below the %v minimum (near-empty stays)",
				s.Quantiles[len(s.Quantiles)-1], minStayScale)
		}
	default:
		return fmt.Errorf("schedule: unknown stay kind %q", s.Kind)
	}
	return nil
}

// startOccupied is how many of the profile's seats hold a session when the
// span opens.
func (p Profile) startOccupied(seats int) int {
	return int(p.StartFrac*float64(seats) + 0.5)
}

// timelineCDF is the compiled arrival-time distribution: per-segment mass
// and the cumulative mass before each segment, in un-normalized weight
// units to keep the float arithmetic simple and exact-enough.
type timelineCDF struct {
	from  []float64 // segment starts, plus a trailing 1.0 sentinel
	rate  []float64
	cum   []float64 // mass strictly before segment i
	total float64
}

func newTimelineCDF(tl []Segment) timelineCDF {
	c := timelineCDF{
		from: make([]float64, len(tl)+1),
		rate: make([]float64, len(tl)),
		cum:  make([]float64, len(tl)),
	}
	for i, s := range tl {
		c.from[i] = s.From
		c.rate[i] = s.Rate
	}
	c.from[len(tl)] = 1
	for i := range tl {
		c.cum[i] = c.total
		c.total += c.rate[i] * (c.from[i+1] - c.from[i])
	}
	return c
}

// at is the arrival mass accumulated strictly before fraction x.
func (c timelineCDF) at(x float64) float64 {
	mass := 0.0
	for i := range c.rate {
		if x <= c.from[i] {
			break
		}
		end := c.from[i+1]
		if x < end {
			end = x
		}
		mass += c.rate[i] * (end - c.from[i])
	}
	return mass
}

// quantile maps an arrival mass target in [0, total) back to the span
// fraction where it accrues.
func (c timelineCDF) quantile(target float64) float64 {
	for i := range c.rate {
		w := c.rate[i] * (c.from[i+1] - c.from[i])
		if w <= 0 {
			continue
		}
		if target < c.cum[i]+w || i == len(c.rate)-1 {
			f := c.from[i] + (target-c.cum[i])/c.rate[i]
			if f < c.from[i] {
				f = c.from[i]
			}
			if f > c.from[i+1] {
				f = c.from[i+1]
			}
			return f
		}
	}
	return 1
}

// Compile expands the profile into an explicit session plan for the given
// seat count and span. The plan lists each seat's first episode in seat
// order, then every later episode in (seat, generation) order — exactly
// the layout the legacy churn generator produced, so a Flat profile's plan
// is indistinguishable from the process it replaced. Compile validates the
// profile and is deterministic in (profile, seats, span, seed).
//
// Seat streams make the plan for N seats a per-seat prefix of the plan
// for N+1. With a fractional StartFrac the one boundary seat that flips
// from vacant to occupied as N grows is the only exception — profiles
// with StartFrac 0 or 1 have the property exactly.
func Compile(p Profile, seats int, span simclock.Duration, seed uint64) ([]Session, error) {
	c, err := NewCompiled(p)
	if err != nil {
		return nil, err
	}
	return c.Plan(seats, span, seed), nil
}

// Plan is Compile's plan of the compiled profile; nil for fewer than one
// seat.
func (c *Compiled) Plan(seats int, span simclock.Duration, seed uint64) []Session {
	if seats < 1 {
		return nil
	}
	out := make([]Session, 0, seats)
	var later []Session
	for seat := 0; seat < seats; seat++ {
		ss := c.SeatSessions(seat, seats, span, seed)
		if len(ss) == 0 {
			continue
		}
		out = append(out, ss[0])
		later = append(later, ss[1:]...)
	}
	return append(out, later...)
}

// Compiled is a validated profile whose arrival-time distribution has been
// built once, for callers that expand many seats or many plans from one
// profile — the per-seat draw sequence is identical to Compile's, only the
// repeated validation and timeline compilation are saved.
type Compiled struct {
	p   Profile
	cdf timelineCDF
}

// NewCompiled validates the profile and compiles its timeline.
func NewCompiled(p Profile) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Compiled{p: p, cdf: newTimelineCDF(p.Timeline)}, nil
}

// SeatSessions is one seat's slice of Compile's plan: every episode the
// seat runs through, in time order; nil for a seat outside [0, seats).
// The fleet layer uses it to route each episode's arrival through the
// live placement policy while keeping the per-seat stream (and with it
// the prefix property) intact.
func (c *Compiled) SeatSessions(seat, seats int, span simclock.Duration, seed uint64) []Session {
	if seat < 0 || seat >= seats {
		return nil
	}
	return seatSessions(c.p, c.cdf, seat, seats, span, seed)
}

// seatSessions generates one validated seat's episodes. The draw sequence
// is the compatibility surface: an occupied seat draws no arrival, each
// episode draws exactly one stay, and a Replace handover draws nothing —
// which makes a Flat seat's stream identical to the legacy churn seat's.
// A zero stay is no episode, wherever it is drawn: it keeps its draw, so
// every later draw lands where it would, and the seat goes on from the
// instant it was drawn at, a Replace handover at that same instant.
func seatSessions(p Profile, cdf timelineCDF, seat, seats int, span simclock.Duration, seed uint64) []Session {
	rng := simclock.NewRand(simclock.DeriveSeed(simclock.DeriveSeed(seed, Salt), uint64(seat)))
	spanF := float64(span)

	var out []Session
	var at simclock.Time
	if seat >= p.startOccupied(seats) {
		// A vacant seat's first login lands where its uniform draw falls
		// on the arrival-time distribution — a storm segment catches most
		// of them, which is the whole point.
		if cdf.total <= 0 {
			return nil
		}
		at = simclock.Time(cdf.quantile(rng.Float64()*cdf.total) * spanF)
		if at >= simclock.Time(span) {
			return nil
		}
	}
	for range maxStaysPerSeat {
		stay := p.Stay.draw(rng)
		end := at.Add(stay)
		if stay > 0 {
			s := Session{Login: at, Seat: seat + 1}
			if end < simclock.Time(span) {
				s.Logout = end
			}
			out = append(out, s)
			if s.Logout == 0 {
				return out // stays to the end of the span
			}
		}
		if p.Replace {
			at = end
			continue
		}
		// Re-arrive through the timeline mass remaining after the logout:
		// zero remaining mass (nothing after close of day) retires the
		// seat for good.
		base := cdf.at(float64(end) / spanF)
		rem := cdf.total - base
		if !(rem > 0) {
			return out
		}
		target := base + rng.Float64()*rem
		if target >= cdf.total {
			target = cdf.total
		}
		next := simclock.Time(cdf.quantile(target) * spanF)
		if next < end {
			next = end // rounding may land a hair before the logout
		}
		if next >= simclock.Time(span) {
			return out
		}
		at = next
	}
	return out
}

// draw samples one stay. Pathological magnitudes clamp to "longer than any
// span" rather than overflowing virtual time.
func (s Stay) draw(rng *simclock.Rand) simclock.Duration {
	const longest = simclock.Duration(1) << 60
	switch s.Kind {
	case StayExp:
		return rng.ExpDuration(s.Mean)
	case StayLognorm:
		v := math.Exp(rng.Normal(math.Log(float64(s.Median)), s.Sigma))
		if !(v >= 0) {
			return 0
		}
		if v >= float64(longest) {
			return longest
		}
		return simclock.Duration(v)
	case StayQuantiles:
		q := s.Quantiles
		if len(q) == 1 {
			return q[0]
		}
		pos := rng.Float64() * float64(len(q)-1)
		i := int(pos)
		if i >= len(q)-1 {
			return q[len(q)-1]
		}
		f := pos - float64(i)
		return q[i] + simclock.Duration(f*float64(q[i+1]-q[i]))
	}
	panic("schedule: draw on unvalidated stay kind " + s.Kind)
}
