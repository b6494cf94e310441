package schedule

import "thinbench/internal/simclock"

// DefaultFlatRate is the turnover rate the named "flat" profile compiles
// at when nothing more specific is asked for: the canonical mid-grid churn
// rate of the repo's BENCH_churn trajectory.
const DefaultFlatRate = 0.15

// Flat is the churn process: every seat occupied from time zero,
// exponential stays with mean 1/ratePerSec, and each departure an
// immediate handover to the next user. Compiled at rate r it reproduces
// the original churn generator's plan draw-for-draw — the property test
// and the BENCH_churn baseline both pin it. A server or sizing probe
// churns by passing it as the Schedule.
func Flat(ratePerSec float64) Profile {
	var mean simclock.Duration
	if ratePerSec > 0 {
		mean = simclock.Duration(1e6 / ratePerSec)
	}
	return Profile{
		Name:      "flat",
		StartFrac: 1,
		Replace:   true,
		Stay:      Stay{Kind: StayExp, Mean: mean},
	}
}

// OfficeDay is a white-collar day compressed onto the span: the span maps
// 7:30 to 18:00, so the 9 AM login storm lands around 0.13-0.19 of the
// way in, the lunch dip at 0.43-0.52, and after the 17:00 close (0.905)
// nobody logs in again. Stays are lognormal around a 3.2-second median —
// tuned, like every built-in, for the repo's canonical ~10-second spans —
// so the morning crowd naturally thins around lunch and drains by close.
//
//	rate
//	 8 |        ##
//	   |        ##
//	   |        ##
//	 2 |        ##
//	 1 |        ####____      ____
//	   |____####        \____/    \________
//	 0 +----+---+-------+----+----+-------+--
//	   7:30 9am         noon 1pm          5pm
func OfficeDay() Profile {
	return Profile{
		Name: "officeday",
		// A sliver of the floor — night owls, ops — is already logged in
		// when the span opens, so the pre-storm baseline has real echoes
		// to measure a failover excursion against.
		StartFrac: 0.15,
		Timeline: []Segment{
			{From: 0, Rate: 0.5},     // early birds, 7:30-8:50
			{From: 0.127, Rate: 8},   // the 9 AM storm, 8:50-9:30
			{From: 0.19, Rate: 1.1},  // late-morning trickle
			{From: 0.43, Rate: 0.25}, // lunch dip, noon-1
			{From: 0.524, Rate: 1.6}, // back from lunch
			{From: 0.62, Rate: 0.45}, // afternoon
			{From: 0.905, Rate: 0},   // 5 PM: the day is over
		},
		Stay: Stay{Kind: StayLognorm, Median: 3200 * simclock.Millisecond, Sigma: 0.45},
	}
}

// ShiftChange is a round-the-clock floor run in three shifts: most of the
// off-going shift is aboard when the span opens, and the two relief
// shifts arrive in tight synchronized waves at the 1/3 and 2/3 marks,
// staying about one shift each — the handover surges a 24x7 operation
// pays three times a day.
func ShiftChange() Profile {
	return Profile{
		Name:      "shiftchange",
		StartFrac: 0.85,
		Timeline: []Segment{
			{From: 0, Rate: 0.15}, // stragglers between handovers
			{From: 0.30, Rate: 6}, // second-shift wave
			{From: 0.36, Rate: 0.15},
			{From: 0.63, Rate: 6}, // third-shift wave
			{From: 0.69, Rate: 0.15},
			{From: 0.9, Rate: 0}, // nobody starts a shift at the end
		},
		Stay: Stay{Kind: StayLognorm, Median: 3300 * simclock.Millisecond, Sigma: 0.2},
	}
}

// Builtins lists the built-in profile names in canonical order.
func Builtins() []string { return []string{"flat", "officeday", "shiftchange"} }

// Builtin resolves a built-in profile by name; the boolean reports whether
// the name is known. "flat" compiles at DefaultFlatRate — use Flat
// directly for another rate.
func Builtin(name string) (Profile, bool) {
	switch name {
	case "flat":
		return Flat(DefaultFlatRate), true
	case "officeday":
		return OfficeDay(), true
	case "shiftchange":
		return ShiftChange(), true
	}
	return Profile{}, false
}
