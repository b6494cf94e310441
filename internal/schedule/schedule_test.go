package schedule

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"thinbench/internal/simclock"
)

const testSpan = 10 * simclock.Second

// legacyChurnPlan is the pre-schedule exponential churn generator,
// verbatim: per-seat streams salted with "life", one exponential stay per
// episode, immediate replacement, initial sessions first and replacements
// in (seat, generation) order. Flat must reproduce it draw for draw.
func legacyChurnPlan(users int, ratePerSec float64, span simclock.Duration, seed uint64) []Session {
	out := make([]Session, users)
	mean := simclock.Duration(1e6 / ratePerSec)
	var replacements []Session
	for seat := 0; seat < users; seat++ {
		rng := simclock.NewRand(simclock.DeriveSeed(simclock.DeriveSeed(seed, 0x6c696665), uint64(seat)))
		at := simclock.Time(0)
		for gen := 0; ; gen++ {
			end := at.Add(rng.ExpDuration(mean))
			lc := Session{Login: at, Seat: seat + 1}
			if end < simclock.Time(span) {
				lc.Logout = end
			}
			if gen == 0 {
				out[seat] = lc
			} else {
				replacements = append(replacements, lc)
			}
			if lc.Logout == 0 {
				break
			}
			at = end
		}
	}
	return append(out, replacements...)
}

// TestFlatCompilesLegacyChurnPlan is the plan-level half of the
// behavior-preservation proof: the Flat profile's compiled plan equals the
// legacy churn generator's output exactly — same times, same seats, same
// ordering — across rates and seeds.
func TestFlatCompilesLegacyChurnPlan(t *testing.T) {
	for _, rate := range []float64{0.1, 0.3, 0.8} {
		for _, seed := range []uint64{1, 42, 1999} {
			want := legacyChurnPlan(9, rate, testSpan, seed)
			got, err := Compile(Flat(rate), 9, testSpan, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rate %v seed %d: Flat plan diverged from legacy churn\ngot  %v\nwant %v",
					rate, seed, got, want)
			}
		}
	}
}

func TestCompileDeterministic(t *testing.T) {
	for _, name := range Builtins() {
		p, _ := Builtin(name)
		a, err1 := Compile(p, 16, testSpan, 7)
		b, err2 := Compile(p, 16, testSpan, 7)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: identical compiles diverged", name)
		}
	}
}

// TestPrefixProperty: for profiles with a 0 or 1 starting occupancy, a
// seat's episodes are identical under any population — the plan for N
// seats is a per-seat prefix of the plan for N+1, the common-random-
// numbers property capacity bisection relies on.
func TestPrefixProperty(t *testing.T) {
	day := OfficeDay()
	day.StartFrac = 0 // a fractional start moves the boundary seat with N
	for _, p := range []Profile{Flat(0.4), day} {
		bySeat := func(ss []Session, seat int) []Session {
			var out []Session
			for _, s := range ss {
				if s.Seat == seat+1 {
					out = append(out, s)
				}
			}
			return out
		}
		small, _ := Compile(p, 10, testSpan, 1999)
		large, _ := Compile(p, 11, testSpan, 1999)
		for seat := 0; seat < 10; seat++ {
			if a, b := bySeat(small, seat), bySeat(large, seat); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s seat %d: episodes changed with population: %v vs %v", p.Name, seat, a, b)
			}
		}
	}
}

func TestSeatSessionsMatchesCompile(t *testing.T) {
	p := ShiftChange()
	full, err := Compile(p, 12, testSpan, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCompiled(p)
	if err != nil {
		t.Fatal(err)
	}
	for seat := 0; seat < 12; seat++ {
		var want []Session
		for _, s := range full {
			if s.Seat == seat+1 {
				want = append(want, s)
			}
		}
		if got := c.SeatSessions(seat, 12, testSpan, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("seat %d: SeatSessions %v != Compile's slice %v", seat, got, want)
		}
	}
}

// TestOfficeDayShapesArrivals pins the storm-and-dip shape: first logins
// bunch inside the 9 AM window, the per-second arrival rate dips over
// lunch, and nobody logs in after the 17:00 close.
func TestOfficeDayShapesArrivals(t *testing.T) {
	const seats = 400
	plan, err := Compile(OfficeDay(), seats, testSpan, 1999)
	if err != nil {
		t.Fatal(err)
	}
	storm, lunch, afterClose := 0, 0, 0
	frac := func(at simclock.Time) float64 { return float64(at) / float64(testSpan) }
	firsts := map[int]bool{}
	for _, s := range plan {
		f := frac(s.Login)
		if !firsts[s.Seat] {
			firsts[s.Seat] = true
			if f >= 0.127 && f < 0.19 {
				storm++
			}
		}
		if f >= 0.43 && f < 0.524 {
			lunch++
		}
		if f >= 0.905 {
			afterClose++
		}
	}
	// The storm segment holds ~44% of the timeline's mass; even after the
	// StartFrac slice of seats that never draw an arrival, well over a
	// quarter of all seats should first log in inside the window.
	if storm < seats/4 {
		t.Fatalf("only %d/%d first logins landed in the 9 AM storm window", storm, seats)
	}
	// The lunch window is 0.094 of the span wide; under a flat timeline it
	// would hold ~9.4%% of arrivals. The dip should keep it well under that.
	if lunch > len(plan)/20 {
		t.Fatalf("lunch dip missing: %d of %d arrivals landed in the lunch window", lunch, len(plan))
	}
	if afterClose != 0 {
		t.Fatalf("%d arrivals after the 17:00 close", afterClose)
	}
	if len(plan) <= seats {
		t.Fatalf("no seat ever returned from a logout: %d episodes over %d seats", len(plan), seats)
	}
}

// TestShiftChangeStartsOccupied: the off-going shift is aboard at time
// zero and the relief waves land at the shift marks.
func TestShiftChangeStartsOccupied(t *testing.T) {
	const seats = 100
	plan, err := Compile(ShiftChange(), seats, testSpan, 3)
	if err != nil {
		t.Fatal(err)
	}
	atOpen := 0
	for _, s := range plan {
		if s.Login == 0 {
			atOpen++
		}
	}
	if atOpen != 85 {
		t.Fatalf("%d seats occupied at open, want 85 (StartFrac 0.85 of %d)", atOpen, seats)
	}
}

func TestSessionInvariants(t *testing.T) {
	for _, name := range Builtins() {
		p, _ := Builtin(name)
		plan, err := Compile(p, 40, testSpan, 11)
		if err != nil {
			t.Fatal(err)
		}
		last := map[int]simclock.Time{}
		for i, s := range plan {
			if s.Login < 0 || s.Login >= simclock.Time(testSpan) {
				t.Fatalf("%s[%d]: login %v outside the span", name, i, s.Login)
			}
			if s.Logout != 0 && s.Logout <= s.Login {
				t.Fatalf("%s[%d]: logout %v not after login %v", name, i, s.Logout, s.Login)
			}
			if s.Seat < 1 || s.Seat > 40 {
				t.Fatalf("%s[%d]: seat %d outside [1, 40]", name, i, s.Seat)
			}
			if end, ok := last[s.Seat]; ok {
				if end == 0 || s.Login < end {
					t.Fatalf("%s[%d]: seat %d episode at %v overlaps previous ending %v",
						name, i, s.Seat, s.Login, end)
				}
			}
			last[s.Seat] = s.Logout
		}
	}
}

// TestZeroStaysEmitNoEpisode compiles a Replace profile whose stays are
// mostly zero: a zero stay, drawn at time zero or later, is no episode,
// so each seat hands over at the instant it drew one and its episodes
// tile the span from time zero, every one of positive length. A zero
// stay at time zero must not read as a session present all day, which
// {Login 0, Logout 0} means to every layer.
func TestZeroStaysEmitNoEpisode(t *testing.T) {
	p := Profile{
		Name:      "zerostays",
		StartFrac: 1,
		Replace:   true,
		Stay: Stay{Kind: StayQuantiles, Quantiles: []simclock.Duration{
			0, 0, 0, 0, 0, 0, 0, 0, 3 * simclock.Second}},
	}
	const seats = 8
	plan, err := Compile(p, seats, testSpan, 3)
	if err != nil {
		t.Fatal(err)
	}
	next := map[int]simclock.Time{}
	episodes := map[int]int{}
	for i, s := range plan {
		if s.Logout != 0 && s.Logout <= s.Login {
			t.Fatalf("plan[%d]: empty episode %+v", i, s)
		}
		if at, ok := next[s.Seat]; s.Login != at || ok && at == 0 {
			t.Fatalf("plan[%d]: seat %d's episode %+v does not start where its last ended (%v)", i, s.Seat, s, at)
		}
		next[s.Seat] = s.Logout
		episodes[s.Seat]++
	}
	for seat := 1; seat <= seats; seat++ {
		// A stay is at most 3 s, so no seat covers the 10 s span in one.
		if episodes[seat] < 2 || next[seat] != 0 {
			t.Fatalf("seat %d: %d episodes ending at %v, want several reaching the span's end", seat, episodes[seat], next[seat])
		}
	}
}

func TestCompileDegenerateInputs(t *testing.T) {
	if ss, err := Compile(OfficeDay(), 0, testSpan, 1); err != nil || ss != nil {
		t.Fatalf("zero seats: %v, %v", ss, err)
	}
	// A zero span compiles the occupied seats as static sessions and
	// drops every timed arrival — nothing can land inside an empty window.
	ss, err := Compile(Flat(0.5), 4, 0, 1)
	if err != nil || len(ss) != 4 {
		t.Fatalf("flat at zero span: %v, %v", ss, err)
	}
	for _, s := range ss {
		if s.Login != 0 || s.Logout != 0 {
			t.Fatalf("zero-span session not static: %+v", s)
		}
	}
	noStart := OfficeDay()
	noStart.StartFrac = 0
	if ss, err := Compile(noStart, 4, 0, 1); err != nil || len(ss) != 0 {
		t.Fatalf("arrival-only profile at zero span: %v, %v", ss, err)
	}
}

func TestValidateRejectsMalformedProfiles(t *testing.T) {
	ok := OfficeDay()
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Profile){
		"empty name":           func(p *Profile) { p.Name = "" },
		"name with space":      func(p *Profile) { p.Name = "office day" },
		"negative start":       func(p *Profile) { p.StartFrac = -0.1 },
		"start above one":      func(p *Profile) { p.StartFrac = 1.5 },
		"negative rate":        func(p *Profile) { p.Timeline[1].Rate = -2 },
		"infinite rate":        func(p *Profile) { p.Timeline[1].Rate = inf() },
		"unsorted breakpoints": func(p *Profile) { p.Timeline[2].From = 0.01 },
		"duplicate breakpoint": func(p *Profile) { p.Timeline[1].From = p.Timeline[0].From },
		"from at one":          func(p *Profile) { p.Timeline[len(p.Timeline)-1].From = 1 },
		"zero-weight timeline": func(p *Profile) {
			for i := range p.Timeline {
				p.Timeline[i].Rate = 0
			}
		},
		"no sessions at all":  func(p *Profile) { p.Timeline, p.StartFrac = nil, 0 },
		"unknown stay kind":   func(p *Profile) { p.Stay.Kind = "weibull" },
		"zero exp mean":       func(p *Profile) { p.Stay = Stay{Kind: StayExp} },
		"zero lognorm median": func(p *Profile) { p.Stay = Stay{Kind: StayLognorm, Sigma: 1} },
		"negative sigma": func(p *Profile) {
			p.Stay = Stay{Kind: StayLognorm, Median: simclock.Second, Sigma: -1}
		},
		"empty quantiles": func(p *Profile) { p.Stay = Stay{Kind: StayQuantiles} },
		"sub-ms exp mean": func(p *Profile) {
			p.Stay = Stay{Kind: StayExp, Mean: 500 * simclock.Microsecond}
		},
		"sub-ms lognorm median": func(p *Profile) {
			p.Stay = Stay{Kind: StayLognorm, Median: simclock.Microsecond, Sigma: 1}
		},
		"sub-ms top quantile": func(p *Profile) {
			p.Stay = Stay{Kind: StayQuantiles, Quantiles: []simclock.Duration{0, 900 * simclock.Microsecond}}
		},
		"decreasing quantiles": func(p *Profile) {
			p.Stay = Stay{Kind: StayQuantiles, Quantiles: []simclock.Duration{5, 3}}
		},
		"all-zero quantiles": func(p *Profile) {
			p.Stay = Stay{Kind: StayQuantiles, Quantiles: []simclock.Duration{0, 0}}
		},
	}
	for name, breakIt := range cases {
		p := OfficeDay()
		breakIt(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: validated anyway", name)
		}
		if _, err := Compile(p, 4, testSpan, 1); err == nil {
			t.Errorf("%s: compiled anyway", name)
		}
	}
}

func inf() float64 { return math.Inf(1) }

func TestFormatParseRoundTripsBuiltins(t *testing.T) {
	quant := Profile{
		Name:      "measured",
		StartFrac: 0.25,
		Timeline:  []Segment{{From: 0, Rate: 1}, {From: 0.5, Rate: 3.75}},
		Stay: Stay{Kind: StayQuantiles, Quantiles: []simclock.Duration{
			0, 200 * simclock.Millisecond, simclock.Second, 7 * simclock.Second}},
	}
	profiles := []Profile{quant}
	for _, name := range Builtins() {
		p, _ := Builtin(name)
		profiles = append(profiles, p)
	}
	for _, p := range profiles {
		text := Format(p)
		got, err := Parse(text)
		if err != nil {
			t.Fatalf("%s: reparse failed: %v\n%s", p.Name, err, text)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("%s: round trip diverged\nformatted:\n%s\ngot %+v\nwant %+v", p.Name, text, got, p)
		}
	}
}

func TestParseAcceptsCommentsAndUnits(t *testing.T) {
	p, err := Parse(`
		# a hand-written profile
		profile night-batch
		start 0.5
		replace off
		segment 0 1
		segment 0.75 0   # quiet tail

		stay lognorm median=1.5s sigma=0.25
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stay.Median != 1500*simclock.Millisecond {
		t.Fatalf("median %v, want 1.5s", p.Stay.Median)
	}
	if len(p.Timeline) != 2 || p.Timeline[1].From != 0.75 {
		t.Fatalf("timeline %+v", p.Timeline)
	}
}

func TestParseRejectsMalformedText(t *testing.T) {
	stay := "stay exp mean=2s\n"
	cases := map[string]string{
		"missing profile":     stay,
		"missing stay":        "profile p\n",
		"negative rate":       "profile p\nsegment 0 -1\n" + stay,
		"unsorted segments":   "profile p\nsegment 0.5 1\nsegment 0.2 1\n" + stay,
		"zero-weight":         "profile p\nsegment 0 0\nsegment 0.5 0\n" + stay,
		"from at one":         "profile p\nsegment 1 2\n" + stay,
		"nan start":           "profile p\nstart nan\nsegment 0 1\n" + stay,
		"inf rate":            "profile p\nsegment 0 inf\n" + stay,
		"duplicate stay":      "profile p\nsegment 0 1\n" + stay + stay,
		"duplicate profile":   "profile p\nprofile q\nsegment 0 1\n" + stay,
		"unknown directive":   "profile p\nsegment 0 1\nburst 9am\n" + stay,
		"bare duration":       "profile p\nsegment 0 1\nstay exp mean=2\n",
		"unknown stay":        "profile p\nsegment 0 1\nstay weibull k=2\n",
		"missing stay arg":    "profile p\nsegment 0 1\nstay lognorm median=1s\n",
		"unknown stay arg":    "profile p\nsegment 0 1\nstay exp mean=2s mode=1s\n",
		"duplicate stay arg":  "profile p\nsegment 0 1\nstay exp mean=2s mean=3s\n",
		"zero mean":           "profile p\nsegment 0 1\nstay exp mean=0s\n",
		"huge duration":       "profile p\nsegment 0 1\nstay exp mean=1e300s\n",
		"zero-mass quantiles": "profile p\nsegment 0 1\nstay quantiles 0us 0us\n",
	}
	for name, text := range cases {
		if _, err := Parse(text); err == nil {
			t.Errorf("%s: parsed anyway:\n%s", name, text)
		}
	}
}

func TestFormatIsLineOriented(t *testing.T) {
	text := Format(OfficeDay())
	if !strings.HasSuffix(text, "\n") {
		t.Fatal("Format output does not end in a newline")
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.TrimSpace(line) == "" {
			t.Fatalf("Format emitted a blank line:\n%s", text)
		}
	}
}
