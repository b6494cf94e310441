package schedule

import (
	"reflect"
	"testing"

	"thinbench/internal/simclock"
)

func seedCorpus(f *testing.F) {
	for _, name := range Builtins() {
		p, _ := Builtin(name)
		f.Add(Format(p))
	}
	f.Add(Format(Profile{
		Name:      "measured",
		StartFrac: 0.3,
		Timeline:  []Segment{{From: 0, Rate: 2}, {From: 0.4, Rate: 0.1}, {From: 0.6, Rate: 5}},
		Stay: Stay{Kind: StayQuantiles, Quantiles: []simclock.Duration{
			0, 150 * simclock.Millisecond, 900 * simclock.Millisecond, 4 * simclock.Second}},
	}))
	f.Add("profile p\nsegment 0 1\nstay exp mean=2s\n")
	f.Add("profile p\nstart 1\nreplace on\nstay exp mean=333333us\n")
}

// FuzzParseFormat drives the codec round trip: any text Parse accepts must
// Format back into text that reparses to the identical profile.
func FuzzParseFormat(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, text string) {
		p1, err := Parse(text)
		if err != nil {
			return // malformed input is allowed to be rejected, not to panic
		}
		if err := p1.Validate(); err != nil {
			t.Fatalf("Parse returned an invalid profile: %v\ninput:\n%s", err, text)
		}
		formatted := Format(p1)
		p2, err := Parse(formatted)
		if err != nil {
			t.Fatalf("formatted profile does not reparse: %v\nformatted:\n%s", err, formatted)
		}
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("round trip diverged\nfirst  %+v\nsecond %+v\nformatted:\n%s", p1, p2, formatted)
		}
	})
}

// FuzzCompile compiles any parseable profile at a small seat count and
// asserts the plan invariants the server and fleet layers rely on:
// in-span logins, no empty episode, ordered per-seat episodes, valid seat
// stamps, and determinism.
func FuzzCompile(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, text string) {
		p, err := Parse(text)
		if err != nil {
			return
		}
		const seats = 5
		span := 4 * simclock.Second
		plan, err := Compile(p, seats, span, 99)
		if err != nil {
			t.Fatalf("validated profile failed to compile: %v", err)
		}
		again, _ := Compile(p, seats, span, 99)
		if !reflect.DeepEqual(plan, again) {
			t.Fatal("identical compiles diverged")
		}
		last := map[int]simclock.Time{}
		ended := map[int]bool{}
		for i, s := range plan {
			if s.Login < 0 || s.Login >= simclock.Time(span) {
				t.Fatalf("plan[%d]: login %v outside [0, %v)", i, s.Login, span)
			}
			if s.Logout != 0 && s.Logout <= s.Login {
				t.Fatalf("plan[%d]: logout %v not after login %v", i, s.Logout, s.Login)
			}
			if s.Seat < 1 || s.Seat > seats {
				t.Fatalf("plan[%d]: seat %d outside [1, %d]", i, s.Seat, seats)
			}
			if ended[s.Seat] {
				t.Fatalf("plan[%d]: seat %d has an episode after one that stays to the end", i, s.Seat)
			}
			if end, ok := last[s.Seat]; ok && s.Login < end {
				t.Fatalf("plan[%d]: seat %d episode at %v overlaps previous ending %v", i, s.Seat, s.Login, end)
			}
			if s.Logout == 0 {
				ended[s.Seat] = true
			}
			last[s.Seat] = s.Logout
		}
	})
}
