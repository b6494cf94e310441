package server

import (
	"math"
	"slices"
	"testing"

	"thinbench/internal/simclock"
)

// fuzzUnit is the resolution of FuzzServer's session plans: each session
// is a byte pair of (login instant, stay) in these units.
const fuzzUnit = 10 * simclock.Millisecond

// fuzzPlan decodes FuzzServer's session bytes: up to 24 byte pairs of
// (login instant, stay) in fuzzUnits, where a zero login is present from
// time zero and a zero stay never logs out.
func fuzzPlan(b []byte) []Lifecycle {
	plan := make([]Lifecycle, 0, 24)
	for i := 0; i+1 < len(b) && len(plan) < 24; i += 2 {
		lc := Lifecycle{Login: simclock.Time(fuzzUnit * simclock.Duration(b[i]))}
		if b[i+1] > 0 {
			lc.Logout = lc.Login.Add(fuzzUnit * simclock.Duration(b[i+1]))
		}
		plan = append(plan, lc)
	}
	return plan
}

// FuzzServer drives whole machines from arbitrary small configurations: a
// seed, a codec, a link queue of 1 to 128 packets, a span of 0 to 4 s, and
// up to 24 sessions. Every configuration New accepts must run without a
// panic or an error, account for every interaction exactly once, lay its
// samples out consistently (see checkSampleLayout), keep the memory
// manager consistent, account for every byte offered to the link
// as delivered, refused or in flight, and, when every session has logged
// out before the span ends, hold only the system baseline. The seed corpus
// starts with the login storm on rdp, at the default queue and at four
// packets: in both, a link that lost a refused display message would put
// the client's glyph cache out of step with the server's.
func FuzzServer(f *testing.F) {
	var storm []byte // stormPlan in fuzzPlan's encoding, to the nearest fuzzUnit
	for _, lc := range stormPlan() {
		login := (simclock.Duration(lc.Login) + fuzzUnit/2) / fuzzUnit
		stay := (lc.Logout.Sub(lc.Login) + fuzzUnit/2) / fuzzUnit
		storm = append(storm, byte(login), byte(stay))
	}
	f.Add(uint64(4), uint8(1), uint8(119), uint16(3000), storm)
	f.Add(uint64(42), uint8(1), uint8(3), uint16(3000), storm)
	f.Add(uint64(42), uint8(0), uint8(0), uint16(3000), storm)
	f.Add(uint64(7), uint8(3), uint8(1), uint16(2000), []byte{0, 0, 0, 100, 20, 1, 50, 0})
	f.Add(uint64(1), uint8(4), uint8(127), uint16(0), []byte{0, 0})
	f.Fuzz(func(t *testing.T, seed uint64, codec, queue uint8, spanMs uint16, sessions []byte) {
		cfg := quick()
		cfg.Seed = seed
		cfg.Protocol = codecs[int(codec)%len(codecs)]
		cfg.Link.QueuePackets = 1 + int(queue)%128
		cfg.Span = simclock.Duration(spanMs%4001) * simclock.Millisecond
		cfg.Sessions = fuzzPlan(sessions)
		srv, err := New(cfg)
		if err != nil {
			return // a machine New refuses to build is not a run
		}
		res, err := srv.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.EchoSamples != res.Interactions || res.Censored > res.Interactions {
			t.Fatalf("%d samples, %d censored, of %d interactions", res.EchoSamples, res.Censored, res.Interactions)
		}
		checkSampleLayout(t, srv, res)
		if err := srv.mem.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		l := srv.link
		if got := l.SentBytes() + l.RefusedBytes() + l.InFlightBytes(); got != l.OfferedBytes() {
			t.Fatalf("link: %d bytes offered, but %d delivered + %d refused + %d in flight = %d",
				l.OfferedBytes(), l.SentBytes(), l.RefusedBytes(), l.InFlightBytes(), got)
		}
		for _, lc := range srv.plan {
			if lc.Logout == 0 || lc.Logout >= simclock.Time(cfg.Span) {
				return
			}
		}
		pageKB := srv.mem.Config().PageKB
		if want := (cfg.SystemKB + pageKB - 1) / pageKB * pageKB; res.ResidentKB != want {
			t.Fatalf("%d KB resident after every logout, want the %d KB system baseline", res.ResidentKB, want)
		}
	})
}

// checkSampleLayout checks the samples Run laid out against its Result:
// every timeline slice is sorted, the slices together hold exactly the
// whole run's samples, one per interaction, EchoMaxMs is the largest of
// them, and each P95TimelineMs entry is its slice's nearest-rank p95 (0
// for an empty slice).
func checkSampleLayout(t *testing.T, srv *Server, res Result) {
	t.Helper()
	run, bySlice := srv.Samples()
	if len(bySlice) != len(res.P95TimelineMs) {
		t.Fatalf("%d sample slices, %d timeline entries", len(bySlice), len(res.P95TimelineMs))
	}
	var all []float64
	for i, sl := range bySlice {
		if !slices.IsSorted(sl) {
			t.Fatalf("slice %d samples unsorted: %v", i, sl)
		}
		all = append(all, sl...)
		p95 := 0.0
		if n := len(sl); n > 0 {
			p95 = sl[int(math.Ceil(95.0/100*float64(n)))-1]
		}
		if res.P95TimelineMs[i] != p95 {
			t.Fatalf("slice %d p95 %v, its samples' nearest-rank p95 %v", i, res.P95TimelineMs[i], p95)
		}
	}
	if int64(len(all)) != res.EchoSamples || res.EchoSamples != res.Interactions {
		t.Fatalf("slices hold %d samples; %d echo samples of %d interactions", len(all), res.EchoSamples, res.Interactions)
	}
	slices.Sort(all)
	if !slices.Equal(all, run) {
		t.Fatalf("slices hold samples %v, the whole run %v", all, run)
	}
	largest := 0.0
	if len(all) > 0 {
		largest = all[len(all)-1]
	}
	if res.EchoMaxMs != largest {
		t.Fatalf("echo max %v, largest sample %v", res.EchoMaxMs, largest)
	}
}
