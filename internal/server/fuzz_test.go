package server

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"thinbench/internal/metrics"
	"thinbench/internal/schedule"
	"thinbench/internal/simclock"
)

// fuzzUnit is the resolution of FuzzServer's session plans: each session
// is a byte pair of (login instant, stay) in these units.
const fuzzUnit = 10 * simclock.Millisecond

// fuzzPlan decodes FuzzServer's session bytes: up to 24 byte pairs of
// (login instant, stay) in fuzzUnits, where a zero login is present from
// time zero and a zero stay never logs out.
func fuzzPlan(b []byte) []schedule.Session {
	plan := make([]schedule.Session, 0, 24)
	for i := 0; i+1 < len(b) && len(plan) < 24; i += 2 {
		lc := schedule.Session{Login: simclock.Time(fuzzUnit * simclock.Duration(b[i]))}
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
// manager consistent, hold only whole session records (see checkRecords),
// account for every byte offered to the link
// as delivered, refused or in flight, and, when every session has logged
// out before the span ends, hold only the system baseline. It then runs
// the input a second time, rebuilt with newFrom in the storage of a server
// run from a different input (the same sessions in reverse, another seed
// and span, and the next codec when the codec byte's top bit is set, which
// drops the records instead of reusing them), and the rerun must match the
// first run's Result and Samples exactly. The seed corpus starts with the
// login storm on rdp, at the default queue and at four packets: in both, a
// link that lost a refused display message would put the client's glyph
// cache out of step with the server's.
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
	f.Add(uint64(9), uint8(0x82), uint8(119), uint16(2500), storm)
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
		checkRecords(t, srv)
		if err := srv.mem.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		l := srv.link
		if got := l.SentBytes() + l.RefusedBytes() + l.InFlightBytes(); got != l.OfferedBytes() {
			t.Fatalf("link: %d bytes offered, but %d delivered + %d refused + %d in flight = %d",
				l.OfferedBytes(), l.SentBytes(), l.RefusedBytes(), l.InFlightBytes(), got)
		}
		other := cfg
		other.Seed = seed ^ 0x9e3779b97f4a7c15
		other.Span = simclock.Duration((int(spanMs%4001)+1500)%4001) * simclock.Millisecond
		if codec&0x80 != 0 {
			other.Protocol = codecs[(int(codec)+1)%len(codecs)]
		}
		other.Sessions = slices.Clone(cfg.Sessions)
		slices.Reverse(other.Sessions)
		if prev, err := New(other); err == nil {
			if _, err := prev.Run(); err != nil {
				t.Fatal(err)
			}
			again, err := newFrom(prev, cfg)
			if err != nil {
				t.Fatalf("rebuilt in another run's storage: %v", err)
			}
			res2, err := again.Run()
			if err != nil {
				t.Fatalf("rebuilt in another run's storage: %v", err)
			}
			if !reflect.DeepEqual(res, res2) || !reflect.DeepEqual(srv.Samples(), again.Samples()) {
				t.Fatalf("rebuilt in another run's storage:\n%+v\nnew:\n%+v", res2, res)
			}
			if err := again.mem.CheckInvariants(); err != nil {
				t.Fatalf("rebuilt in another run's storage: %v", err)
			}
			checkRecords(t, again)
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

// checkSampleLayout checks the samples Run laid out against its Result
// and against the seats' logs. Every timeline slice is sorted, each
// P95TimelineMs entry is its slice's nearest-rank p95 (0 for an empty
// slice), and the slices together hold one sample per interaction, whose
// p50, p95 and maximum by sort and index are the Result's. Decoding the
// logs apart from Run — each landed entry in the slice its seat's runs
// name, each entry still in flight and each login-screen wait at its
// seat's end — must give every slice exactly the samples it holds, and
// summing them seat by seat must give EchoMeanMs to the bit. A landed
// entry's slice must also fit its round trip: with no shedding, a seat's
// k-th keystroke is submitted at least (k+1) typing periods after its
// login, and for a seat present from time zero at most (k+2), and its
// echo lands before the seat's end.
func checkSampleLayout(t *testing.T, srv *Server, res Result) {
	t.Helper()
	bySlice := srv.Samples()
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
	for _, q := range []struct {
		p, got float64
	}{{50, res.EchoP50Ms}, {95, res.EchoP95Ms}, {100, res.EchoMaxMs}} {
		if want := metrics.Percentile(all, q.p); q.got != want {
			t.Fatalf("echo p%v %v, the sorted slices' %v", q.p, q.got, want)
		}
	}

	slice := func(at simclock.Time) int {
		return min(int(simclock.Duration(at)/TimelineSlice), len(bySlice)-1)
	}
	period := simclock.Duration(1e6 / srv.cfg.InteractionsPerSec)
	want := make([][]float64, len(bySlice))
	var sum float64
	add := func(ms float64, i int) {
		sum += ms
		want[i] = append(want[i], ms)
	}
	for _, u := range srv.users {
		lg := srv.logs[u.idx]
		uend := srv.eng.Now()
		if u.goneAt > 0 {
			uend = u.goneAt
		}
		k := 0
		for j, r := range lg.runs {
			if r.n < 1 || j > 0 && r.slice <= lg.runs[j-1].slice || k+r.n > lg.landed {
				t.Fatalf("seat %d: runs %v do not cover its %d landed echoes in slice order", u.idx, lg.runs, lg.landed)
			}
			for end := k + r.n; k < end; k++ {
				rt := lg.at[k]
				earliest := u.lc.Login.Add(period*simclock.Duration(k+1) + rt)
				lo, hi := slice(earliest), slice(uend)
				if u.lc.Login == 0 {
					hi = min(hi, slice(earliest.Add(period)))
				}
				if r.slice < lo || r.slice > hi {
					t.Fatalf("seat %d echo %d: round trip %v landed in slice %d, outside slices %d-%d", u.idx, k, rt, r.slice, lo, hi)
				}
				add(rt.Milliseconds(), r.slice)
			}
		}
		if k != lg.landed {
			t.Fatalf("seat %d: runs count %d of its %d landed echoes", u.idx, k, lg.landed)
		}
		for _, at := range lg.at[lg.landed:] {
			add(uend.Sub(simclock.Time(at)).Milliseconds(), slice(uend))
		}
		if u.lc.Login > 0 && !u.loginDone {
			add(uend.Sub(u.lc.Login).Milliseconds(), slice(uend))
		}
	}
	for i, w := range want {
		slices.Sort(w)
		if !slices.Equal(w, bySlice[i]) {
			t.Fatalf("slice %d holds %v, the logs decode to %v", i, bySlice[i], w)
		}
	}
	if n := len(all); n > 0 && sum/float64(n) != res.EchoMeanMs {
		t.Fatalf("echo mean %v, the logs summed seat by seat %v", res.EchoMeanMs, sum/float64(n))
	}
}
