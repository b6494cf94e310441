package core

import (
	"math"

	"thinbench/internal/server"
	"thinbench/internal/session"
	"thinbench/internal/simclock"
)

func init() {
	register(Experiment{
		ID:    "cont1",
		Title: "Shared-server contention: echo latency versus concurrent users",
		Paper: "The paper's core decomposition — user behavior generates load, the OS translates load into latency — run end to end: all users contend on one CPU, one memory pool, and one link; latency degrades with population and collapses past the §5.1.1 memory capacity.",
		Run:   runCont1,
	})
}

// Contention is the contention family's scenario: every protocol ×
// scheduler pair swept over user counts, one complete shared server (not
// a loop of independent sessions) per data point.
type Contention struct {
	Users          []int
	Protos, Scheds []string
	Span           simclock.Duration
}

// ContentionDoc is the latency-vs-users grid on one shared server per
// data point (BENCH_contention.json).
type ContentionDoc struct {
	Command   string            `json:"command"`
	Seed      uint64            `json:"seed"`
	SpanSec   float64           `json:"span_sec"`
	Users     []int             `json:"users"`
	Scenarios []server.Scenario `json:"scenarios"`
}

// Build runs the grid, whole server instances fanned out across the farm
// on the given workers.
func (s Contention) Build(seed uint64, workers int) (ContentionDoc, error) {
	base := server.DefaultConfig()
	base.Span = s.Span
	grid, err := server.Grid(base, s.Protos, s.Scheds, s.Users, workers, seed)
	if err != nil {
		return ContentionDoc{}, err
	}
	return ContentionDoc{Seed: seed, SpanSec: s.Span.Seconds(), Users: s.Users, Scenarios: grid}, nil
}

// Claims: no protocol/scheduler p95 falls as users grow, and each at
// least doubles across the sweep.
func (d ContentionDoc) Claims() []Claim {
	if len(d.Scenarios) == 0 {
		return nil
	}
	dip, growth := 0.0, math.Inf(1)
	for _, sc := range d.Scenarios {
		var ys []float64
		for _, pt := range sc.Points {
			ys = append(ys, pt.EchoP95Ms)
		}
		dip = max(dip, largestDip(ys))
		growth = min(growth, ys[len(ys)-1]/ys[0])
	}
	return []Claim{
		{ID: "contention.p95_dip", Statement: "the largest fall of any protocol/scheduler p95 as users grow",
			Value: dip, Unit: "ms", Band: atMost(dipTolMs)},
		{ID: "contention.degradation", Statement: "the smallest ratio of a protocol/scheduler p95 at the most users to at the fewest",
			Value: growth, Unit: "x", Band: atLeast(2)},
	}
}

// runCont1 renders the registry's contention grid: one p95 series per
// protocol/scheduler pair over concurrent users.
func runCont1(cfg Config) (*Result, error) {
	s := Contention{Users: []int{1, 4, 8, 12, 16}, Protos: []string{"rdp", "x", "lbx"}, Scheds: []string{"rr", "nt"}, Span: 10 * simclock.Second}
	if cfg.Quick {
		s.Users, s.Span = []int{1, 4, 8, 14}, 3*simclock.Second
	}
	doc, err := s.Build(cfg.Seed, 0)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "cont1", Title: "Echo latency vs concurrent users on one shared server"}
	for _, sc := range doc.Scenarios {
		s := Series{Label: sc.Protocol + "/" + sc.Scheduler, XLabel: "concurrent users", YLabel: "p95 echo latency (ms)"}
		for i, pt := range sc.Points {
			s.X = append(s.X, float64(doc.Users[i]))
			s.Y = append(s.Y, pt.EchoP95Ms)
		}
		res.Series = append(res.Series, s)
	}
	base := server.DefaultConfig()
	memCap := session.Capacity(base.PhysicalKB, server.SystemKB, base.Manifest)
	res.Notef("memory fits %d sessions; past it the global clock evicts working sets and every keystroke pays page-in latency (§5.2 as an emergent effect)", memCap)
	res.Notef("one server instance per data point: all users share one engine, one %s-scheduled CPU, one vm.Manager, one %.0f Mbps link", base.Scheduler, base.Link.RateMbps)
	res.Claims = doc.Claims()
	return res, nil
}
