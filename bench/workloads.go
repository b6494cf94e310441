package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"thinbench/internal/control"
	"thinbench/internal/metrics"
	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/shard"
	"thinbench/internal/simclock"
	"thinbench/internal/sizing"
)

// workload is one benchmark scenario. A rep simulates it once through the
// program's public entry points; outcome.check then reduces the result,
// outside the timed region, to the numbers the metrics and the
// correctness checks use.
type workload struct {
	name string
	// workers is the farm pool size of the end-to-end run; the traced run
	// also runs the other of 1 and 2 to check worker invariance.
	workers int
	run     func(seed uint64, workers int, quick bool, tr *tracer) (outcome, error)
}

// outcome is what one rep returns: echo_steady's five servers, or a
// fleet workload's fleet result.
type outcome struct {
	servers []*server.Server
	results []server.Result
	span    simclock.Duration
	fleet   *shard.FleetResult
}

// simStats is the simulated side of one rep. For a fixed seed every field
// is the same on every run, at any worker count.
type simStats struct {
	Interactions     int64   `json:"interactions"`
	Censored         int64   `json:"censored"`
	EchoSamples      int64   `json:"echo_samples"`
	EchoP50Ms        float64 `json:"echo_p50_ms"`
	EchoP95Ms        float64 `json:"echo_p95_ms"`
	SimEvents        uint64  `json:"sim_events"`
	Arrivals         int     `json:"arrivals"`
	Departures       int     `json:"departures"`
	FaultsAfterLogin int64   `json:"faults_after_login"`
	CPUUtilization   float64 `json:"cpu_utilization"`
	LinkUtilization  float64 `json:"link_utilization"`
	LinkDrops        int64   `json:"link_drops"`
	Clamped          int64   `json:"clamped"`
	DeferredLogins   int     `json:"deferred_logins"`
	RejectedLogins   int     `json:"rejected_logins"`
	Activations      int     `json:"activations"`
	TierChanges      int     `json:"tier_changes"`
}

var protocols = []string{"rdp", "x", "lbx", "vnc", "slim"}

func workloads() []workload {
	return []workload{
		{name: "echo_steady", workers: 1, run: echoSteady},
		{name: "login_storm", workers: 2, run: loginStorm},
		{name: "gated_day", workers: 2, run: gatedDay},
		{name: "long_day", workers: 1, run: longDay},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// echoSteady runs one shared server per protocol, in sequence. Thirteen
// users on rr load the CPU to about 91%, one user short of the 14-user
// paging cliff, so the echo path runs hot without eviction.
func echoSteady(seed uint64, _ int, quick bool, tr *tracer) (outcome, error) {
	out := outcome{span: 120 * simclock.Second}
	users := 13
	if quick {
		out.span, users = 2*simclock.Second, 3
	}
	for _, p := range protocols {
		cfg := server.DefaultConfig()
		cfg.Users, cfg.Protocol, cfg.Scheduler = users, p, "rr"
		cfg.Span, cfg.Seed = out.span, seed
		t0 := tr.now()
		srv, err := server.New(cfg)
		tr.span("server.new_s", p, t0)
		if err != nil {
			return out, err
		}
		t0 = tr.now()
		res, err := srv.Run()
		tr.span("server.run_s", p, t0)
		if err != nil {
			return out, err
		}
		out.servers = append(out.servers, srv)
		out.results = append(out.results, res)
	}
	return out, nil
}

// officeFleet is a roundrobin fleet of default servers riding the office
// day's arrival profile.
func officeFleet(machines []shard.Machine, seats int, span simclock.Duration, seed uint64, workers int) shard.Config {
	base := server.DefaultConfig()
	base.Span = span
	prof := schedule.OfficeDay()
	return shard.Config{
		Base:     base,
		Machines: machines,
		Users:    seats,
		Policy:   shard.PolicyRoundRobin,
		Schedule: &prof,
		Workers:  workers,
		Seed:     seed,
	}
}

func runFleet(cfg shard.Config, tr *tracer) (outcome, error) {
	t0 := tr.now()
	res, err := shard.Run(cfg)
	tr.span("shard.run_s", "", t0)
	return outcome{fleet: &res}, err
}

func loginStorm(seed uint64, workers int, quick bool, tr *tracer) (outcome, error) {
	machines, seats, span := 40, 1040, 10*simclock.Second
	if quick {
		machines, seats, span = 4, 40, 2*simclock.Second
	}
	return runFleet(officeFleet(shard.DefaultFleet(machines), seats, span, seed, workers), tr)
}

func longDay(seed uint64, workers int, quick bool, tr *tracer) (outcome, error) {
	seats, span := 30, 60*simclock.Second
	if quick {
		seats, span = 6, 4*simclock.Second
	}
	return runFleet(officeFleet(shard.DefaultFleet(3), seats, span, seed, workers), tr)
}

// gatedDay offers the office day to 12 live 48 MB developer machines
// backed by 12 standby spares, under all three controllers. Lataware
// placement and the controllers both probe with sizing.EvaluateConfig.
func gatedDay(seed uint64, workers int, quick bool, tr *tracer) (outcome, error) {
	live, seats, span, probe := 12, 240, 10*simclock.Second, 2*simclock.Second
	if quick {
		live, seats, span, probe = 2, 24, 3*simclock.Second, simclock.Second
	}
	srv := sizing.DefaultServer()
	srv.PhysicalKB = 48 * 1024
	machines := make([]shard.Machine, 2*live)
	for j := live; j < len(machines); j++ {
		machines[j].Standby = true
	}
	prof := schedule.OfficeDay()
	fleet := shard.Config{
		Base:      sizing.ProbeConfig(srv, sizing.Developer(), 1, span, seed),
		Machines:  machines,
		Users:     seats,
		Policy:    shard.PolicyLatAware,
		Schedule:  &prof,
		ProbeSpan: probe,
		Workers:   workers,
		Seed:      seed,
	}
	ctl := control.Config{
		Admission:  &control.Admission{Retry: 500 * simclock.Millisecond},
		Shedder:    &control.Shedder{},
		Autoscaler: &control.Autoscaler{UpFrac: 0.75, DownFrac: 0.25, ProvisionDelay: 500 * simclock.Millisecond},
	}
	t0 := tr.now()
	res, err := control.Run(fleet, ctl)
	tr.span("control.run_s", "", t0)
	return outcome{fleet: &res}, err
}

// check verifies one rep's result and reduces it to its simulated
// statistics and a digest of everything the program returned.
func (o outcome) check() (simStats, string, error) {
	var st simStats
	var payload any
	if o.fleet != nil {
		st = fleetStats(o.fleet)
		payload = o.fleet
		var sum uint64
		for _, sh := range o.fleet.Shards {
			sum += sh.SimEvents
		}
		if sum != o.fleet.SimEvents {
			return st, "", fmt.Errorf("fleet counts %d sim events, its shards %d", o.fleet.SimEvents, sum)
		}
	} else {
		st = serverStats(o)
		payload = o.results
	}
	if st.Censored > st.Interactions {
		return st, "", fmt.Errorf("%d censored of %d interactions", st.Censored, st.Interactions)
	}
	if st.Clamped != 0 {
		return st, "", fmt.Errorf("%d echo samples beyond the histogram range", st.Clamped)
	}
	if st.EchoSamples == 0 {
		return st, "", fmt.Errorf("no echo samples")
	}
	b, err := json.Marshal(payload)
	if err != nil {
		return st, "", err
	}
	h := fnv.New64a()
	h.Write(b)
	return st, fmt.Sprintf("%016x", h.Sum64()), nil
}

func fleetStats(f *shard.FleetResult) simStats {
	st := simStats{
		Interactions:   f.Interactions,
		Censored:       f.Censored,
		EchoP50Ms:      f.EchoP50Ms,
		EchoP95Ms:      f.EchoP95Ms,
		SimEvents:      f.SimEvents,
		Arrivals:       f.Arrivals,
		Departures:     f.Departures,
		Clamped:        f.Clamped,
		DeferredLogins: f.DeferredLogins,
		RejectedLogins: f.RejectedLogins,
		Activations:    f.Activations,
		TierChanges:    f.TierChanges,
	}
	hosting := 0
	for _, sh := range f.Shards {
		st.EchoSamples += sh.EchoSamples
		st.FaultsAfterLogin += sh.FaultsAfterLogin
		st.LinkDrops += sh.LinkDrops
		if sh.Interactions > 0 {
			hosting++
			st.CPUUtilization += sh.CPUUtilization
			st.LinkUtilization += sh.LinkUtilization
		}
	}
	if hosting > 0 {
		st.CPUUtilization /= float64(hosting)
		st.LinkUtilization /= float64(hosting)
	}
	return st
}

// serverStats merges the servers' echo histograms the way the fleet layer
// does, with the fleet's bucketing, so both kinds of workload report
// percentiles at the same 1 ms granularity.
func serverStats(o outcome) simStats {
	buckets := int((o.span + server.DrainSpan + simclock.Second).Milliseconds())
	if buckets < shard.HistBuckets {
		buckets = shard.HistBuckets
	}
	merged := metrics.NewHistogram(shard.HistBucketMs, buckets)
	for _, srv := range o.servers {
		merged.Merge(srv.EchoHistogram(shard.HistBucketMs, buckets))
	}
	st := simStats{
		EchoSamples: merged.N(),
		EchoP50Ms:   merged.Percentile(50),
		EchoP95Ms:   merged.Percentile(95),
		Clamped:     merged.Clamped(),
	}
	for _, r := range o.results {
		st.Interactions += r.Interactions
		st.Censored += r.Censored
		st.SimEvents += r.SimEvents
		st.Arrivals += r.Arrivals
		st.Departures += r.Departures
		st.FaultsAfterLogin += r.FaultsAfterLogin
		st.LinkDrops += r.LinkDrops
		st.CPUUtilization += r.CPUUtilization / float64(len(o.results))
		st.LinkUtilization += r.LinkUtilization / float64(len(o.results))
	}
	return st
}
