package shard

import (
	"thinbench/internal/farm"
	"thinbench/internal/metrics"
	"thinbench/internal/server"
	"thinbench/internal/simclock"
	"thinbench/internal/sizing"
)

// Fleet-standard echo-latency bucketing: 1 ms buckets over a nominal
// range of at least HistBuckets of them. Every shard of a run buckets
// identically so per-shard histograms merge into exact fleet-level
// counts. The range only sets where samples clamp; a histogram stores
// buckets up to its highest occupied one.
const (
	HistBucketMs = 1.0
	HistBuckets  = 4096
)

// Recovery tolerance after a failover: the fleet has recovered in the
// first timeline slice whose p95 is within RecoveryFactor of the pre-kill
// p95 plus RecoverySlackMs (the slack absorbs bucket granularity on small
// baselines).
const (
	RecoveryFactor  = 1.25
	RecoverySlackMs = 5.0
)

// histBuckets sizes a run's nominal bucket range to its measurement
// window. A censored interaction enters as its age at run end, which can
// reach the span plus the server's drain tail, so the range must cover
// that or fleet percentiles would silently floor at the histogram edge
// exactly when the fleet is most overloaded — the case they exist to
// expose. A wide range costs nothing until a sample lands far out in it:
// histogram storage grows with the samples, not with the range.
func histBuckets(span simclock.Duration) int {
	n := int((span + server.DrainSpan + simclock.Second).Milliseconds())
	if n < HistBuckets {
		n = HistBuckets
	}
	return n
}

// ShardResult is one machine's measured slice of a fleet run: its
// hardware, its assigned population, and the full server.Result. A shard
// that never hosts a session reports a zero Result — no machine is
// simulated, unlike server.New which clamps an empty population up to one
// user.
type ShardResult struct {
	Shard      int     `json:"shard"`
	PhysicalKB int     `json:"physical_kb"`
	CPUSpeed   float64 `json:"cpu_speed"`
	Killed     bool    `json:"killed,omitempty"`
	server.Result
}

// FleetResult is the population's measured impact on the whole fleet.
// Fleet percentiles come from the merged per-shard histograms, at bucket
// granularity (HistBucketMs): the p95 of a fleet is not the max (or any
// other combination) of per-shard p95s, so the sample counts must merge
// before the percentile is taken. All fields are scalars, slices of
// scalars, or nested scalar structs, so results compare with
// reflect.DeepEqual in determinism tests and serialize directly.
type FleetResult struct {
	Policy string `json:"policy"`
	Users  int    `json:"users"`
	// Placement is the time-zero population per shard, in shard-index
	// order; Arrivals and Departures sum the fleet's mid-run logins and
	// logouts (schedule episodes, failover re-logins).
	Placement  []int         `json:"placement"`
	Arrivals   int           `json:"arrivals"`
	Departures int           `json:"departures"`
	Shards     []ShardResult `json:"shards"`

	// EchoP50Ms and EchoP95Ms are fleet-level percentiles over every
	// user's every interaction on every shard, censored samples included.
	EchoP50Ms float64 `json:"echo_p50_ms"`
	EchoP95Ms float64 `json:"echo_p95_ms"`
	// MaxShardP95Ms is the worst single machine's exact p95, the number a
	// per-shard alert would fire on; LoginMaxMs is the fleet's slowest
	// admission (a max merges exactly across shards, unlike a
	// percentile).
	MaxShardP95Ms float64 `json:"max_shard_p95_ms"`
	LoginMaxMs    float64 `json:"login_max_ms"`
	// P95TimelineMs is the fleet-level per-slice p95 (one
	// server.TimelineSlice per entry, merged across shards before the
	// percentile is taken), the series that makes churn and failover
	// transients visible fleet-wide.
	P95TimelineMs []float64 `json:"p95_timeline_ms"`

	// Failover metrics, meaningful when KilledShard >= 0: the fleet p95
	// over the slices before the kill, the worst slice p95 at or after
	// it (the excursion), and how long after the kill the fleet's slice
	// p95 first returned to within tolerance of the pre-kill baseline
	// (-1 when it never did within the run).
	KilledShard   int     `json:"killed_shard"`
	PreKillP95Ms  float64 `json:"pre_kill_p95_ms"`
	PeakKillP95Ms float64 `json:"peak_kill_p95_ms"`
	RecoveryMs    float64 `json:"recovery_ms"`

	// Control-plane outcomes, populated only for controlled runs
	// (cfg.Control != nil) so uncontrolled baselines serialize
	// byte-identically to before the control plane existed.
	PeakUsers       int     `json:"peak_users,omitempty"`
	DeferredLogins  int     `json:"deferred_logins,omitempty"`
	RejectedLogins  int     `json:"rejected_logins,omitempty"`
	QueueWaitMeanMs float64 `json:"queue_wait_mean_ms,omitempty"`
	QueueWaitMaxMs  float64 `json:"queue_wait_max_ms,omitempty"`
	TierChanges     int     `json:"tier_changes,omitempty"`
	SheddedFrames   int64   `json:"shedded_frames,omitempty"`
	Activations     int     `json:"activations,omitempty"`
	Drains          int     `json:"drains,omitempty"`

	Interactions int64 `json:"interactions"`
	Censored     int64 `json:"censored"`
	// SimEvents sums the discrete-event dispatches across every shard's
	// engine — the fleet's total simulator work, used by the speed layer.
	SimEvents uint64 `json:"sim_events"`
	// Clamped counts samples beyond the fleet histogram's range. It stays
	// zero for any span the bucketing was sized for; nonzero means the
	// fleet percentiles are floored at the histogram edge.
	Clamped int64 `json:"clamped"`
}

func policyName(p string) string {
	if p == "" {
		return PolicyRoundRobin
	}
	return p
}

// Run places the population — one-shot for a static fleet, as a full
// lifecycle plan when a schedule or a kill makes it dynamic — runs
// every shard concurrently across the farm (one whole machine per farm
// body), and merges the per-shard echo histograms into fleet-level
// percentiles and the per-shard timelines into a fleet-level timeline.
// The same configuration always produces a deeply identical FleetResult
// at any worker count.
func Run(cfg Config) (FleetResult, error) {
	var fp fleetPlan
	var counts []int
	var plans [][]server.Lifecycle
	var err error
	if cfg.dynamic() {
		fp, err = buildPlans(cfg)
		plans, counts = fp.plans, fp.counts
	} else {
		counts, err = Place(cfg)
	}
	if err != nil {
		return FleetResult{}, err
	}
	buckets := histBuckets(cfg.Base.Span)
	nSlices := server.TimelineSlices(cfg.Base.Span)
	// A shard that hosts no session reports a zero Result and nil
	// histograms, which the merges below skip.
	type shardOut struct {
		res    server.Result
		hist   *metrics.Histogram
		slices []*metrics.Histogram
	}
	outs, err := farm.Run(farm.Config{Sessions: len(cfg.Machines), Workers: cfg.Workers, Seed: cfg.Seed},
		func(s *farm.Session) (shardOut, error) {
			sc := cfg.shardConfig(s.Index, counts[s.Index])
			if plans != nil {
				if len(plans[s.Index]) == 0 {
					return shardOut{}, nil
				}
				sc.Sessions = plans[s.Index]
				if fp.tiers != nil {
					sc.TierPlan = fp.tiers[s.Index]
				}
			} else if counts[s.Index] == 0 {
				return shardOut{}, nil
			}
			srv, err := server.New(sc)
			if err != nil {
				return shardOut{}, err
			}
			res, err := srv.Run()
			if err != nil {
				return shardOut{}, err
			}
			return shardOut{
				res:    res,
				hist:   srv.EchoHistogram(HistBucketMs, buckets),
				slices: srv.SliceHistograms(HistBucketMs, buckets),
			}, nil
		})
	if err != nil {
		return FleetResult{}, err
	}

	fleet := FleetResult{
		Policy:      policyName(cfg.Policy),
		Users:       cfg.Users,
		Placement:   counts,
		KilledShard: -1,
		RecoveryMs:  -1,
	}
	hists := make([]*metrics.Histogram, len(outs))
	for j, o := range outs {
		fleet.Shards = append(fleet.Shards, ShardResult{
			Shard:      j,
			PhysicalKB: cfg.shardConfig(j, 0).PhysicalKB,
			CPUSpeed:   cfg.Machines[j].speed(),
			Killed:     cfg.KillAt > 0 && j == cfg.KillShard,
			Result:     o.res,
		})
		hists[j] = o.hist
		fleet.Arrivals += o.res.Arrivals
		fleet.Departures += o.res.Departures
		fleet.Interactions += o.res.Interactions
		fleet.Censored += o.res.Censored
		fleet.SheddedFrames += o.res.SheddedFrames
		fleet.SimEvents += o.res.SimEvents
		if o.res.EchoP95Ms > fleet.MaxShardP95Ms {
			fleet.MaxShardP95Ms = o.res.EchoP95Ms
		}
		if o.res.LoginMaxMs > fleet.LoginMaxMs {
			fleet.LoginMaxMs = o.res.LoginMaxMs
		}
	}
	merged := metrics.MergeHistograms(HistBucketMs, buckets, hists)
	fleet.EchoP50Ms = merged.Percentile(50)
	fleet.EchoP95Ms = merged.Percentile(95)
	fleet.Clamped = merged.Clamped()
	fleet.P95TimelineMs = make([]float64, nSlices)
	sliceMerged := make([]*metrics.Histogram, nSlices)
	for i := range sliceMerged {
		for j, o := range outs {
			hists[j] = nil
			if o.slices != nil {
				hists[j] = o.slices[i]
			}
		}
		sliceMerged[i] = metrics.MergeHistograms(HistBucketMs, buckets, hists)
		// The timeline re-buckets the same samples the whole-run histogram
		// holds, so its clamp counts are not added to fleet.Clamped.
		fleet.P95TimelineMs[i] = sliceMerged[i].Percentile(95)
	}
	if cfg.KillAt > 0 {
		fleet.KilledShard = cfg.KillShard
		fleet.PreKillP95Ms, fleet.PeakKillP95Ms, fleet.RecoveryMs =
			failoverMetrics(cfg.KillAt, sliceMerged, fleet.P95TimelineMs)
	}
	if cfg.Control != nil {
		fleet.PeakUsers = fp.stats.PeakUsers
		fleet.DeferredLogins = fp.stats.DeferredLogins
		fleet.RejectedLogins = fp.stats.RejectedLogins
		fleet.QueueWaitMeanMs = fp.stats.QueueWaitMeanMs
		fleet.QueueWaitMaxMs = fp.stats.QueueWaitMaxMs
		fleet.TierChanges = fp.stats.TierChanges
		fleet.Activations = fp.stats.Activations
		fleet.Drains = fp.stats.Drains
	}
	return fleet, nil
}

// failoverMetrics reduces the fleet timeline around a kill: the baseline
// p95 over every pre-kill slice (merged, then one percentile), the worst
// slice p95 at or after the kill, and the delay from the kill until the
// first slice whose p95 is back within tolerance of the baseline. Slices
// with no samples are skipped on the way down — an empty slice is "no
// data", not "recovered". One caveat: a displaced user whose re-login
// never completes contributes its login-screen wait only at the slice it
// was censored in (run end), so RecoveryMs describes the latency of the
// users being served; read it together with LoginMaxMs and Censored,
// which expose re-logins the survivors starved out.
func failoverMetrics(killAt simclock.Duration, slices []*metrics.Histogram, p95s []float64) (pre, peak, recovery float64) {
	killSlice := int(killAt / server.TimelineSlice)
	if killSlice > len(slices) {
		killSlice = len(slices)
	}
	pre = metrics.MergeHistograms(HistBucketMs, slices[0].Buckets(), slices[:killSlice]).Percentile(95)
	recovery = -1
	threshold := pre*RecoveryFactor + RecoverySlackMs
	for i := killSlice; i < len(slices); i++ {
		if p95s[i] > peak {
			peak = p95s[i]
		}
		if recovery < 0 && slices[i].N() > 0 && p95s[i] <= threshold {
			sliceEnd := simclock.Duration(i+1) * server.TimelineSlice
			recovery = (sliceEnd - killAt).Milliseconds()
		}
	}
	return pre, peak, recovery
}

// FleetCapacity finds the largest total population whose fleet-level p95
// echo latency stays within sizing.DefaultLatencyBudget, the sizing
// layer's 150 ms, with sizing.Search over Run probes fanned out across
// cfg.Workers — the search that sizes one machine. A fleet where no
// interaction ever completes is over budget whatever its censored ages
// read; Over.Censored == Over.Interactions then says so. The schedule
// applies to every probe, so under schedule.Flat(r) the answer is
// churn-aware capacity, which replacement logins can only lower. Greedy
// placement has the prefix property and every shard keeps its
// index-derived seed, so candidate populations share common random
// numbers and the fleet p95 is monotone in N, which makes the search
// valid. Concurrent probes share cfg, so it must carry no Control: control
// hooks hold one run's state.
func FleetCapacity(cfg Config, maxUsers int) (sizing.Answer[FleetResult], error) {
	return sizing.Search(maxUsers, cfg.Workers,
		func(n int) (FleetResult, error) {
			c := cfg
			c.Users = n
			return Run(c)
		},
		func(r FleetResult) bool {
			return r.Censored < r.Interactions && r.EchoP95Ms <= sizing.DefaultLatencyBudget.Milliseconds() &&
				r.LoginMaxMs <= sizing.LoginBudget.Milliseconds()
		})
}
