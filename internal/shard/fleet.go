package shard

import (
	"thinbench/internal/farm"
	"thinbench/internal/metrics"
	"thinbench/internal/server"
	"thinbench/internal/simclock"
	"thinbench/internal/sizing"
)

// Fleet-standard echo-latency bucketing: 1 ms buckets over a nominal
// range of at least HistBuckets of them. Fleet percentiles are read at
// this granularity from every shard's samples together, so they are the
// percentiles of the merged per-shard histograms. The range only sets
// where samples clamp.
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
// expose. A wide range costs nothing: fleet percentiles come from the
// shards' sorted samples (metrics.BucketPercentile), which store no
// bucket, so no storage grows with the range.
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
// Fleet percentiles are taken over every shard's samples together, at
// bucket granularity (HistBucketMs), exactly as the merged per-shard
// histograms would give them: the p95 of a fleet is not the max (or any
// other combination) of per-shard p95s, so the samples must merge before
// the percentile is taken. All fields are scalars, slices of
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
	// (cfg.Control != nil).
	ControlStats

	Interactions int64 `json:"interactions"`
	Censored     int64 `json:"censored"`
	// SimEvents sums the discrete-event dispatches across every shard's
	// engine — the fleet's total simulator work, used by the speed layer.
	SimEvents uint64 `json:"sim_events"`
	// Probes counts the marginal-p95 estimates lataware placement and the
	// controllers asked for — one short run per (hardware class,
	// population) — and ProbeEvents sums their simulator events, work
	// SimEvents leaves out. Both are zero for a fleet that never probes.
	Probes      int    `json:"probes,omitempty"`
	ProbeEvents uint64 `json:"probe_events,omitempty"`
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

// Run places the population with the walk — once at time zero for a
// static fleet, as a full session plan when a schedule or a kill makes
// it dynamic — runs every shard concurrently across the farm (one whole
// machine per farm body), and reads fleet-level percentiles from the
// shards' echo samples together, and a fleet-level timeline from their
// per-slice samples. The same configuration always produces a deeply
// identical FleetResult at any worker count.
//
// Every machine the run builds, probes included, draws its storage from
// the walk's one pool (server.Pool): the probe prefetch's machines feed
// the walk's probes, and theirs the fleet's machines. No phase holds more
// machines at once than it has workers, so a run on W workers builds at
// most W machines from nothing.
func Run(cfg Config) (FleetResult, error) {
	walk, err := buildPlans(cfg)
	if err != nil {
		return FleetResult{}, err
	}
	buckets := histBuckets(cfg.Base.Span)
	nSlices := server.TimelineSlices(cfg.Base.Span)
	// A shard keeps its samples by timeline slice, each sorted (see
	// server.Samples). One that hosts no session reports a zero Result and
	// no samples.
	type shardOut struct {
		res    server.Result
		slices [][]float64
	}
	outs, err := farm.Run(farm.Config{Sessions: len(cfg.Machines), Workers: cfg.Workers, Seed: cfg.Seed},
		func(s *farm.Session) (shardOut, error) {
			j := s.Index
			if len(walk.plans[j]) == 0 {
				return shardOut{}, nil
			}
			// A static fleet's shard runs its count, so its seats keep
			// per-shard random streams; a dynamic fleet's runs the walk's
			// session plan and tier changes.
			sc := cfg.shardConfig(j, walk.counts[j])
			if cfg.dynamic() {
				sc.Sessions, sc.TierPlan = walk.plans[j], walk.tiers[j]
			}
			res, samples, err := evaluate(&walk.pool, sc)
			if err != nil {
				return shardOut{}, err
			}
			return shardOut{res: res, slices: samples}, nil
		})
	if err != nil {
		return FleetResult{}, err
	}

	fleet := FleetResult{
		Policy:      policyName(cfg.Policy),
		Users:       cfg.Users,
		Placement:   walk.counts,
		KilledShard: -1,
		RecoveryMs:  -1,
	}
	if cfg.Control != nil {
		fleet.ControlStats = walk.stats
	}
	fleet.Probes, fleet.ProbeEvents = walk.pk.pr.work()
	fleet.Shards = make([]ShardResult, 0, len(outs))
	for j, o := range outs {
		fleet.Shards = append(fleet.Shards, ShardResult{
			Shard:      j,
			PhysicalKB: cfg.shardConfig(j, 0).PhysicalKB,
			CPUSpeed:   cfg.Machines[j].speed(),
			Killed:     cfg.KillAt > 0 && j == cfg.KillShard,
			Result:     o.res,
		})
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
	// bySlice[i] holds every shard's samples in timeline slice i, and
	// cells every shard's samples in every slice: the whole run's samples,
	// from which the fleet's p50, p95 and clamp count are read. The
	// timeline regroups those samples, so its clamp counts are not added
	// to fleet.Clamped.
	bySlice := make([][][]float64, nSlices)
	cells := make([][]float64, nSlices*len(outs))
	fleet.P95TimelineMs = make([]float64, nSlices)
	for i := range bySlice {
		bySlice[i] = cells[i*len(outs) : (i+1)*len(outs)]
		for j, o := range outs {
			if o.slices != nil {
				bySlice[i][j] = o.slices[i]
			}
		}
		fleet.P95TimelineMs[i], _ = metrics.BucketPercentile(HistBucketMs, buckets, 95, bySlice[i])
	}
	fleet.EchoP50Ms, _ = metrics.BucketPercentile(HistBucketMs, buckets, 50, cells)
	fleet.EchoP95Ms, fleet.Clamped = metrics.BucketPercentile(HistBucketMs, buckets, 95, cells)
	if cfg.KillAt > 0 {
		fleet.KilledShard = cfg.KillShard
		fleet.PreKillP95Ms, fleet.PeakKillP95Ms, fleet.RecoveryMs =
			failoverMetrics(cfg.KillAt, buckets, bySlice, fleet.P95TimelineMs)
	}
	return fleet, nil
}

// failoverMetrics reduces the fleet timeline around a kill, given each
// slice's samples and p95: the baseline p95 over every shard's samples in
// every pre-kill slice (one percentile over all of them), the worst slice
// p95 at or after the kill, and the delay from the kill until the first
// slice whose p95 is back within tolerance of the baseline. Slices
// with no samples are skipped on the way down — an empty slice is "no
// data", not "recovered". One caveat: a displaced user whose re-login
// never completes contributes its login-screen wait only at the slice it
// was censored in (run end), so RecoveryMs describes the latency of the
// users being served; read it together with LoginMaxMs and Censored,
// which expose re-logins the survivors starved out.
func failoverMetrics(killAt simclock.Duration, buckets int, bySlice [][][]float64, p95s []float64) (pre, peak, recovery float64) {
	killSlice := min(int(killAt/server.TimelineSlice), len(bySlice))
	var before [][]float64
	for _, runs := range bySlice[:killSlice] {
		before = append(before, runs...)
	}
	pre, _ = metrics.BucketPercentile(HistBucketMs, buckets, 95, before)
	recovery = -1
	threshold := pre*RecoveryFactor + RecoverySlackMs
	for i := killSlice; i < len(bySlice); i++ {
		if p95s[i] > peak {
			peak = p95s[i]
		}
		n := 0
		for _, r := range bySlice[i] {
			n += len(r)
		}
		if recovery < 0 && n > 0 && p95s[i] <= threshold {
			sliceEnd := simclock.Duration(i+1) * server.TimelineSlice
			recovery = (sliceEnd - killAt).Milliseconds()
		}
	}
	return pre, peak, recovery
}

// FleetCapacity finds the largest total population whose fleet-level p95
// echo latency stays within sizing.DefaultLatencyBudget, the sizing
// layer's 150 ms, with sizing.Search over Run probes, each fanning its
// machines out across cfg.Workers — the search that sizes one machine. A
// fleet where no interaction ever completes is over budget whatever its
// censored ages read; Over.Censored == Over.Interactions then says so. The
// schedule applies to every probe, so under schedule.Flat(r) the answer is
// churn-aware capacity, which replacement logins can only lower. Greedy
// placement has the prefix property and every shard keeps its
// index-derived seed, so candidate populations share common random
// numbers and the fleet p95 is monotone in N, which makes the search
// valid. The probes share cfg, so it must carry no Control: control hooks
// hold one run's state.
func FleetCapacity(cfg Config, maxUsers int) (sizing.Answer[FleetResult], error) {
	return sizing.Search(maxUsers,
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
