// Command bench is thinbench's benchmark. It times the simulator on four
// workloads through the public entry points of server, shard and control,
// checks every result, and prints end-to-end metrics; with --trace 1 it
// prints per-layer metrics instead, from spans around those calls and a
// CPU profile it takes of itself.
//
//	bash bench/run.sh --workload login_storm --seed 1999 --seconds 10 --trace 0
//
// Each measurement runs in a fresh child process, so every workload starts
// cold. The last line of standard output is one JSON object holding the
// metrics; README.md describes them.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"time"

	"thinbench/internal/simclock"
)

type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the simulator sees: how long a
// simulation takes, how long the first answer takes, how much memory it
// churns through, and how many of the simulated users' keystrokes got an
// echo at all.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"answered_frac", "ratio", "higher"},
}

// answered is the share of interactions that completed rather than being
// censored at the end of the run.
func answered(s simStats) float64 { return 1 - float64(s.Censored)/float64(s.Interactions) }

// simMetrics are per-layer numbers read from the program's results. For a
// given seed each is exact, so a speed change must leave every one of them
// as it was.
var simMetrics = []struct {
	metricDef
	get func(simStats) float64
}{
	{metricDef{"simclock.sim_events", "count", "lower"}, func(s simStats) float64 { return float64(s.SimEvents) }},
	{metricDef{"server.interactions", "count", "higher"}, func(s simStats) float64 { return float64(s.Interactions) }},
	{metricDef{"server.echo_samples", "count", "higher"}, func(s simStats) float64 { return float64(s.EchoSamples) }},
	{metricDef{"server.echo_p50_ms", "ms", "lower"}, func(s simStats) float64 { return s.EchoP50Ms }},
	{metricDef{"server.echo_p95_ms", "ms", "lower"}, func(s simStats) float64 { return s.EchoP95Ms }},
	{metricDef{"server.arrivals", "count", "higher"}, func(s simStats) float64 { return float64(s.Arrivals) }},
	{metricDef{"server.departures", "count", "higher"}, func(s simStats) float64 { return float64(s.Departures) }},
	{metricDef{"vm.faults_after_login", "count", "lower"}, func(s simStats) float64 { return float64(s.FaultsAfterLogin) }},
	{metricDef{"sched.cpu_utilization", "ratio", "lower"}, func(s simStats) float64 { return s.CPUUtilization }},
	{metricDef{"netsim.link_utilization", "ratio", "lower"}, func(s simStats) float64 { return s.LinkUtilization }},
	{metricDef{"netsim.link_drops", "count", "lower"}, func(s simStats) float64 { return float64(s.LinkDrops) }},
	{metricDef{"metrics.clamped", "count", "lower"}, func(s simStats) float64 { return float64(s.Clamped) }},
	{metricDef{"control.deferred_logins", "count", "lower"}, func(s simStats) float64 { return float64(s.DeferredLogins) }},
	{metricDef{"control.rejected_logins", "count", "lower"}, func(s simStats) float64 { return float64(s.RejectedLogins) }},
	{metricDef{"control.activations", "count", "lower"}, func(s simStats) float64 { return float64(s.Activations) }},
	{metricDef{"control.tier_changes", "count", "lower"}, func(s simStats) float64 { return float64(s.TierChanges) }},
}

// spanMetrics are the benchmark's own spans around calls into the
// program, in seconds per rep.
func spanMetrics() []string {
	out := []string{"server.new_s", "server.run_s"}
	for _, p := range protocols {
		out = append(out, "server.run_s."+p)
	}
	return append(out, "shard.run_s", "control.run_s")
}

// perLayer lists every metric of the traced run.
func perLayer() []metricDef {
	var out []metricDef
	for _, m := range simMetrics {
		out = append(out, m.metricDef)
	}
	out = append(out, metricDef{"simclock.events_per_s", "1/s", "higher"})
	for _, s := range spanMetrics() {
		out = append(out, metricDef{s, "s", "lower"})
	}
	for _, p := range profileMetrics() {
		out = append(out, metricDef{p, "ratio", "lower"})
	}
	return append(out,
		metricDef{"profile.samples", "count", "lower"},
		metricDef{"farm.speedup", "ratio", "higher"},
		metricDef{"runtime.peak_rss_mb", "MB", "lower"},
		metricDef{"trace.overhead_frac", "ratio", "lower"},
	)
}

const (
	// simSeeds is how many seeds the simulated metrics average. Warm rep i
	// simulates the i-th seed derived from --seed, so timings spread over
	// every seed a run reaches, while the simulated metrics come from the
	// first simSeeds, which every run covers, and are the same in every run
	// with the same --seed.
	simSeeds = 4
	// setupRuns is how many child processes a run starts to time set-up.
	setupRuns = 5
	// deadline bounds a whole run; a child still going is killed.
	deadline = 170 * time.Second
)

// buildDir holds what the benchmark leaves behind: the binary, the Go
// build cache and the trace files. It is relative to the checkout root.
const buildDir = ".bench_build"

type options struct {
	seed    uint64
	seconds float64
	quick   bool
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1999, "seed every input derives from")
	seconds := flag.Float64("seconds", 10, "measured time per run, in seconds")
	traced := flag.Int("trace", 0, "1 for the traced run that prints per-layer metrics")
	child := flag.String("child", "", "run as a measurement child: setup, measure or trace")
	flag.Parse()
	opt := options{seed: *seed, seconds: *seconds}

	var ws []workload
	if *name == "all" && *child == "" {
		ws = workloads()
	} else if w, ok := findWorkload(*name); ok {
		ws = []workload{w}
	} else {
		fatalf("unknown workload %q", *name)
	}
	if *child != "" {
		if err := runChild(ws[0], *child, opt, os.Stdout); err != nil {
			fatalf("%s: %v", ws[0].name, err)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		fatalf("--trace must be 0 or 1, not %d", *traced)
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer()
	}
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range ws {
		r, err := runParent(w, *traced == 1, opt)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		for _, d := range defs {
			v := r.Metrics[d.name]
			fmt.Printf("%-12s %-26s %16.6f %s\n", w.name, d.name, v.Value, v.Unit)
			key := d.name
			if len(ws) > 1 {
				key = w.name + "." + d.name
			}
			total.Metrics[key] = v
		}
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
	}
	b, err := json.Marshal(total)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// repRecord is one rep as a child reports it to the parent process.
type repRecord struct {
	Seed    int                `json:"seed"` // index of the seed derived from --seed
	Workers int                `json:"workers"`
	Cold    bool               `json:"cold,omitempty"`
	Traced  bool               `json:"traced,omitempty"`
	WallS   float64            `json:"wall_s"`
	AllocMB float64            `json:"alloc_mb"`
	Digest  string             `json:"digest"`
	Err     string             `json:"err,omitempty"`
	Sim     simStats           `json:"sim"`
	Spans   map[string]float64 `json:"spans,omitempty"`
}

// childReport is the last line a child prints.
type childReport struct {
	Records []repRecord        `json:"records"`
	Profile map[string]float64 `json:"profile,omitempty"`
	Samples int64              `json:"samples,omitempty"`
}

// runRep runs one rep after a collection, so each rep starts from the same
// heap, and times it. With a tracer, the rep also records spans and a CPU
// profile, attributed into tr.prof.
func runRep(w workload, opt options, seed, workers int, tr *tracer) repRecord {
	rec := repRecord{Seed: seed, Workers: workers, Traced: tr != nil}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var buf bytes.Buffer
	if tr != nil {
		if err := pprof.StartCPUProfile(&buf); err != nil {
			rec.Err = err.Error()
			return rec
		}
		tr.beginRep(seed)
	}
	start := time.Now()
	o, err := w.run(simclock.DeriveSeed(opt.seed, uint64(seed)), workers, opt.quick, tr)
	rec.WallS = time.Since(start).Seconds()
	if tr != nil {
		tr.endRep(start)
		rec.Spans = tr.totals
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&after)
	rec.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	if err == nil {
		rec.Sim, rec.Digest, err = o.check()
	}
	if err == nil && tr != nil {
		var samples []profSample
		if samples, err = parseProfile(buf.Bytes()); err == nil {
			tr.prof.add(samples)
		}
	}
	if err != nil {
		rec.Err = err.Error()
	}
	return rec
}

// runChild is one measurement process. It runs a cold rep, prints "ready"
// so the parent can time set-up, and then, unless it only measures set-up,
// runs warm reps until --seconds have passed and the first simSeeds seeds
// are covered.
func runChild(w workload, mode string, opt options, out io.Writer) error {
	rep := childReport{Records: []repRecord{runRep(w, opt, 0, w.workers, nil)}}
	rep.Records[0].Cold = true
	fmt.Fprintln(out, "ready")
	start := time.Now()
	more := func(i int) bool { return i < simSeeds || time.Since(start).Seconds() < opt.seconds }
	switch mode {
	case "setup":
	case "measure":
		for i := 0; more(i); i++ {
			rep.Records = append(rep.Records, runRep(w, opt, i, w.workers, nil))
		}
	case "trace":
		// Each seed runs plain, traced, and plain at the other worker
		// count, back to back, so the three kinds see the same inputs and
		// close to the same machine state.
		other := 3 - w.workers
		tr := newTracer()
		for i := 0; more(i); i++ {
			rep.Records = append(rep.Records,
				runRep(w, opt, i, w.workers, nil),
				runRep(w, opt, i, w.workers, tr),
				runRep(w, opt, i, other, nil))
		}
		rep.Profile, rep.Samples = tr.prof.fracs(), tr.prof.samples
		path := filepath.Join(buildDir, fmt.Sprintf("trace_%s_%d.json", w.name, opt.seed))
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench: spans written to %s\n", path)
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

// child is one finished child process.
type child struct {
	setupS float64
	rssMB  float64
	report childReport
}

// launch runs this program as a child and times it from start to its
// "ready" line.
func launch(ctx context.Context, w workload, mode string, opt options) (child, error) {
	exe, err := os.Executable()
	if err != nil {
		return child{}, err
	}
	cmd := exec.CommandContext(ctx, exe, "--child", mode, "--workload", w.name,
		"--seed", strconv.FormatUint(opt.seed, 10), "--seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return child{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return child{}, err
	}
	var c child
	var last []byte
	r := bufio.NewReader(stdout)
	for {
		line, rerr := r.ReadBytes('\n')
		line = bytes.TrimSpace(line)
		if string(line) == "ready" && c.setupS == 0 {
			c.setupS = time.Since(start).Seconds()
		} else if len(line) > 0 {
			last = line
		}
		if rerr != nil {
			break
		}
	}
	if err := cmd.Wait(); err != nil {
		return child{}, fmt.Errorf("%s child: %w", mode, err)
	}
	if c.setupS == 0 {
		return child{}, fmt.Errorf("%s child never reported ready", mode)
	}
	c.rssMB = peakRSSMB(cmd.ProcessState)
	if err := json.Unmarshal(last, &c.report); err != nil {
		return child{}, fmt.Errorf("%s child report: %w", mode, err)
	}
	return c, nil
}

// runParent drives one run of w: set-up children and one measuring child,
// or one traced child, then checks every rep and computes the metrics.
func runParent(w workload, traced bool, opt options) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	var recs []repRecord
	var setups []float64
	var last child
	modes := []string{"trace"}
	if !traced {
		modes = slices.Repeat([]string{"setup"}, setupRuns-1)
		modes = append(modes, "measure")
	}
	for _, mode := range modes {
		c, err := launch(ctx, w, mode, opt)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, c.setupS)
		recs = append(recs, c.report.Records...)
		last = c
	}
	return summarize(w, traced, setups, recs, last), nil
}

// summarize checks every rep of a run and computes the run's metrics from
// the warm reps of its last child.
func summarize(w workload, traced bool, setups []float64, recs []repRecord, last child) result {
	failed := checkRecords(w, recs)
	r := result{Attempted: len(recs), Failed: failed, Metrics: map[string]metricValue{}}
	var warm []repRecord
	for _, rec := range last.report.Records {
		if !rec.Cold && rec.Err == "" {
			warm = append(warm, rec)
		}
	}
	plain := func(workers int) func(repRecord) bool {
		return func(rec repRecord) bool { return !rec.Traced && rec.Workers == workers }
	}
	isTraced := func(rec repRecord) bool { return rec.Traced }
	med := func(keep func(repRecord) bool, value func(repRecord) float64) float64 {
		var vs []float64
		for _, rec := range warm {
			if keep(rec) {
				vs = append(vs, value(rec))
			}
		}
		return median(vs)
	}
	wallS := func(rec repRecord) float64 { return rec.WallS }
	wall := med(plain(w.workers), wallS)

	// The simulated metrics average the first simSeeds seeds, in seed
	// order, so they read the same bit for bit in every run.
	covered := true
	sim := func(f func(simStats) float64) float64 {
		sum := 0.0
		for i := 0; i < simSeeds; i++ {
			j := slices.IndexFunc(warm, func(rec repRecord) bool { return rec.Seed == i })
			if j < 0 {
				covered = false
				continue
			}
			sum += f(warm[j].Sim)
		}
		return sum / simSeeds
	}
	set := func(defs []metricDef, name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // only when reps failed, and then the run is not correct
		}
		for _, d := range defs {
			if d.name == name {
				r.Metrics[name] = metricValue{v, d.unit}
				return
			}
		}
		panic("bench: unlisted metric " + name)
	}
	if !traced {
		e := endToEnd
		set(e, "wall_s", wall)
		set(e, "setup_s", median(setups))
		set(e, "alloc_mb", med(plain(w.workers), func(rec repRecord) float64 { return rec.AllocMB }))
		set(e, "answered_frac", sim(answered))
	} else {
		p := perLayer()
		for _, m := range simMetrics {
			set(p, m.name, sim(m.get))
		}
		set(p, "simclock.events_per_s", med(plain(w.workers), func(rec repRecord) float64 {
			return float64(rec.Sim.SimEvents) / rec.WallS
		}))
		for _, s := range spanMetrics() {
			set(p, s, med(isTraced, func(rec repRecord) float64 { return rec.Spans[s] }))
		}
		for name, v := range last.report.Profile {
			set(p, name, v)
		}
		set(p, "profile.samples", float64(last.report.Samples))
		set(p, "farm.speedup", med(plain(1), wallS)/med(plain(2), wallS))
		set(p, "runtime.peak_rss_mb", last.rssMB)
		set(p, "trace.overhead_frac", med(isTraced, wallS)/wall-1)
	}
	r.Correct = failed == 0 && covered
	return r
}

// checkRecords counts the reps that failed: those that returned an error
// or failed a check, and those whose result differs from the first result
// for the same seed — in another process, traced, or at another worker
// count.
func checkRecords(w workload, recs []repRecord) int {
	failed := 0
	first := map[int]string{}
	for _, rec := range recs {
		if rec.Err != "" {
			failed++
			fmt.Fprintf(os.Stderr, "bench: %s seed %d: %s\n", w.name, rec.Seed, rec.Err)
			continue
		}
		want, seen := first[rec.Seed]
		if !seen {
			first[rec.Seed] = rec.Digest
			continue
		}
		if rec.Digest != want {
			failed++
			fmt.Fprintf(os.Stderr, "bench: %s seed %d at %d workers: result digest %s, earlier %s\n",
				w.name, rec.Seed, rec.Workers, rec.Digest, want)
		}
	}
	return failed
}

// median is 0 for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
