// Command thinbench runs the reproduction's experiments: every table and
// figure of Wong & Seltzer's USENIX 2000 thin-client study, the ablations
// this reproduction adds, and the shared-server contention grid.
//
// Usage:
//
//	thinbench -list                 list experiments
//	thinbench -run fig3             run one experiment
//	thinbench -run all              run everything
//	thinbench -run fig7 -quick      shortened measurement windows
//	thinbench -run fig8 -seed 42    alternate random seed
//	thinbench -run all -parallel 8  run experiments across 8 workers
//	thinbench -run fig3 -json out.json           machine-readable results
//
// The whole registry at quick length is the paper baseline: -json
// records every experiment's tables, series and notes beside what the
// paper reports.
//
//	thinbench -run all -seed 1999 -quick=true -json BENCH_paper.json
//
// Contention mode sweeps user counts over one shared server per data
// point — one clock, one CPU, one memory pool, one link:
//
//	thinbench -run contention
//	thinbench -run contention -users 1..24 -proto rdp,x,lbx -sched rr,nt
//	thinbench -run contention -users 1,4,16 -proto vnc -sched svr4ia -json BENCH_contention.json
//
// Shard mode sweeps total population over a heterogeneous fleet of M
// shared servers per data point, one fleet per placement policy:
//
//	thinbench -run shard
//	thinbench -run shard -shards 3 -policy roundrobin,memaware,lataware -users 6..30
//	thinbench -run shard -shards 5 -policy lataware -users 12,24,48 -json BENCH_shard.json
//
// Churn mode holds one fleet population and sweeps the session turnover
// rate — every departure replaced by a fresh login routed through the
// live placement policy — then kills a machine and measures the failover
// excursion and recovery per policy:
//
//	thinbench -run churn
//	thinbench -run churn -users 22 -churn 0,0.15,0.3 -kill 2 -killat 4
//	thinbench -run churn -users 22 -policy roundrobin,lataware -json BENCH_churn.json
//
// Schedule mode drives the fleet from a time-varying arrival profile — a
// 9 AM login storm, a lunch dip, shift changes — instead of memoryless
// churn, then kills a machine in the middle of the morning ramp so
// failover is measured under a surge. Profiles are built-ins or @files in
// the schedule text format (see internal/schedule):
//
//	thinbench -run schedule
//	thinbench -run schedule -profile officeday,flat -users 15 -kill 2 -killat 2
//	thinbench -run schedule -profile @myday.profile -policy lataware -json BENCH_schedule.json
//
// Control mode prices the online control plane against the offline
// sizing oracle: ScheduleCapacity sizes one machine for each arrival
// profile's worst slice, then the same overcommitted demand runs open,
// admission-gated, gated-plus-shedding, and autoscaled from standby
// spares — the overprovisioning-versus-queueing trade in one document:
//
//	thinbench -run control
//	thinbench -run control -shards 2 -profile officeday,shiftchange
//	thinbench -run control -users 36 -json BENCH_control.json
//
// Speed mode counts the simulator's own work on canonical workloads:
// events, with placement-probe events apart, which are deterministic and
// golden-diffed in CI, and allocations per event, which are ratcheted at
// -parallel 1. Wall clock is the bench/ module's job, and `go test -bench
// Workloads/bigfleet -cpuprofile cpu.pprof ./internal/speed` profiles one
// workload:
//
//	thinbench -run speed
//	thinbench -run speed -parallel 1 -json BENCH_speed.json
//
// Claims mode sweeps every claim — the five family baselines' and the
// quick registry experiments' — over the headline seed and seeds 1-10,
// and records each claim's value, range and failing seeds. -run all ends
// with the headline seed's scorecard of the same claims:
//
//	thinbench -run claims -seed 1999 -json BENCH_claims.json
//
// Every BENCH_*.json records the command line that built it, and that
// record is the file's recipe: run it with -json to rebuild the file.
//
//	./$(jq -r .command BENCH_shard.json) -json BENCH_shard.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"thinbench"
	"thinbench/internal/benchdoc"
	"thinbench/internal/core"
	"thinbench/internal/shard"
)

func main() {
	cmd := benchdoc.NewCommand(flag.CommandLine)
	var (
		list     = flag.Bool("list", false, "list registered experiments")
		jsonPath = flag.String("json", "", "also write machine-readable results to this file")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()
	exitOn(cmd.CheckArgs())

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		exitOn(err)
		exitOn(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			exitOn(err)
			runtime.GC()
			exitOn(pprof.WriteHeapProfile(f))
			exitOn(f.Close())
		}()
	}

	if *list || cmd.Run == "" {
		fmt.Println("experiments:")
		for _, e := range thinbench.Experiments() {
			fmt.Printf("  %-5s %s\n        paper: %s\n", e.ID, e.Title, e.Paper)
		}
		benchdoc.WriteModes(os.Stdout)
		if cmd.Run == "" && !*list {
			fmt.Printf("\nrun one with: thinbench -run <id>   (or -run %s)\n", strings.Join(benchdoc.Modes(), ", -run "))
		}
		return
	}

	if cmd.Bench() {
		doc, err := cmd.Build()
		exitOn(err)
		switch d := doc.(type) {
		case core.ContentionDoc:
			printContention(d)
		case core.ShardDoc:
			printShard(d)
		case core.ChurnDoc:
			printChurn(d)
		case core.ScheduleDoc:
			printSchedule(d)
		case core.ControlDoc:
			printControl(d)
		case benchdoc.SpeedDoc:
			printSpeed(d)
		case benchdoc.PaperDoc:
			for _, r := range d.Results {
				fmt.Println(r.Render())
			}
			printScorecard(d)
		case benchdoc.ClaimsDoc:
			printClaims(d)
		}
		if *jsonPath != "" {
			exitOn(writeJSON(*jsonPath, doc))
		}
		return
	}

	if cmd.Parallel != 0 {
		fmt.Fprintln(os.Stderr, "note: -parallel sets the workers of -run all and of every bench mode; a single experiment ignores it, and any fan-out inside it runs on GOMAXPROCS workers")
	}
	r, err := thinbench.Run(cmd.Run, thinbench.Config{Seed: cmd.Seed, Quick: cmd.Quick})
	if r != nil {
		fmt.Println(r.Render())
		if *jsonPath != "" {
			exitOn(writeJSON(*jsonPath, benchdoc.PaperRecord(cmd.Run, cmd.Seed, cmd.Quick, []*thinbench.Result{r})))
		}
	}
	exitOn(err)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func printContention(doc core.ContentionDoc) {
	for _, sc := range doc.Scenarios {
		fmt.Printf("== contention: %s over %s ==\n", sc.Protocol, sc.Scheduler)
		fmt.Printf("  %6s %12s %12s %12s %8s %8s %8s %s\n",
			"users", "mean ms", "p95 ms", "max ms", "cpu", "link", "censored", "paging")
		for _, pt := range sc.Points {
			fmt.Printf("  %6d %12.2f %12.2f %12.2f %7.0f%% %7.0f%% %8d %v\n",
				pt.Users, pt.EchoMeanMs, pt.EchoP95Ms, pt.EchoMaxMs,
				pt.CPUUtilization*100, pt.LinkUtilization*100, pt.Censored, pt.Paging)
		}
		fmt.Println()
	}
}

func printShard(doc core.ShardDoc) {
	for _, ps := range doc.Policies {
		fmt.Printf("== shard: %s placement over %d machines ==\n", ps.Policy, len(doc.Machines))
		fmt.Printf("  %6s %12s %12s %14s %8s %-s\n",
			"users", "fleet p50", "fleet p95", "max shard p95", "censored", "placement")
		for _, fr := range ps.Points {
			fmt.Printf("  %6d %10.0f ms %10.0f ms %12.0f ms %8d %v\n",
				fr.Users, fr.EchoP50Ms, fr.EchoP95Ms, fr.MaxShardP95Ms, fr.Censored, fr.Placement)
		}
		fmt.Println()
	}
}

func printChurn(doc core.ChurnDoc) {
	for _, ps := range doc.Policies {
		fmt.Printf("== churn: %s placement, %d users over %d machines ==\n",
			ps.Policy, doc.Users, len(doc.Machines))
		fmt.Printf("  %8s %12s %12s %9s %9s %12s\n",
			"rate/s", "fleet p95", "max login", "arrivals", "departs", "censored")
		for i, fr := range ps.Points {
			fmt.Printf("  %8.2f %10.0f ms %10.0f ms %9d %9d %12d\n",
				doc.ChurnRates[i], fr.EchoP95Ms, fr.LoginMaxMs, fr.Arrivals, fr.Departures, fr.Censored)
		}
		fmt.Println()
	}
	if len(doc.Failover) == 0 {
		return
	}
	fmt.Println("== failover: machine kill mid-span ==")
	for _, pf := range doc.Failover {
		printFailover(pf.Policy, pf.Result)
	}
	fmt.Println()
}

func printSchedule(doc core.ScheduleDoc) {
	for _, pr := range doc.Profiles {
		fmt.Printf("== schedule: %s profile, %d users over %d machines ==\n",
			pr.Profile, doc.Users, len(doc.Machines))
		fmt.Printf("  %-10s %12s %14s %12s %9s %9s %9s\n",
			"policy", "fleet p95", "peak slice", "max login", "arrivals", "departs", "censored")
		for _, pp := range pr.Policies {
			peak := 0.0
			for _, v := range pp.Result.P95TimelineMs {
				if v > peak {
					peak = v
				}
			}
			fmt.Printf("  %-10s %10.0f ms %11.0f ms %10.0f ms %9d %9d %9d\n",
				pp.Policy, pp.Result.EchoP95Ms, peak, pp.Result.LoginMaxMs,
				pp.Result.Arrivals, pp.Result.Departures, pp.Result.Censored)
		}
		fmt.Println()
	}
	if len(doc.Failover) == 0 {
		return
	}
	fmt.Printf("== failover: machine kill at %gs, inside the ramp ==\n", doc.KillAt)
	for _, pf := range doc.Failover {
		printFailover(pf.Profile+"/"+pf.Policy, pf.Result)
	}
	fmt.Println()
}

func printControl(doc core.ControlDoc) {
	for _, cp := range doc.Profiles {
		fmt.Printf("== control: %s profile, %d offered over %d machines (oracle: %d seats/machine, %s-limited, %d fleet-wide; all %d need %d machines) ==\n",
			cp.Profile, cp.Demand, doc.Machines, cp.OracleSeats, cp.OracleLimit,
			cp.FleetSeats, cp.Demand, cp.MachinesNeeded)
		fmt.Printf("  %-10s %12s %6s %9s %9s %16s %7s %9s %7s %7s\n",
			"run", "fleet p95", "peak", "deferred", "rejected", "queue mean/max", "tiers", "shed", "power", "probes")
		rows := []struct {
			label string
			fr    shard.FleetResult
		}{{"open", cp.Open}, {"admission", cp.Admission}, {"controlled", cp.Controlled}, {"autoscale", cp.Autoscale}}
		for _, r := range rows {
			fmt.Printf("  %-10s %10.0f ms %6d %9d %9d %7.0f/%5.0f ms %7d %9d %4d/%-2d %7d\n",
				r.label, r.fr.EchoP95Ms, r.fr.PeakUsers, r.fr.DeferredLogins, r.fr.RejectedLogins,
				r.fr.QueueWaitMeanMs, r.fr.QueueWaitMaxMs, r.fr.TierChanges, r.fr.SheddedFrames,
				r.fr.Activations, r.fr.Drains, r.fr.Probes)
		}
		fmt.Println()
	}
}

func printFailover(label string, fr shard.FleetResult) {
	recovery := "never within the run"
	if fr.RecoveryMs >= 0 {
		recovery = fmt.Sprintf("%.0f ms", fr.RecoveryMs)
	}
	fmt.Printf("  %-20s placed %v, displaced %d: p95 pre %4.0f ms, peak %5.0f ms, recovered in %s\n",
		label, fr.Placement, fr.Shards[fr.KilledShard].Departures,
		fr.PreKillP95Ms, fr.PeakKillP95Ms, recovery)
	fmt.Printf("             timeline (ms):")
	for _, p := range fr.P95TimelineMs {
		fmt.Printf(" %5.0f", p)
	}
	fmt.Println()
}

func printSpeed(doc benchdoc.SpeedDoc) {
	fmt.Printf("== simulator speed: workers=%d ==\n", doc.Workers)
	fmt.Printf("  %-10s %6s %10s %12s %10s %14s %12s\n", "workload", "users", "events", "probe events", "allocs", "allocs/event", "alloc bytes")
	var layers []string
	for _, r := range doc.Workloads {
		fmt.Printf("  %-10s %6d %10d %12d %10d %14.4f %12d\n", r.Name, r.Users, r.SimEvents, r.ProbeEvents, r.Allocs, r.AllocsPerEvent, r.AllocBytes)
		for l := range r.Layers {
			if !slices.Contains(layers, l) {
				layers = append(layers, l)
			}
		}
	}
	fmt.Println()
	if len(layers) == 0 {
		return
	}
	slices.Sort(layers)
	fmt.Println("  allocations by layer (allocs / bytes, one profiled run):")
	fmt.Printf("  %-12s", "layer")
	for _, r := range doc.Workloads {
		fmt.Printf(" %20s", r.Name)
	}
	fmt.Println()
	for _, l := range layers {
		fmt.Printf("  %-12s", l)
		for _, r := range doc.Workloads {
			a := r.Layers[l]
			fmt.Printf(" %20s", fmt.Sprintf("%d / %d", a.Allocs, a.AllocBytes))
		}
		fmt.Println()
	}
	fmt.Println()
}

// printScorecard ends -run all: one line per claim the experiments
// make, its value beside its band and, for a paper claim, the paper's
// value and the ratio of the two.
func printScorecard(doc benchdoc.PaperDoc) {
	var lines []string
	held, total := 0, 0
	for _, r := range doc.Results {
		for _, c := range r.Claims {
			total++
			verdict := "FAILS"
			if c.Holds() {
				held, verdict = held+1, "ok"
			}
			paper, ratio := "", ""
			if c.Paper != 0 {
				paper, ratio = core.FormatValue(c.Paper), core.FormatValue(c.Value/c.Paper)
			}
			lines = append(lines, fmt.Sprintf("  %-6s %-32s %10s %-6s %-12s %8s %8s  %s",
				r.ID, c.ID, core.FormatValue(c.Value), c.Unit, c.Band, paper, ratio, verdict))
		}
	}
	fmt.Printf("== scorecard: %d of %d claims hold at seed %d ==\n", held, total, doc.Seed)
	fmt.Printf("  %-6s %-32s %10s %-6s %-12s %8s %8s\n", "source", "claim", "measured", "unit", "band", "paper", "ratio")
	for _, l := range lines {
		fmt.Println(l)
	}
}

// printClaims renders the claim sweep: each claim at the headline seed,
// its range over the sweep seeds, and the seeds where it fails.
func printClaims(doc benchdoc.ClaimsDoc) {
	fmt.Printf("== claims at seed %d and over seeds %v ==\n", doc.Seed, doc.Seeds)
	fmt.Printf("  %-21s %-32s %10s %10s %10s %-12s %s\n", "source", "claim", "value", "min", "max", "band", "fails at")
	for _, c := range doc.Claims {
		fmt.Printf("  %-21s %-32s %10s %10s %10s %-12s %v\n", c.Source, c.ID,
			core.FormatValue(float64(c.Value)), core.FormatValue(float64(c.Min)), core.FormatValue(float64(c.Max)), c.Band, c.Fails)
	}
	fmt.Println()
}

func writeJSON(path string, doc any) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
