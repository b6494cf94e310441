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
// events, which are deterministic and golden-diffed in CI, and
// allocations per event, which are ratcheted at -parallel 1. Wall clock
// is the bench/ module's job, and `go test -bench Workloads/bigfleet
// -cpuprofile cpu.pprof ./internal/speed` profiles one workload:
//
//	thinbench -run speed
//	thinbench -run speed -parallel 1 -json BENCH_speed.json
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

	"thinbench"
	"thinbench/internal/benchdoc"
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
		fmt.Println("  contention")
		fmt.Println("        latency-vs-users grid on one shared server per point; see -users, -proto, -sched")
		fmt.Println("  shard")
		fmt.Println("        fleet-level p95 vs total users across M shared servers per placement policy; see -shards, -policy, -users")
		fmt.Println("  churn")
		fmt.Println("        fleet p95 vs session turnover rate plus a machine-kill failover, per placement policy; see -churn, -kill, -killat")
		fmt.Println("  schedule")
		fmt.Println("        fleet driven by a time-varying arrival profile (login storm, lunch dip) plus a mid-ramp machine kill; see -profile, -kill, -killat")
		fmt.Println("  control")
		fmt.Println("        online admission/shedding/autoscaling versus the offline sizing oracle, per arrival profile; see -shards, -profile, -users")
		fmt.Println("  speed")
		fmt.Println("        count the simulator's own work: events and allocs/event on canonical workloads; see -parallel")
		if cmd.Run == "" && !*list {
			fmt.Println("\nrun one with: thinbench -run <id>   (or -run all, -run contention, -run shard)")
		}
		return
	}

	if cmd.Bench() {
		doc, err := cmd.Build()
		exitOn(err)
		switch d := doc.(type) {
		case benchdoc.ContentionDoc:
			printContention(d)
		case benchdoc.ShardDoc:
			printShard(d)
		case benchdoc.ChurnDoc:
			printChurn(d)
		case benchdoc.ScheduleDoc:
			printSchedule(d)
		case benchdoc.ControlDoc:
			printControl(d)
		case benchdoc.SpeedDoc:
			printSpeed(d)
		case benchdoc.PaperDoc:
			for _, r := range d.Results {
				fmt.Println(r.Render())
			}
		}
		if *jsonPath != "" {
			exitOn(writeJSON(*jsonPath, doc))
		}
		return
	}

	if cmd.Parallel != 0 {
		fmt.Fprintln(os.Stderr, "note: -parallel applies to -run all and -run contention; single experiments run on one worker")
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

func printContention(doc benchdoc.ContentionDoc) {
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

func printShard(doc benchdoc.ShardDoc) {
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

func printChurn(doc benchdoc.ChurnDoc) {
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

func printSchedule(doc benchdoc.ScheduleDoc) {
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

func printControl(doc benchdoc.ControlDoc) {
	for _, cp := range doc.Profiles {
		fmt.Printf("== control: %s profile, %d offered over %d machines (oracle: %d seats/machine, %s-limited, %d fleet-wide; all %d need %d machines) ==\n",
			cp.Profile, cp.Demand, doc.Machines, cp.OracleSeats, cp.OracleLimit,
			cp.FleetSeats, cp.Demand, cp.MachinesNeeded)
		fmt.Printf("  %-10s %12s %6s %9s %9s %16s %7s %9s %7s\n",
			"run", "fleet p95", "peak", "deferred", "rejected", "queue mean/max", "tiers", "shed", "power")
		rows := []struct {
			label string
			fr    shard.FleetResult
		}{{"open", cp.Open}, {"admission", cp.Admission}, {"controlled", cp.Controlled}, {"autoscale", cp.Autoscale}}
		for _, r := range rows {
			fmt.Printf("  %-10s %10.0f ms %6d %9d %9d %7.0f/%5.0f ms %7d %9d %4d/%-2d\n",
				r.label, r.fr.EchoP95Ms, r.fr.PeakUsers, r.fr.DeferredLogins, r.fr.RejectedLogins,
				r.fr.QueueWaitMeanMs, r.fr.QueueWaitMaxMs, r.fr.TierChanges, r.fr.SheddedFrames,
				r.fr.Activations, r.fr.Drains)
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
	fmt.Printf("  %-10s %6s %10s %10s %14s\n", "workload", "users", "events", "allocs", "allocs/event")
	for _, r := range doc.Workloads {
		fmt.Printf("  %-10s %6d %10d %10d %14.4f\n", r.Name, r.Users, r.SimEvents, r.Allocs, r.AllocsPerEvent)
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
