package core

import (
	"fmt"

	"thinbench/internal/metrics"
	"thinbench/internal/session"
	"thinbench/internal/simclock"
	"thinbench/internal/vm"
)

func init() {
	register(Experiment{
		ID:    "tab1",
		Title: "System-idle memory load (Linux 17 MB vs TSE 19 MB)",
		Paper: "Memory unavailable to applications with no sessions: ~17 MB Linux, ~19 MB TSE.",
		Run:   runTab1,
	})
	register(Experiment{
		ID:    "tab2",
		Title: "Per-session compulsory memory (752 KB Linux vs 3,244/2,100 KB TSE)",
		Paper: "Minimal-login process tables of §5.1.1.",
		Run:   runTab2,
	})
	register(Experiment{
		ID:    "tab3",
		Title: "Keystroke latency after memory pressure (§5.2 table)",
		Paper: "<100% demand: 50 ms flat. >=100%: Linux 330/1170/3000 ms, TSE 2430/4026/11850 ms (min/avg/max of 10 runs).",
		Run:   runTab3,
	})
	register(Experiment{
		ID:    "abl3",
		Title: "Ablation: interactive memory reservation and hog throttling on §5.2",
		Paper: "Evans et al.'s throttling eliminated the pathology in their prototype kernel.",
		Run:   runAbl3,
	})
}

func runTab1(cfg Config) (*Result, error) {
	res := &Result{ID: "tab1", Title: "System-idle memory load"}
	table := metrics.NewTable("System", "Idle memory")
	table.AddRow("Linux/X", fmt.Sprintf("%d KB", session.LinuxSystemIdleKB))
	table.AddRow("NT TSE", fmt.Sprintf("%d KB", session.TSESystemIdleKB))
	res.Tables = append(res.Tables, table)

	// Cross-check: instantiate the baselines in the VM substrate and
	// confirm the frame accounting agrees.
	vc := vm.DefaultConfig()
	vc.SystemKB = session.TSESystemIdleKB
	m := vm.New(vc)
	res.Notef("VM substrate reports %d KB resident for the TSE baseline", (m.TotalPages()-m.FreePages())*vc.PageKB)
	return res, nil
}

func runTab2(cfg Config) (*Result, error) {
	res := &Result{ID: "tab2", Title: "Per-session compulsory memory"}
	for _, man := range []session.Manifest{
		session.LinuxManifest(),
		session.TSEManifest(),
		session.TSELightManifest(),
	} {
		table := metrics.NewTable(fmt.Sprintf("%s (%s)", man.OS, man.Variant), "Private KB")
		for _, p := range man.Processes {
			table.AddRow(p.Name, metrics.FormatBytes(int64(p.PrivateKB))+" KB")
		}
		table.AddRow("Total", metrics.FormatBytes(int64(man.TotalKB()))+" KB")
		res.Tables = append(res.Tables, table)

		// Cross-check against the VM substrate.
		m := vm.New(vm.DefaultConfig())
		before := m.FreeKB()
		session.Login(m, man)
		res.Notef("%s %s: VM reports %d KB consumed (manifest %d KB, page-rounded)",
			man.OS, man.Variant, before-m.FreeKB(), man.TotalKB())
	}
	res.Notef("memory-bound capacity of a 64 MB server: Linux %d sessions, TSE %d sessions",
		session.Capacity(64*1024, session.LinuxSystemIdleKB, session.LinuxManifest()),
		session.Capacity(64*1024, session.TSESystemIdleKB, session.TSEManifest()))
	return res, nil
}

// pagingScenarios returns the calibrated §5.2 configurations. The latency
// gap between the systems is modeled by two calibrated differences,
// documented in DESIGN.md: the session working set that must page back in
// (TSE's login processes plus shell are larger) and the page-in clustering
// factor (Linux swap readahead clusters 8 pages per seek in our model,
// NT's pagefile reads 2).
func pagingScenarios() map[System]vm.PagingScenario {
	linuxCfg := vm.Config{
		PhysicalKB:   64 * 1024,
		PageKB:       4,
		SwapSeek:     8 * simclock.Millisecond,
		SwapPage:     500 * simclock.Microsecond,
		ClusterPages: 8,
		SystemKB:     session.LinuxSystemIdleKB,
	}
	tseCfg := linuxCfg
	tseCfg.ClusterPages = 2
	tseCfg.SystemKB = session.TSESystemIdleKB
	return map[System]vm.PagingScenario{
		SystemLinuxX: {
			Config:             linuxCfg,
			EditorKB:           9800, // vim + xterm + rshd + X client state + libraries
			HogFactor:          1.2,
			HogSeconds:         30,
			BaseResponse:       50 * simclock.Millisecond,
			SeekJitterFrac:     0.3,
			RandomizeKeystroke: true,
			RefaultProb:        0.3,
			TouchFloor:         0.10,
		},
		SystemTSE: {
			Config:             tseCfg,
			EditorKB:           5800, // notepad + csrss session repaint set
			HogFactor:          1.2,
			HogSeconds:         30,
			BaseResponse:       50 * simclock.Millisecond,
			SeekJitterFrac:     0.3,
			RandomizeKeystroke: true,
			RefaultProb:        0.3,
			TouchFloor:         0.45,
		},
	}
}

func summarizeRuns(results []vm.PagingResult) (minMs, avgMs, maxMs float64) {
	var sum float64
	for i, r := range results {
		ms := r.Latency.Milliseconds()
		sum += ms
		if i == 0 || ms < minMs {
			minMs = ms
		}
		if ms > maxMs {
			maxMs = ms
		}
	}
	return minMs, sum / float64(len(results)), maxMs
}

func runTab3(cfg Config) (*Result, error) {
	res := &Result{ID: "tab3", Title: "Paging-induced keystroke latency"}
	table := metrics.NewTable("OS", "demand", "min", "avg", "max")
	var mins, avgs, spreads, lowMax []float64
	for _, sys := range []System{SystemLinuxX, SystemTSE} {
		sc := pagingScenarios()[sys]

		// < 100% page demand: the hog fits; responses stay at 50 ms.
		low := sc
		low.HogFactor = 0.35
		low.RandomizeKeystroke = false
		lowRuns := low.RunN(10, cfg.Seed)
		lmin, lavg, lmax := summarizeRuns(lowRuns)
		table.AddRow(string(sys), "<100%",
			fmt.Sprintf("%.0fms", lmin), fmt.Sprintf("%.0fms", lavg), fmt.Sprintf("%.0fms", lmax))

		// >= 100%: the editor pages back from disk.
		runs := sc.RunN(10, cfg.Seed)
		mn, av, mx := summarizeRuns(runs)
		table.AddRow(string(sys), ">=100%",
			fmt.Sprintf("%.0fms", mn), fmt.Sprintf("%.0fms", av), fmt.Sprintf("%.0fms", mx))
		res.Notef("%s >=100%%: avg %.0fms = %.0fx the 100ms perception threshold", sys, av, av/100)
		mins, avgs, spreads, lowMax = append(mins, mn), append(avgs, av), append(spreads, mx-mn), append(lowMax, lmax)
	}
	res.Tables = append(res.Tables, table)
	res.Notef("paper: Linux 330/1,170/3,000 ms; TSE 2,430/4,026/11,850 ms")
	res.Claims = []Claim{
		{ID: "tab3.linux_avg", Statement: "Linux's average keystroke latency at >=100% page demand",
			Value: avgs[0], Unit: "ms", Band: within(700, 1700), Paper: 1170},
		{ID: "tab3.tse_avg", Statement: "TSE's average keystroke latency at >=100% page demand",
			Value: avgs[1], Unit: "ms", Band: within(2800, 5500), Paper: 4026},
		{ID: "tab3.tse_over_linux", Statement: "TSE's average paging latency over Linux's",
			Value: avgs[1] / avgs[0], Unit: "x", Band: within(2, 6), Paper: 4026.0 / 1170},
		{ID: "tab3.min", Statement: "at >=100% demand even the fastest keystroke is past perception on both systems",
			Value: min(mins[0], mins[1]), Unit: "ms", Band: atLeast(100), Paper: 330},
		{ID: "tab3.spread", Statement: "the ten runs spread: max above min on both systems",
			Value: min(spreads[0], spreads[1]), Unit: "ms", Band: above(0)},
		{ID: "tab3.low_demand", Statement: "below 100% demand the slowest keystroke answers in the flat 50 ms",
			Value: max(lowMax[0], lowMax[1]), Unit: "ms", Band: exactly(50), Paper: 50},
	}
	return res, nil
}

func runAbl3(cfg Config) (*Result, error) {
	res := &Result{ID: "abl3", Title: "Memory reservation / throttling ablation"}
	table := metrics.NewTable("OS", "policy", "avg latency")
	// worst is the slowest average under either policy on either system.
	var worst float64
	for _, sys := range []System{SystemLinuxX, SystemTSE} {
		base := pagingScenarios()[sys]
		reserve := base
		reserve.Config.ReserveInteractive = true
		throttle := base
		throttle.Config.HogFrameLimit = 0.4
		for _, v := range []struct {
			name string
			sc   vm.PagingScenario
		}{
			{"default", base},
			{"reserve-interactive", reserve},
			{"throttle-hog", throttle},
		} {
			_, avg, _ := summarizeRuns(v.sc.RunN(10, cfg.Seed))
			table.AddRow(string(sys), v.name, fmt.Sprintf("%.0fms", avg))
			if v.name != "default" {
				worst = max(worst, avg)
			}
		}
	}
	res.Tables = append(res.Tables, table)
	res.Notef("both Evans-style policies hold the keystroke at the %.0fms baseline", worst)
	res.Claims = []Claim{
		{ID: "abl3.policies_hold", Statement: "the slowest average keystroke latency under reserve-interactive and throttle-hog on both systems: the flat 50 ms of below 100% demand",
			Value: worst, Unit: "ms", Band: exactly(50)},
	}
	return res, nil
}
