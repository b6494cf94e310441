package core

import (
	"fmt"

	"thinbench/internal/farm"
	"thinbench/internal/metrics"
	"thinbench/internal/server"
	"thinbench/internal/simclock"
	"thinbench/internal/sizing"
)

func init() {
	register(Experiment{
		ID:    "cap1",
		Title: "Server capacity by behavior profile (the paper's sizing question)",
		Paper: "§1/§3: operators 'need to know the maximum number of concurrent users their servers can support... and what impact on users yields this maximum value'; §6.1.3: ~5 animated-page users saturate 10 Mbps Ethernet.",
		Run:   runCap1,
	})
}

func runCap1(cfg Config) (*Result, error) {
	res := &Result{ID: "cap1", Title: "Latency-threshold capacity by behavior profile"}
	span := 20 * simclock.Second
	if cfg.Quick {
		span = 8 * simclock.Second
	}
	srv := sizing.DefaultServer()
	table := metrics.NewTable("Profile", "capacity", "memory-only", "binding resource", "p95 echo at cap", "link util")
	profiles := []sizing.Profile{sizing.LightAdmin(), sizing.Developer(), sizing.WebBrowser()}
	// Each profile's capacity search is a sequence of shared-server
	// probes; the farm here runs the three searches at once and the rows
	// go in profile order, so the table is identical to a sequential run.
	type capacity struct {
		ans   sizing.Answer[server.Result]
		limit sizing.Limit
	}
	caps, err := farm.Run(farm.Config{Sessions: len(profiles), Seed: cfg.Seed},
		func(s *farm.Session) (capacity, error) {
			ans, limit, err := sizing.Capacity(srv, profiles[s.Index], 120, span, cfg.Seed)
			return capacity{ans, limit}, err
		})
	if err != nil {
		return nil, err
	}
	for i, c := range caps {
		p := profiles[i]
		table.AddRow(p.Name, fmt.Sprintf("%d users", c.ans.Users),
			fmt.Sprintf("%d users", sizing.MemoryCapacity(srv, p)), string(c.limit),
			fmt.Sprintf("%.1fms", c.ans.At.EchoP95Ms), fmt.Sprintf("%.0f%%", c.ans.At.LinkUtilization*100))
	}
	res.Tables = append(res.Tables, table)

	// The scheduler lever: the same developers on the Evans et al. policy.
	big := srv
	big.PhysicalKB = 512 * 1024
	rr, _, err := sizing.Capacity(big, sizing.Developer(), 120, span, cfg.Seed)
	if err != nil {
		return nil, err
	}
	big.Scheduler = "svr4ia"
	ia, _, err := sizing.Capacity(big, sizing.Developer(), 120, span, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res.Notef("capacity = max users with p95 echo latency within the %v budget; never above the memory-only division", sizing.DefaultLatencyBudget)
	res.Notef("with ample memory, developer capacity is CPU-bound at %d users under round-robin and %d under the SVR4 interactive class", rr.Users, ia.Users)
	web := caps[2] // sizing.WebBrowser()
	res.Notef("web browsers hit the %s wall at %d users; the paper's §6.1.3 arithmetic puts it at ~5", web.limit, web.ans.Users)
	res.Claims = []Claim{
		{ID: "cap1.web_capacity", Statement: "web-browser capacity: the animated-page users one server carries within the latency budget, ~5 on 10 Mbps Ethernet by §6.1.3",
			Value: float64(web.ans.Users), Unit: "users", Band: within(4, 6), Paper: 5},
	}
	return res, nil
}
