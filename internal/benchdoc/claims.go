package benchdoc

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"thinbench/internal/core"
	"thinbench/internal/farm"
)

// sweepSeeds are the seeds every claim is checked at besides the
// headline one, as the paper reports its §5.2 latencies over ten runs.
var sweepSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

// familyRuns are the five family baselines and the commands that built
// them, with the seed left open: the sweep runs exactly the scenarios the
// baselines record, and the golden test ties each file's recorded command
// to this list.
var familyRuns = [][2]string{
	{"BENCH_contention.json", "thinbench -run contention -users 1..16 -proto rdp,x,lbx -sched rr,nt -seed %d -quick=false"},
	{"BENCH_shard.json", "thinbench -run shard -shards 3 -policy roundrobin,memaware,lataware -users 6..30 -seed %d -quick=false"},
	{"BENCH_churn.json", "thinbench -run churn -shards 3 -policy roundrobin,memaware,lataware -users 22 -churn 0,0.15,0.3 -kill 2 -killat 4 -seed %d -quick=false"},
	{"BENCH_schedule.json", "thinbench -run schedule -shards 3 -policy roundrobin,lataware -users 15 -profile officeday,flat -kill 2 -killat 2 -seed %d -quick=false"},
	{"BENCH_control.json", "thinbench -run control -shards 2 -profile officeday,shiftchange -users 0 -seed %d -quick=false"},
}

// ClaimsDoc is the claim sweep (BENCH_claims.json): every claim the five
// family baselines and the quick registry experiments make, measured at
// the headline seed and at each sweep seed. A fix that makes a claim hold
// at more seeds, or a change that breaks one somewhere, shows in its
// golden diff.
type ClaimsDoc struct {
	Command string        `json:"command"`
	Seed    uint64        `json:"seed"`
	Seeds   []uint64      `json:"sweep_seeds"`
	Sources []ClaimSource `json:"sources"`
	Claims  []ClaimRow    `json:"claims"`
}

// ClaimSource is one swept document: a family baseline, with the command
// that builds it at the headline seed, or a registry experiment at quick
// length.
type ClaimSource struct {
	Source  string `json:"source"`
	Command string `json:"command"`
}

// ClaimRow is one claim of one source across the sweep.
type ClaimRow struct {
	Source    string `json:"source"`
	ID        string `json:"id"`
	Statement string `json:"statement"`
	Unit      string `json:"unit"`
	Band      string `json:"band"`
	// Value is the claim's value at the headline seed; Min and Max range
	// over the sweep seeds.
	Value Num `json:"value"`
	Min   Num `json:"min"`
	Max   Num `json:"max"`
	// Paper is the paper's value and Ratio the headline value over it,
	// both absent when the paper reports none.
	Paper float64 `json:"paper,omitempty"`
	Ratio Num     `json:"ratio,omitempty"`
	// Fails lists every seed, sweep or headline, where the claim does not
	// hold.
	Fails []uint64 `json:"fails"`
}

// Num is a claim value in JSON: a number, or the string "+Inf", "-Inf"
// or "NaN", which a JSON number cannot hold.
type Num float64

// MarshalJSON writes n as a number when it is finite.
func (n Num) MarshalJSON() ([]byte, error) {
	if f := float64(n); math.IsNaN(f) || math.IsInf(f, 0) {
		return json.Marshal(core.FormatValue(f))
	}
	return json.Marshal(float64(n))
}

// The claims mode builds the sweep. It registers here because the sweep
// parses the family commands, and parsing reads the mode table.
func init() {
	modes = append(modes, mode{"claims", "every claim of the five family baselines and the quick registry, at -seed and at seeds 1-10; see -seed, -parallel",
		func(c *Command) (any, error) { return Claims(c.Seed, c.Parallel) }})
}

// sourced is the claims one source made at one seed.
type sourced struct {
	source string
	seed   uint64
	claims []core.Claim
}

// Claims builds the sweep: every family baseline's command and every
// quick registry experiment that carries claims, at the headline seed and
// at each sweep seed, fanned out on a farm of the given workers. Each run
// builds at one worker inside, so the farm is the only fan-out.
func Claims(seed uint64, workers int) (ClaimsDoc, error) {
	doc := ClaimsDoc{Command: fmt.Sprintf("thinbench -run claims -seed %d", seed), Seed: seed, Seeds: sweepSeeds}
	for _, f := range familyRuns {
		doc.Sources = append(doc.Sources, ClaimSource{Source: f[0], Command: fmt.Sprintf(f[1], seed)})
	}
	// The headline seed runs the whole quick registry; the sweep seeds
	// rerun only the experiments that carried claims there.
	var exps []string
	for _, e := range core.Experiments() {
		exps = append(exps, e.ID)
	}
	headline, err := sweep([]uint64{seed}, exps, workers)
	if err != nil {
		return ClaimsDoc{}, err
	}
	exps = exps[:0]
	for _, r := range headline[len(familyRuns):] {
		if len(r.claims) > 0 {
			exps = append(exps, r.source)
			doc.Sources = append(doc.Sources, ClaimSource{Source: r.source, Command: fmt.Sprintf("thinbench -run %s -seed %d -quick=true", r.source, seed)})
		}
	}
	swept, err := sweep(sweepSeeds, exps, workers)
	if err != nil {
		return ClaimsDoc{}, err
	}

	rows := map[[2]string]int{}
	for k, r := range append(headline, swept...) {
		for _, c := range r.claims {
			key := [2]string{r.source, c.ID}
			i, ok := rows[key]
			if !ok {
				i = len(doc.Claims)
				rows[key] = i
				nan := Num(math.NaN())
				doc.Claims = append(doc.Claims, ClaimRow{Source: r.source, ID: c.ID, Statement: c.Statement, Unit: c.Unit,
					Band: c.Band.String(), Value: nan, Min: nan, Max: nan, Paper: c.Paper, Fails: []uint64{}})
			}
			row := &doc.Claims[i]
			switch {
			case k < len(headline):
				row.Value = Num(c.Value)
				if c.Paper != 0 {
					row.Ratio = Num(c.Value / c.Paper)
				}
			case math.IsNaN(c.Value):
			case math.IsNaN(float64(row.Min)):
				row.Min, row.Max = Num(c.Value), Num(c.Value)
			default:
				row.Min, row.Max = Num(min(float64(row.Min), c.Value)), Num(max(float64(row.Max), c.Value))
			}
			if !c.Holds() {
				row.Fails = append(row.Fails, r.seed)
			}
		}
	}
	for i := range doc.Claims {
		slices.Sort(doc.Claims[i].Fails)
	}
	return doc, nil
}

// sweep runs, for each seed, the five family commands and then the named
// quick registry experiments, and returns their claims in that order.
func sweep(seeds []uint64, exps []string, workers int) ([]sourced, error) {
	perSeed := len(familyRuns) + len(exps)
	return farm.Run(farm.Config{Sessions: len(seeds) * perSeed, Workers: workers},
		func(s *farm.Session) (sourced, error) {
			seed, i := seeds[s.Index/perSeed], s.Index%perSeed
			if i < len(familyRuns) {
				c, err := ParseCommand(fmt.Sprintf(familyRuns[i][1], seed), "-parallel", "1")
				if err != nil {
					return sourced{}, err
				}
				doc, err := c.Build()
				if err != nil {
					return sourced{}, err
				}
				return sourced{familyRuns[i][0], seed, doc.(interface{ Claims() []core.Claim }).Claims()}, nil
			}
			e, _ := core.Lookup(exps[i-len(familyRuns)])
			r, err := e.Run(core.Config{Seed: seed, Quick: true})
			if err != nil {
				return sourced{}, fmt.Errorf("%s at seed %d: %w", e.ID, seed, err)
			}
			return sourced{e.ID, seed, r.Claims}, nil
		})
}
