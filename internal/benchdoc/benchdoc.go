// Package benchdoc builds the repo's machine-readable bench trajectory
// documents (BENCH_contention.json, BENCH_shard.json, BENCH_churn.json,
// BENCH_schedule.json, BENCH_control.json, BENCH_speed.json,
// BENCH_paper.json, BENCH_claims.json). The cmd/thinbench CLI renders these documents to
// the terminal and serializes them; tests regenerate them in-process and
// golden-diff the numeric fields against the checked-in baselines, so a
// refactor that drifts a single number fails before CI does.
//
// The package is the flag layer and nothing more. The five extension
// families' documents and builders live in internal/core, beside the
// registry experiments that render the same documents: a Command parses
// the flags into the family's typed scenario, rejects a malformed one
// before anything is simulated, builds it, and records the exact
// reproduction command in the document. ParseCommand reads that record
// back into the same build, which is what makes a checked-in baseline its
// own regeneration recipe.
package benchdoc

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"thinbench/internal/schedule"
	"thinbench/internal/speed"
)

// SpeedDoc is the simulator-speed trajectory (BENCH_speed.json): the
// canonical workloads' event counts, which are deterministic and
// golden-diffed, and their allocation counts, which are ratcheted.
type SpeedDoc struct {
	Command   string         `json:"command"`
	Seed      uint64         `json:"seed"`
	Workers   int            `json:"workers"`
	Workloads []speed.Report `json:"workloads"`
}

// Speed measures the canonical speed workloads. Allocation counts are
// exact only at workers=1 with no concurrent activity in the process; the
// checked-in baseline is always regenerated that way.
func Speed(quick bool, seed uint64, workers int) (SpeedDoc, error) {
	doc := SpeedDoc{
		Command: fmt.Sprintf("thinbench -run speed -parallel %d -seed %d -quick=%v", workers, seed, quick),
		Seed:    seed,
		Workers: workers,
	}
	for _, w := range speed.Workloads(quick) {
		r, err := speed.Measure(w, seed, workers)
		if err != nil {
			return SpeedDoc{}, err
		}
		doc.Workloads = append(doc.Workloads, r)
	}
	return doc, nil
}

// parseCounts accepts "A..B" ranges and comma lists of user counts.
func parseCounts(s string) ([]int, error) {
	if lo, hi, ok := strings.Cut(s, ".."); ok {
		a, err1 := strconv.Atoi(strings.TrimSpace(lo))
		b, err2 := strconv.Atoi(strings.TrimSpace(hi))
		if err1 != nil || err2 != nil || a < 1 || b < a {
			return nil, fmt.Errorf("bad -users range %q (want e.g. 1..16)", s)
		}
		// Wide ranges step so the sweep stays a handful of points per
		// scenario; narrow ranges probe every count.
		step := 1
		if n := b - a + 1; n > 8 {
			step = (n + 7) / 8
		}
		var out []int
		for c := a; c <= b; c += step {
			out = append(out, c)
		}
		if out[len(out)-1] != b {
			out = append(out, b)
		}
		return out, nil
	}
	var out []int
	for _, f := range splitList(s) {
		c, err := strconv.Atoi(f)
		if err != nil || c < 1 {
			return nil, fmt.Errorf("bad -users entry %q", f)
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -users list")
	}
	return out, nil
}

// parseProfiles resolves every entry of a -profile list.
func parseProfiles(list string) ([]schedule.Profile, error) {
	var out []schedule.Profile
	for _, spec := range splitList(list) {
		p, err := resolveProfile(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -profile list")
	}
	return out, nil
}

// resolveProfile turns a -profile entry into a schedule: a built-in name
// (flat, officeday, shiftchange) or @path to a file in the schedule text
// format.
func resolveProfile(spec string) (schedule.Profile, error) {
	if path, ok := strings.CutPrefix(spec, "@"); ok {
		text, err := os.ReadFile(path)
		if err != nil {
			return schedule.Profile{}, err
		}
		return schedule.Parse(string(text))
	}
	p, ok := schedule.Builtin(spec)
	if !ok {
		return schedule.Profile{}, fmt.Errorf("unknown profile %q (built-ins: %s; or @file)",
			spec, strings.Join(schedule.Builtins(), ", "))
	}
	return p, nil
}

// splitList splits a comma list, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
