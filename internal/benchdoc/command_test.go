package benchdoc_test

import (
	"strings"
	"testing"

	"thinbench/internal/benchdoc"
	"thinbench/internal/core"
)

// TestCommandRejects checks that a recorded command that cannot rebuild a
// document fails: at the parser, or at the flag layer, one case per
// rejection that layer makes.
func TestCommandRejects(t *testing.T) {
	for _, command := range []string{
		"",
		"go test ./...",
		"thinbench -run shard -nosuchflag 1",
		"thinbench -run shard stray",
	} {
		if _, err := benchdoc.ParseCommand(command); err == nil {
			t.Errorf("ParseCommand(%q) accepted", command)
		}
	}
	for _, command := range []string{
		"thinbench -run fig3",
		// Empty axis lists.
		"thinbench -run contention -proto= -quick",
		"thinbench -run contention -sched= -quick",
		"thinbench -run shard -policy= -quick",
		"thinbench -run schedule -profile= -quick",
		"thinbench -run control -profile= -quick",
		"thinbench -run churn -churn= -quick",
		// Populations.
		"thinbench -run contention -users 1,x -quick",
		"thinbench -run shard -users 8..2 -quick",
		"thinbench -run churn -users 10,20 -quick",
		"thinbench -run schedule -users 10..12 -quick",
		"thinbench -run control -users -1 -quick",
		"thinbench -run control -users 1..3",
		// Fleets.
		"thinbench -run shard -shards 0 -quick",
		"thinbench -run churn -shards 0 -quick",
		"thinbench -run schedule -shards 0 -quick",
		"thinbench -run control -shards 0 -quick",
		// Churn rates.
		"thinbench -run churn -churn 0,-0.1 -quick",
		"thinbench -run churn -churn 0,fast -quick",
		"thinbench -run churn -churn 2000000 -quick",
		// Kills.
		"thinbench -run churn -kill 2 -killat 0 -quick",
		"thinbench -run schedule -kill 2 -killat 0 -quick",
		"thinbench -run churn -quick -killat 4",
		"thinbench -run schedule -quick -killat 6",
		// Profiles: an unknown one, alone or after a valid one.
		"thinbench -run schedule -profile nosuch -quick",
		"thinbench -run control -profile nosuch -quick",
		"thinbench -run schedule -profile officeday,nosuch",
		"thinbench -run control -profile officeday,nosuch",
	} {
		c, err := benchdoc.ParseCommand(command)
		if err != nil {
			t.Fatalf("ParseCommand(%q): %v", command, err)
		}
		if _, err := c.Build(); err == nil {
			t.Errorf("%q built a document", command)
		}
	}
}

// TestQuickPresets builds every extension family's bench mode at -quick
// with default flags and checks that each document holds results. Churn
// mode builds only because -quick re-defaults its kill time from 4 s to
// 2 s, inside the 4 s quick span.
func TestQuickPresets(t *testing.T) {
	for _, mode := range []string{"contention", "shard", "churn", "schedule", "control"} {
		c, err := benchdoc.ParseCommand("thinbench -quick -run " + mode)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := c.Build()
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		runs, failovers := 0, -1
		switch d := doc.(type) {
		case core.ContentionDoc:
			for _, sc := range d.Scenarios {
				runs += len(sc.Points)
			}
		case core.ShardDoc:
			for _, ps := range d.Policies {
				runs += len(ps.Points)
			}
		case core.ChurnDoc:
			for _, ps := range d.Policies {
				runs += len(ps.Points)
			}
			failovers = len(d.Failover)
			if !strings.Contains(d.Command, " -killat 2 ") {
				t.Errorf("churn at -quick recorded %q, want the kill re-defaulted to 2 s", d.Command)
			}
		case core.ScheduleDoc:
			for _, pr := range d.Profiles {
				runs += len(pr.Policies)
			}
			failovers = len(d.Failover)
		case core.ControlDoc:
			runs = len(d.Profiles)
		default:
			t.Fatalf("%s built a %T", mode, doc)
		}
		if runs == 0 || failovers == 0 {
			t.Errorf("%s at -quick: %d runs, %d failover runs", mode, runs, failovers)
		}
	}
}

// TestCommandOverride checks that extra arguments parse after the
// recorded ones, which is how the golden test reruns a baseline at
// another worker count.
func TestCommandOverride(t *testing.T) {
	c, err := benchdoc.ParseCommand("thinbench -run speed -parallel 1 -seed 7", "-parallel", "8")
	if err != nil {
		t.Fatal(err)
	}
	if c.Run != "speed" || !c.Bench() || c.Parallel != 8 || c.Seed != 7 {
		t.Fatalf("parsed -run %q, bench %v, -parallel %d, -seed %d", c.Run, c.Bench(), c.Parallel, c.Seed)
	}
}
