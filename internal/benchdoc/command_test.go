package benchdoc_test

import (
	"testing"

	"thinbench/internal/benchdoc"
)

// TestCommandRejects checks that a recorded command that cannot rebuild a
// document fails before anything is simulated.
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
		"thinbench -run control -users 1..3",
		"thinbench -run churn -churn 2000000 -quick",
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
