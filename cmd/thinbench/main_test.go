package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"thinbench/internal/benchdoc"
)

// TestMain runs main instead of the tests when THINBENCH_MAIN is set, so
// a test can drive the CLI as a child process of the test binary.
func TestMain(m *testing.M) {
	if os.Getenv("THINBENCH_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStrayArgumentsRejected: flag parsing stops at the first positional
// word, so a trailing word, or one before more flags, must fail the
// command line before anything runs instead of silently dropping what
// follows it.
func TestStrayArgumentsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "contention", "-quick", "-users", "2", "rdp"},
		{"-run", "contention", "stray", "-users", "2", "-proto", "vnc", "-sched", "rr", "-quick"},
		{"-run", "fig3", "-quick", "extra"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "THINBENCH_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Fatalf("thinbench %s: exit %v, want a non-zero exit", strings.Join(args, " "), err)
		}
		if stdout.Len() > 0 {
			t.Fatalf("thinbench %s ran before rejecting its arguments:\n%s", strings.Join(args, " "), stdout.String())
		}
		if !strings.Contains(stderr.String(), "unexpected arguments") {
			t.Fatalf("thinbench %s: stderr %q, want the unexpected-arguments error", strings.Join(args, " "), stderr.String())
		}
	}
}

// TestListNamesEveryMode: -list prints an entry for every bench mode but
// all, whose experiments it lists one by one, so a mode added to the
// table cannot be left out of the listing.
func TestListNamesEveryMode(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-list")
	cmd.Env = append(os.Environ(), "THINBENCH_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("thinbench -list: %v", err)
	}
	for _, m := range benchdoc.Modes() {
		if m != "all" && !strings.Contains(string(out), "\n  "+m+"\n        ") {
			t.Errorf("thinbench -list has no entry for mode %s:\n%s", m, out)
		}
	}
}
