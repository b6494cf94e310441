package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files from current output")

// TestTapGoldenOutput pins the decoded-trace accounting of three captures.
// Each is deterministic in its seed, so any diff is a real behavior change
// in the codec, the registry's flush windows, the recorder, or the workload
// generator:
//   - a 10-frame animation over RDP with the Mbps series;
//   - the web page over RDP, whose one-second display window merges the
//     banner's and the marquee's batches, which live on different tapes;
//   - the office session over LBX, the only capture with input, which
//     pins LBX's 75 ms input window.
func TestTapGoldenOutput(t *testing.T) {
	for _, c := range []struct {
		golden string
		cfg    tapConfig
	}{
		{"animation_rdp.golden", tapConfig{workload: "animation", proto: "rdp", frames: 10, fps: 20, spanSec: 5, series: true, kinds: true}},
		{"webpage_rdp.golden", tapConfig{workload: "webpage", proto: "rdp", spanSec: 10, kinds: true}},
		{"office_lbx.golden", tapConfig{workload: "office", proto: "lbx", kinds: true}},
	} {
		t.Run(c.golden, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tap(c.cfg, &buf); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", c.golden)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with -update-golden)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("capture accounting diverged from golden file.\n--- got ---\n%s\n--- want ---\n%s",
					buf.Bytes(), want)
			}
		})
	}
}

func TestTapRejectsUnknownInputs(t *testing.T) {
	if err := tap(tapConfig{workload: "nope", proto: "rdp"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if err := tap(tapConfig{workload: "office", proto: "nope"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}
