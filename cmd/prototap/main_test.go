package main

import (
	"bytes"
	"flag"
	"math"
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

// TestTapRejectsUnknownInputs: an unknown workload or protocol, and every
// setting outside its bound, is refused before any trace is built, so
// none of these captures starts.
func TestTapRejectsUnknownInputs(t *testing.T) {
	if err := tap(tapConfig{workload: "nope", proto: "rdp"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if err := tap(tapConfig{workload: "office", proto: "nope"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	anim := tapConfig{workload: "animation", proto: "rdp", frames: 10, fps: 20, spanSec: 5}
	var bad []tapConfig
	for _, frames := range []int{0, -1, maxFrames + 1, 1_000_000_000} {
		c := anim
		c.frames = frames
		bad = append(bad, c)
	}
	for _, fps := range []float64{0, -5, minFPS / 2, 1e-300, maxFPS + 1, 2e6, math.Inf(1), math.NaN()} {
		c := anim
		c.fps = fps
		bad = append(bad, c)
	}
	for _, span := range []int{0, -1, maxSpanSec + 1, 10_000_000} {
		for _, wl := range []string{"animation", "webpage"} {
			c := anim
			c.workload, c.spanSec = wl, span
			bad = append(bad, c)
		}
	}
	for _, c := range bad {
		if err := tap(c, &bytes.Buffer{}); err == nil {
			t.Errorf("%s capture with %d frames at %v fps over %d s accepted", c.workload, c.frames, c.fps, c.spanSec)
		}
	}
}
