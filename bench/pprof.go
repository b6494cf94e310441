package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// This file reads the gzipped profile.proto that runtime/pprof writes and
// splits its CPU samples across the program's modules. It decodes only
// the fields attribution needs: sample types, samples, locations with
// their (possibly inlined) lines, functions, and the string table.

// profSample is one sampled stack, leaf frame first, with how many times
// it was sampled and the CPU time that stands for. A location holding
// inlined calls contributes one frame per call, innermost first.
type profSample struct {
	count, cpu int64
	frames     []string
}

var errProfile = errors.New("malformed profile")

// parseProfile decodes a gzipped CPU profile. A sample's count and CPU time
// are its "samples" and "cpu" values, or its first value where the profile
// does not name them.
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		strs    []string
		types   []uint64
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id -> name's string index
	)
	err = fields(raw, func(num, typ int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := fields(b, func(num, typ int, v uint64, b []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = varints(s.locs, typ, v, b)
				case 2:
					s.vals, err = varints(s.vals, typ, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d of %d: %w", i, len(strs), errProfile)
		}
		return strs[i], nil
	}
	countIdx, cpuIdx := 0, 0
	for i, t := range types {
		switch s, _ := str(t); s {
		case "samples":
			countIdx = i
		case "cpu":
			cpuIdx = i
		}
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if max(countIdx, cpuIdx) >= len(s.vals) {
			return nil, fmt.Errorf("profile: sample has %d values: %w", len(s.vals), errProfile)
		}
		ps := profSample{count: int64(s.vals[countIdx]), cpu: int64(s.vals[cpuIdx])}
		for _, l := range s.locs {
			fns, ok := locs[l]
			if !ok {
				return nil, fmt.Errorf("profile: unknown location %d: %w", l, errProfile)
			}
			for _, f := range fns {
				name, err := str(funcs[f])
				if err != nil {
					return nil, err
				}
				ps.frames = append(ps.frames, name)
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// fields calls fn for each field of a protobuf message: v carries a
// varint or fixed-width value, b the payload of a length-delimited field.
func fields(msg []byte, fn func(num, typ int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key: %w", errProfile)
		}
		msg = msg[n:]
		num, typ := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch typ {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return fmt.Errorf("profile: bad varint: %w", errProfile)
			}
			msg = msg[n:]
		case 1, 5:
			w := 8
			if typ == 5 {
				w = 4
			}
			if len(msg) < w {
				return fmt.Errorf("profile: short fixed field: %w", errProfile)
			}
			msg = msg[w:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return fmt.Errorf("profile: bad length: %w", errProfile)
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return fmt.Errorf("profile: wire type %d: %w", typ, errProfile)
		}
		if err := fn(num, typ, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated integer field, which an encoder may write
// packed (one length-delimited run) or as one varint per element.
func varints(dst []uint64, typ int, v uint64, b []byte) ([]uint64, error) {
	if typ == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, fmt.Errorf("profile: bad packed varint: %w", errProfile)
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

// modules are the program's layers that self time is reported for, by the
// name of their directory under internal/.
var modules = []string{
	"simclock", "sched", "vm", "netsim", "proto", "display", "session",
	"server", "metrics", "shard", "sizing", "schedule", "control", "farm",
}

// inclusive names the public functions whose share of samples, counted
// anywhere on the stack, is reported as a per-layer metric.
var inclusive = []struct {
	metric string
	funcs  []string
}{
	{"metrics.histogram_frac", []string{
		"thinbench/internal/metrics.NewHistogram",
		"thinbench/internal/metrics.(*Histogram).Merge",
		"thinbench/internal/metrics.(*Dist).ToHistogram",
	}},
	{"display.framebuffer_frac", []string{
		"thinbench/internal/display.NewFramebuffer",
		"thinbench/internal/display.(*Framebuffer).Reset",
	}},
	{"sizing.probe_frac", []string{"thinbench/internal/sizing.EvaluateConfig"}},
	{"server.setup_frac", []string{"thinbench/internal/server.New"}},
	{"server.sim_frac", []string{"thinbench/internal/server.(*Server).Run"}},
}

// profileMetrics lists every metric attribution reports. The self-time
// shares partition the samples, so they sum to 1.
func profileMetrics() []string {
	var out []string
	for _, m := range modules {
		out = append(out, m+".self_frac")
	}
	out = append(out, "other.self_frac", "runtime.gc_frac", "runtime.alloc_frac", "runtime.other_frac")
	for _, in := range inclusive {
		out = append(out, in.metric)
	}
	return out
}

// attribution accumulates CPU time by metric across profiles.
type attribution struct {
	samples int64
	total   int64
	by      map[string]int64
}

// add attributes each sample's self time to the module of its leaf frame.
// A runtime leaf counts as garbage collection when a collector frame is
// on the stack, as allocation when mallocgc is, and as other runtime work
// otherwise; a leaf outside the listed modules counts as other.
func (a *attribution) add(samples []profSample) {
	if a.by == nil {
		a.by = map[string]int64{}
	}
	for _, s := range samples {
		if len(s.frames) == 0 {
			continue
		}
		a.samples += s.count
		a.total += s.cpu
		a.by[selfMetric(s.frames)] += s.cpu
		for _, in := range inclusive {
			if slices.ContainsFunc(s.frames, func(f string) bool { return slices.Contains(in.funcs, f) }) {
				a.by[in.metric] += s.cpu
			}
		}
	}
}

func selfMetric(frames []string) string {
	m := moduleOf(frames[0])
	if m != "runtime" {
		return m + ".self_frac"
	}
	switch {
	case slices.ContainsFunc(frames, gcFrame):
		return "runtime.gc_frac"
	case slices.Contains(frames, "runtime.mallocgc"):
		return "runtime.alloc_frac"
	}
	return "runtime.other_frac"
}

// gcFrame reports a garbage-collector function: the mark workers and
// assists (runtime.gc*), sweeping, scavenging, and the profiler's
// stand-in frame for collector samples without a stack.
func gcFrame(f string) bool {
	switch f {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot",
		"runtime.scanobject", "runtime.wbBufFlush", "runtime._GC":
		return true
	}
	return strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.(*gc")
}

// moduleOf maps a function symbol to "runtime", one of modules, or
// "other". A symbol with no package, such as the race detector's
// __tsan_read, is C code linked in with the runtime and counts as runtime.
func moduleOf(fn string) string {
	pkg := packageOf(fn)
	if !strings.Contains(fn, ".") || pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(pkg, "thinbench/internal/"); ok {
		m, _, _ := strings.Cut(rest, "/")
		if slices.Contains(modules, m) {
			return m
		}
	}
	return "other"
}

// packageOf is the import path of a function symbol such as
// "thinbench/internal/proto/rdp.(*Server).Encode" or a generic
// "thinbench/internal/farm.Run[...]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// fracs reports every profile metric as a share of all sampled time.
func (a *attribution) fracs() map[string]float64 {
	out := map[string]float64{}
	for _, m := range profileMetrics() {
		if a.total > 0 {
			out[m] = float64(a.by[m]) / float64(a.total)
		} else {
			out[m] = 0
		}
	}
	return out
}
