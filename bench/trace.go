package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// tracer records spans around the benchmark's calls into the program and
// keeps them in memory until the run ends. Every rep is a span of its own
// with a fresh id, and the layer calls inside it are its children. A nil
// tracer records nothing, so an untraced rep pays no more than a nil check.
// The tracer also accumulates the traced reps' CPU profiles.
type tracer struct {
	prof   attribution
	origin time.Time
	rep    int
	repID  int
	nextID int
	events []traceEvent
	// totals sums this rep's span durations, in seconds, by layer and by
	// layer.variant.
	totals map[string]float64
}

// traceEvent is one complete ("X") event of the Chrome trace-event format.
type traceEvent struct {
	Name string    `json:"name"`
	Ph   string    `json:"ph"`
	Ts   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Args traceArgs `json:"args"`
}

type traceArgs struct {
	Rep    int `json:"rep"`
	ID     int `json:"id"`
	Parent int `json:"parent,omitempty"`
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// beginRep opens rep's span; its layer spans become its children.
func (t *tracer) beginRep(rep int) {
	t.nextID++
	t.rep, t.repID = rep, t.nextID
	t.totals = map[string]float64{}
}

// endRep closes the rep span that started at start.
func (t *tracer) endRep(start time.Time) {
	t.events = append(t.events, t.event("rep", start, t.repID, 0))
}

// span records a call into layer that started at start. variant, when
// set, names the call's own series as well (a protocol, for instance).
func (t *tracer) span(layer, variant string, start time.Time) {
	if t == nil {
		return
	}
	d := time.Since(start).Seconds()
	name := layer
	if variant != "" {
		name += "." + variant
		t.totals[name] += d
	}
	t.totals[layer] += d
	t.nextID++
	t.events = append(t.events, t.event(name, start, t.nextID, t.repID))
}

func (t *tracer) event(name string, start time.Time, id, parent int) traceEvent {
	return traceEvent{
		Name: name,
		Ph:   "X",
		Ts:   float64(start.Sub(t.origin).Nanoseconds()) / 1e3,
		Dur:  float64(time.Since(start).Nanoseconds()) / 1e3,
		Pid:  1,
		Tid:  1,
		Args: traceArgs{Rep: t.rep, ID: id, Parent: parent},
	}
}

// write stores the spans as a Chrome trace-event file, which
// chrome://tracing and Perfetto open directly.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{t.events, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
