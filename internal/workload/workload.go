// Package workload generates the user behaviors the paper measures:
// 20 Hz keystroke repeat, office-application interaction sessions
// (word processing, bitmap painting, control-panel configuration),
// animated banner advertisements, scrolling marquee tickers, the combined
// synthetic web page of Figure 4, and parameterized looping animations for
// the bitmap-cache studies of Figures 5-7.
//
// A workload is a Trace: timestamped display-update batches (what the
// application drew) and input batches (what the user did). Traces are
// deterministic in their parameters, so every protocol sees a byte-
// identical behavior stream — the property the paper's §6.1.2 comparison
// depends on.
package workload

import (
	"sort"

	"thinbench/internal/display"
	"thinbench/internal/simclock"
)

// DisplayBatch is one application flush: the drawing operations generated
// together (one damage pass, one animation frame, one character echo). The
// operations live as entries [From, To) of a shared pointer-free op tape —
// a whole trace's drawing typically shares one tape — so storing, replaying,
// and encoding a trace allocates nothing per op.
type DisplayBatch struct {
	At       simclock.Time
	Tape     *display.OpTape
	From, To int
}

// Len reports the batch's operation count.
func (b DisplayBatch) Len() int { return b.To - b.From }

// InputBatch is the input events gathered in one client flush interval.
type InputBatch struct {
	At     simclock.Time
	Events []display.InputEvent
}

// Trace is a complete, ordered behavior recording.
type Trace struct {
	Name    string
	Display []DisplayBatch
	Input   []InputBatch
}

// Duration reports the time of the last batch in the trace.
func (t *Trace) Duration() simclock.Duration {
	var last simclock.Time
	if n := len(t.Display); n > 0 && t.Display[n-1].At > last {
		last = t.Display[n-1].At
	}
	if n := len(t.Input); n > 0 && t.Input[n-1].At > last {
		last = t.Input[n-1].At
	}
	return simclock.Duration(last)
}

// Shift offsets every batch by d.
func (t *Trace) Shift(d simclock.Duration) {
	for i := range t.Display {
		t.Display[i].At = t.Display[i].At.Add(d)
	}
	for i := range t.Input {
		t.Input[i].At = t.Input[i].At.Add(d)
	}
}

// Append concatenates another trace after this one's end, preserving order.
func (t *Trace) Append(o Trace) {
	o.Shift(t.Duration())
	t.Display = append(t.Display, o.Display...)
	t.Input = append(t.Input, o.Input...)
}

// Merge interleaves another trace at its own timestamps.
func (t *Trace) Merge(o Trace) {
	t.Display = append(t.Display, o.Display...)
	t.Input = append(t.Input, o.Input...)
	sort.SliceStable(t.Display, func(i, j int) bool { return t.Display[i].At < t.Display[j].At })
	sort.SliceStable(t.Input, func(i, j int) bool { return t.Input[i].At < t.Input[j].At })
}

// Ops reports the total display operation count.
func (t *Trace) Ops() int {
	n := 0
	for _, b := range t.Display {
		n += b.Len()
	}
	return n
}

// Events reports the total input event count.
func (t *Trace) Events() int {
	n := 0
	for _, b := range t.Input {
		n += len(b.Events)
	}
	return n
}

// builder accumulates batches with a moving clock. All display batches
// append into one owned op tape between open and commit.
type builder struct {
	t    Trace
	now  simclock.Time
	rng  *simclock.Rand
	tape *display.OpTape

	pendingInput []display.InputEvent
	inputFlush   simclock.Duration
	lastFlush    simclock.Time
}

func newBuilder(name string, seed uint64, inputFlush simclock.Duration) *builder {
	return &builder{
		t:          Trace{Name: name},
		rng:        simclock.NewRand(seed),
		tape:       new(display.OpTape),
		inputFlush: inputFlush,
	}
}

// advance moves the clock, flushing input batches on window boundaries.
func (b *builder) advance(d simclock.Duration) {
	b.now = b.now.Add(d)
	if len(b.pendingInput) > 0 && b.now.Sub(b.lastFlush) >= b.inputFlush {
		b.flushInput()
	}
}

func (b *builder) flushInput() {
	if len(b.pendingInput) == 0 {
		return
	}
	b.t.Input = append(b.t.Input, InputBatch{At: b.now, Events: b.pendingInput})
	b.pendingInput = nil
	b.lastFlush = b.now
}

func (b *builder) input(evs ...display.InputEvent) {
	b.pendingInput = append(b.pendingInput, evs...)
}

// open starts a display batch at the current instant: append operations to
// b.tape, then commit the returned mark. Between open and commit the clock
// must not advance.
func (b *builder) open() int { return b.tape.Len() }

// commit flushes the operations appended since the matching open as one
// batch; an empty span is dropped.
func (b *builder) commit(from int) {
	if b.tape.Len() == from {
		return
	}
	b.t.Display = append(b.t.Display, DisplayBatch{At: b.now, Tape: b.tape, From: from, To: b.tape.Len()})
}

func (b *builder) finish() Trace {
	b.flushInput()
	return b.t
}
