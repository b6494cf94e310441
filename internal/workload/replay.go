package workload

import (
	"fmt"

	"thinbench/internal/display"
	"thinbench/internal/proto"
	"thinbench/internal/proto/protos"
	"thinbench/internal/simclock"
	"thinbench/internal/trace"
)

// Replay plays a behavior trace through a protocol endpoint pair,
// recording all traffic. Display batches are encoded by the server and
// applied by the client (so decoding is verified as a side effect); input
// batches are encoded by the client and decoded by the server. opts holds
// the pair's flush windows, as protos.New returns them; a zero Opts
// replays batch by batch.
//
// Servers encode straight from the trace's op tape into reused scratch —
// no op is boxed and no payload buffer is allocated per batch (every
// protocol client copies what it keeps out of a payload before Apply
// returns, so reusing the scratch across batches is safe).
func Replay(tr Trace, srv proto.Server, cli proto.Client, rec *trace.Recorder, opts protos.Opts) error {
	inputs := coalesceInput(tr.Input, opts.InputCoalesce)
	displays := coalesceDisplay(tr.Display, opts.DisplayCoalesce)
	var sc proto.Scratch
	di, ii := 0, 0
	for di < len(displays) || ii < len(inputs) {
		nextDisplay := di < len(displays) &&
			(ii >= len(inputs) || displays[di].At <= inputs[ii].At)
		if nextDisplay {
			b := displays[di]
			di++
			for _, m := range srv.Update(b.Tape, b.From, b.To, &sc) {
				if rec != nil {
					rec.Record(b.At, m)
				}
				if err := cli.Apply(m); err != nil {
					return fmt.Errorf("replay %s: display batch at %v: %w", tr.Name, b.At, err)
				}
			}
			continue
		}
		b := inputs[ii]
		ii++
		for _, m := range cli.EncodeInput(b.Events, &sc) {
			if rec != nil {
				rec.Record(b.At, m)
			}
			// Note: a legitimately empty decode is possible (a VNC-style
			// server deduplicates repeated pointer positions), so only a
			// decode error fails the replay.
			if _, err := srv.DecodeInput(m); err != nil {
				return fmt.Errorf("replay %s: input batch at %v: %w", tr.Name, b.At, err)
			}
		}
	}
	if rec != nil {
		rec.Flush()
	}
	return nil
}

// coalesceInput merges input batches arriving within the window, keeping
// the final batch's timestamp as the flush instant.
func coalesceInput(in []InputBatch, window simclock.Duration) []InputBatch {
	if window <= 0 || len(in) == 0 {
		return in
	}
	out := make([]InputBatch, 0, len(in))
	acc := InputBatch{At: in[0].At}
	windowStart := in[0].At
	for _, b := range in {
		if b.At.Sub(windowStart) >= window && len(acc.Events) > 0 {
			out = append(out, acc)
			acc = InputBatch{}
			windowStart = b.At
		}
		acc.At = b.At
		acc.Events = append(acc.Events, b.Events...)
	}
	if len(acc.Events) > 0 {
		out = append(out, acc)
	}
	return out
}

// coalesceDisplay merges display batches arriving within the window,
// preserving operation order. Batches that are adjacent spans of the same
// tape (the common case: one trace, one tape, appended in order) merge by
// widening the span; interleaved tapes fall back to copying the spans onto
// one shared merge tape.
func coalesceDisplay(in []DisplayBatch, window simclock.Duration) []DisplayBatch {
	if window <= 0 || len(in) == 0 {
		return in
	}
	out := make([]DisplayBatch, 0, len(in))
	var merged *display.OpTape
	acc := DisplayBatch{At: in[0].At}
	windowStart := in[0].At
	for _, b := range in {
		if b.At.Sub(windowStart) >= window && acc.Len() > 0 {
			out = append(out, acc)
			acc = DisplayBatch{}
			windowStart = b.At
		}
		acc.At = b.At
		acc = extendBatch(acc, b, &merged)
	}
	if acc.Len() > 0 {
		out = append(out, acc)
	}
	return out
}

// extendBatch appends b's span onto acc. An empty acc adopts b's span; a
// contiguous same-tape continuation widens it; anything else moves acc onto
// the shared merge tape (created on first use) and appends b there. Spans
// already flushed from the merge tape are never rewritten — it only grows.
func extendBatch(acc, b DisplayBatch, merged **display.OpTape) DisplayBatch {
	switch {
	case b.Len() == 0:
		return acc
	case acc.Len() == 0:
		acc.Tape, acc.From, acc.To = b.Tape, b.From, b.To
		return acc
	case acc.Tape == b.Tape && acc.To == b.From:
		acc.To = b.To
		return acc
	}
	if *merged == nil {
		*merged = new(display.OpTape)
	}
	if acc.Tape != *merged || acc.To != (*merged).Len() {
		from := (*merged).Len()
		(*merged).AppendTape(acc.Tape, acc.From, acc.To)
		acc.Tape, acc.From, acc.To = *merged, from, (*merged).Len()
	}
	(*merged).AppendTape(b.Tape, b.From, b.To)
	acc.To = (*merged).Len()
	return acc
}
