// Package poolsafe is a thinlint fixture covering both ownership rules:
// *simclock.Event handles retained past their frame, and proto.Scratch
// arenas leaked to callers that don't own them.
package poolsafe

import (
	"thinbench/internal/proto"
	"thinbench/internal/simclock"
)

type holder struct {
	ev  *simclock.Event
	sc  proto.Scratch
	evs []*simclock.Event
}

func retainInField(h *holder, eng *simclock.Engine) {
	h.ev = eng.At(1, nil, 0, 0) // want `poolsafe\.retain`
}

func retainAllowed(h *holder, eng *simclock.Engine) {
	//thinlint:allow poolsafe.retain fixture suppression case
	h.ev = eng.At(1, nil, 0, 0)
}

func retainInSlice(h *holder, ev *simclock.Event) {
	h.evs = append(h.evs, ev) // want `poolsafe\.retain`
}

func retainInLiteral(eng *simclock.Engine) holder {
	return holder{ev: eng.At(1, nil, 0, 0)} // want `poolsafe\.retain`
}

func clearingIsFine(h *holder) {
	h.ev = nil // storing nil retains nothing
}

func localHandleIsFine(eng *simclock.Engine) bool {
	ev := eng.At(1, nil, 0, 0) // a local dies with the frame
	return eng.Cancel(ev)
}

func leakArena(h *holder) []byte {
	return h.sc.Buf // want `poolsafe\.arena`
}

func leakArenaMsgs(h *holder) []proto.Message {
	return h.sc.Msgs[:0] // want `poolsafe\.arena`
}

func leakAllowed(h *holder) []byte {
	return h.sc.Buf //thinlint:allow poolsafe.arena fixture suppression case
}

func callerOwnedArena(sc *proto.Scratch) []byte {
	return sc.Buf[:0] // the caller passed the Scratch in; slices of it are the contract
}
