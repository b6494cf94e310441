// Package hotpath is a thinlint fixture. The keystroke and sendEchoTape
// functions mirror the real server echo path closely enough that the
// analyzer's verdict on them carries over: keystroke boxes its input batch
// on every call, the shape the analyzer must keep failing (so the
// construct cannot quietly return to the echo path without a new reasoned
// allow), while keystrokeBoxedOnce and sendEchoTape are the current
// shapes, which must stay silent.
package hotpath

import (
	"fmt"

	"thinbench/internal/display"
)

type user struct {
	idx      int
	evs      []display.InputEvent
	keyEv    [1]display.InputEvent
	tape     display.OpTape
	echoText string
}

// keystroke mirrors an input path that boxes the key-repeat event into the
// session's []display.InputEvent batch on every keystroke. The boxing
// diagnostic here is the regression tripwire: reintroducing this shape on
// the real echo path fails vet the same way.
//
//thinlint:hotpath
func keystroke(u *user) []display.InputEvent {
	u.evs = append(u.evs[:0], display.KeyEvent{Down: true, Code: uint16(30 + u.idx%26)}) // want `hotpath\.box`
	return u.evs
}

// keystrokeBoxedOnce mirrors thinbench/internal/server.(*Server).keystrokeAt
// as it stands: Server.start boxes the session's key event once, so each
// keystroke hands the encoder a ready slice.
//
//thinlint:hotpath
func keystrokeBoxedOnce(u *user) []display.InputEvent {
	return u.keyEv[:]
}

// sendEchoTape mirrors thinbench/internal/server.(*Server).sendEcho as it
// stands: the echo rides the session's reused pointer-free op tape, so
// there is no interface conversion for the analyzer to flag.
//
//thinlint:hotpath
func sendEchoTape(u *user, col int) *display.OpTape {
	u.tape.Reset()
	u.tape.Text(56+(col%70)*display.GlyphW, 80+(col/70%24)*16, u.echoText, 0)
	return &u.tape
}

//thinlint:hotpath
func hot(n int) []int {
	buf := make([]int, n)        // want `hotpath\.alloc`
	fmt.Println(n)               // want `hotpath\.fmt` `hotpath\.box`
	f := func() int { return n } // want `hotpath\.closure`
	buf[0] = f()
	return buf
}

//thinlint:hotpath
func hotAllowed(n int) []int {
	buf := make([]int, n) //thinlint:allow hotpath.alloc fixture suppression case
	return buf
}

//thinlint:hotpath
func crashPathIsExempt(n int) {
	if n < 0 {
		panic(fmt.Sprintf("negative count %d", n)) // panic operands may format freely
	}
}

//thinlint:hotpath
func pointerShapedIsFine(p *user) []any {
	return []any{p} // pointers store directly in the interface word
}

// cold is unannotated: the same constructs draw no diagnostics.
func cold(n int) []int {
	buf := make([]int, n)
	fmt.Println(n)
	return buf
}
