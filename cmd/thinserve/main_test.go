package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"thinbench/internal/display"
	"thinbench/internal/proto"
	"thinbench/internal/proto/protos"
)

// animationHash is the client screen every protocol renders from the
// animation workload at span 3, seed 1999: the final frame, whichever wire
// format carried it.
const animationHash = 0x581684b7b92ded98

// TestEndToEndOverLoopback runs a full session — server streaming a
// workload's display channel, client applying it and answering with input —
// over a real TCP connection, for each protocol, and checks the client's
// final screen against the pinned hash.
func TestEndToEndOverLoopback(t *testing.T) {
	for _, prot := range []string{"rdp", "x", "lbx", "vnc", "slim"} {
		prot := prot
		t.Run(prot, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			errc := make(chan error, 1)
			go func() { errc <- serveListener(ln, prot, "animation", 3, 1, 1999, idleTimeout) }()
			stats, err := view(ln.Addr().String(), prot, 1, idleTimeout)
			if err != nil {
				t.Fatalf("client: %v", err)
			}
			if err := <-errc; err != nil {
				t.Fatalf("server: %v", err)
			}
			if len(stats) != 1 || stats[0].hash != animationHash {
				t.Fatalf("client screens %+v, want one with hash %x", stats, uint64(animationHash))
			}
		})
	}
}

// TestConcurrentSessionsOverLoopback multiplexes many concurrent client
// sessions against one server process over real TCP connections — the
// farm end-to-end: every session has its own codec state, workload trace
// (seed-derived, so streams differ), and socket.
func TestConcurrentSessionsOverLoopback(t *testing.T) {
	const sessions = 8
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	errc := make(chan error, 1)
	go func() { errc <- serveListener(ln, "rdp", "animation", 2, sessions, 7, idleTimeout) }()
	if _, err := view(ln.Addr().String(), "rdp", sessions, idleTimeout); err != nil {
		t.Fatalf("client: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestWorkloadsFitFrameCaps: every message a workload's server sends, at
// the default span and the smoke test's, and the client's input reply
// fit the protocol's cap, so the capped reads accept every real session.
func TestWorkloadsFitFrameCaps(t *testing.T) {
	for _, prot := range protos.Names() {
		for _, wl := range []string{"office", "webpage", "animation"} {
			for _, span := range []int{2, 10} {
				srv, maxMessage, err := newServer(prot)
				if err != nil {
					t.Fatal(err)
				}
				cli, _, _ := newClient(prot)
				tr, err := buildTrace(wl, span, 1999)
				if err != nil {
					t.Fatal(err)
				}
				var sc proto.Scratch
				largest := 0
				for _, b := range tr.Display {
					for _, m := range srv.Update(b.Tape, b.From, b.To, &sc) {
						largest = max(largest, m.Size())
					}
				}
				for _, m := range cli.EncodeInput([]display.InputEvent{display.KeyEvent{Down: true, Code: 28}}, &proto.Scratch{}) {
					largest = max(largest, m.Size())
				}
				if largest > maxMessage {
					t.Errorf("%s %s, span %d s: a %d-byte message over the %d-byte cap", prot, wl, span, largest, maxMessage)
				}
			}
		}
	}
}

func TestUnknownProtocolRejected(t *testing.T) {
	if _, _, err := newServer("spice"); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, _, err := newClient("spice"); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := buildTrace("quake", 1, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
	// Bad inputs must fail before any client is accepted.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := serveListener(ln, "spice", "animation", 1, 1, 1, idleTimeout); err == nil {
		t.Fatal("serveListener accepted unknown protocol")
	}
	if err := serveListener(ln, "rdp", "quake", 1, 1, 1, idleTimeout); err == nil {
		t.Fatal("serveListener accepted unknown workload")
	}
	if _, err := view("127.0.0.1:0", "spice", 1, idleTimeout); err == nil {
		t.Fatal("view accepted unknown protocol")
	}
}

// TestOutOfBoundsRejected: a session count outside 1 to maxSessions, and
// a span outside 1 to maxSpanSec seconds for the workloads that play one,
// are refused with an error naming the flag before any trace, connection
// slice, listener or worker is built: the server before it listens or
// accepts, the client before it dials.
func TestOutOfBoundsRejected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	refused := func(what, flag string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("%s: %v, want a refusal of %s", what, err, flag)
		}
	}
	for _, n := range []int{0, -3, maxSessions + 1, 1_000_000_000} {
		refused(fmt.Sprintf("serve, %d sessions", n), "-sessions", serve("127.0.0.1:0", "rdp", "animation", 1, n, 1, idleTimeout))
		refused(fmt.Sprintf("serveListener, %d sessions", n), "-sessions", serveListener(ln, "rdp", "animation", 1, n, 1, idleTimeout))
		_, err := view(ln.Addr().String(), "rdp", n, idleTimeout)
		refused(fmt.Sprintf("view, %d sessions", n), "-sessions", err)
	}
	for _, span := range []int{0, -1, maxSpanSec + 1, 1_000_000_000} {
		for _, wl := range []string{"webpage", "animation"} {
			_, err := buildTrace(wl, span, 1)
			refused(fmt.Sprintf("%s trace, %d s", wl, span), "-span", err)
			refused(fmt.Sprintf("serve, %s for %d s", wl, span), "-span", serve("127.0.0.1:0", "rdp", wl, span, 1, 1, idleTimeout))
			refused(fmt.Sprintf("serveListener, %s for %d s", wl, span), "-span", serveListener(ln, "rdp", wl, span, 1, 1, idleTimeout))
		}
	}
}

// TestMismatchedSessionsTimeOut: a server expecting two sessions and a
// client opening one wait on each other, the server for a second
// connection and the client for a stream that starts only after it. Both
// must give up at their idle deadline with an error that names the
// timeout. The client's deadline is the shorter, so it times out on its
// own read before the server gives up and hangs up on it.
func TestMismatchedSessionsTimeOut(t *testing.T) {
	const clientIdle, serverIdle = 200 * time.Millisecond, 400 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	start := time.Now()
	errc := make(chan error, 1)
	go func() { errc <- serveListener(ln, "rdp", "animation", 1, 2, 1, serverIdle) }()
	_, clientErr := view(ln.Addr().String(), "rdp", 1, clientIdle)
	serverErr := <-errc
	if !errors.Is(clientErr, os.ErrDeadlineExceeded) {
		t.Errorf("client: %v, want an i/o timeout", clientErr)
	}
	if !errors.Is(serverErr, os.ErrDeadlineExceeded) {
		t.Errorf("server: %v, want an i/o timeout", serverErr)
	}
	if took := time.Since(start); took > 10*serverIdle {
		t.Errorf("the mismatch took %v to fail, want a few idle deadlines", took)
	}
}
