// Command thinserve demonstrates the remote display protocols over real
// TCP connections: a server process encodes workload display streams and
// ships them through the proto framing layer; a client process connects,
// decodes into its framebuffer, sends input back, and verifies the
// session.
//
// With -sessions N both sides multiplex N concurrent sessions — each with
// its own protocol codec state, workload trace, and TCP connection —
// across the internal/farm worker pool, exercising the paper's
// multi-user question ("how many concurrent users can this server
// support?") against real sockets.
//
// Every network wait is bounded by a 30 s idle deadline: the server's wait
// for each expected connection, the client's dial, and every read or write
// on either side. A peer that stops talking, or a -sessions count the two
// sides disagree on, fails both processes instead of hanging them.
//
// Server:  thinserve -listen :9000 -proto rdp -workload webpage -span 10 -sessions 8
// Client:  thinserve -connect localhost:9000 -proto rdp -sessions 8
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"thinbench/internal/display"
	"thinbench/internal/farm"
	"thinbench/internal/proto"
	"thinbench/internal/proto/protos"
	"thinbench/internal/simclock"
	"thinbench/internal/workload"
)

// idleTimeout is the idle deadline main gives both sides.
const idleTimeout = 30 * time.Second

// Bounds on the command line: each session holds its own connection,
// worker and workload trace, and the paper's longest measurement window
// is Figure 2's 600 s.
const (
	maxSessions = 1024
	maxSpanSec  = 600
)

// checkSessions refuses a session count outside 1 to maxSessions.
func checkSessions(n int) error {
	if n < 1 || n > maxSessions {
		return fmt.Errorf("-sessions %d outside 1-%d", n, maxSessions)
	}
	return nil
}

// checkWorkload refuses an unknown workload, and a span outside 1 to
// maxSpanSec seconds for the workloads that play one.
func checkWorkload(wl string, spanSec int) error {
	switch wl {
	case "office":
		return nil
	case "webpage", "animation":
		if spanSec < 1 || spanSec > maxSpanSec {
			return fmt.Errorf("-span %d s outside 1-%d", spanSec, maxSpanSec)
		}
		return nil
	}
	return fmt.Errorf("unknown workload %q", wl)
}

// checkServe refuses a server configuration before anything is built: an
// unknown protocol, a workload checkWorkload refuses, or a session count
// checkSessions refuses.
func checkServe(prot, wl string, span, sessions int) error {
	if err := checkSessions(sessions); err != nil {
		return err
	}
	if err := checkWorkload(wl, span); err != nil {
		return err
	}
	_, _, err := newServer(prot)
	return err
}

func main() {
	var (
		listen   = flag.String("listen", "", "serve on this address (server mode)")
		connect  = flag.String("connect", "", "connect to this address (client mode)")
		prot     = flag.String("proto", "rdp", "protocol: rdp, x, lbx, vnc, slim")
		wl       = flag.String("workload", "webpage", "workload: office, webpage, animation")
		span     = flag.Int("span", 10, "workload span in seconds")
		sessions = flag.Int("sessions", 1, "concurrent sessions to serve or open")
		seed     = flag.Uint64("seed", 1999, "root seed; per-session workloads derive from it")
	)
	flag.Parse()

	switch {
	case *listen != "":
		if err := serve(*listen, *prot, *wl, *span, *sessions, *seed, idleTimeout); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
	case *connect != "":
		if _, err := view(*connect, *prot, *sessions, idleTimeout); err != nil {
			fmt.Fprintln(os.Stderr, "view:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// newServer and newClient take one endpoint of the registry's pair and
// the protocol's largest message, the cap on every frame the endpoint
// reads; the peer endpoint lives in the other process, so the discarded
// half is garbage immediately (cheap relative to a TCP session's
// lifetime).
func newServer(prot string) (proto.Server, int, error) {
	s, _, opts, err := protos.New(prot)
	return s, opts.MaxMessage, err
}

func newClient(prot string) (proto.Client, int, error) {
	_, c, opts, err := protos.New(prot)
	return c, opts.MaxMessage, err
}

// buildTrace composes one session's workload, once checkWorkload passes
// it. The seed varies per-session content (animation frames, office
// interleavings) so concurrent sessions are independent streams, not N
// copies of one.
func buildTrace(wl string, spanSec int, seed uint64) (workload.Trace, error) {
	if err := checkWorkload(wl, spanSec); err != nil {
		return workload.Trace{}, err
	}
	span := simclock.Duration(spanSec) * simclock.Second
	switch wl {
	case "office":
		cfg := workload.DefaultOfficeConfig()
		cfg.Seed = seed
		cfg.TypingChars = 200
		cfg.PaintStrokes = 10
		cfg.PanelActions = 4
		cfg.ReviewScrolls = 20
		return workload.OfficeTrace(cfg), nil
	case "webpage":
		cfg := workload.DefaultWebPageConfig()
		cfg.Span = span
		return workload.WebPageTrace(cfg), nil
	}
	return workload.AnimationTrace(workload.AnimationConfig{
		Seed: seed, Frames: 10, FPS: 20, W: 150, H: 115, X: 100, Y: 100,
		Span: span, Photo: true,
	}), nil
}

// idleConn fails any read or write that waits on its peer for longer than
// idle.
type idleConn struct {
	net.Conn
	idle time.Duration
}

func (c idleConn) Read(p []byte) (int, error) {
	if err := c.SetReadDeadline(time.Now().Add(c.idle)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c idleConn) Write(p []byte) (int, error) {
	if err := c.SetWriteDeadline(time.Now().Add(c.idle)); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

// serveStats is one served session's outcome.
type serveStats struct {
	sent, bytes, events int
}

// serve accepts the configured number of clients and streams to all of
// them concurrently. It refuses what checkServe refuses before it
// listens.
func serve(addr, prot, wl string, span, sessions int, seed uint64, idle time.Duration) error {
	if err := checkServe(prot, wl, span, sessions); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	return serveListener(ln, prot, wl, span, sessions, seed, idle)
}

// serveListener runs the configured sessions on an existing listener:
// accept one connection per session, then serve every session at once
// across the farm, each with its own protocol encoder and workload trace.
// It waits at most idle for each connection, and each connection at most
// idle for its peer. It refuses what checkServe refuses before it accepts
// anyone.
func serveListener(ln net.Listener, prot, wl string, span, sessions int, seed uint64, idle time.Duration) error {
	if err := checkServe(prot, wl, span, sessions); err != nil {
		return err
	}
	tl, ok := ln.(interface{ SetDeadline(time.Time) error })
	if !ok {
		return fmt.Errorf("listener %T takes no deadline", ln)
	}
	fmt.Printf("thinserve: %s workload, proto %s, %d session(s) on %s\n", wl, prot, sessions, ln.Addr())

	conns := make([]net.Conn, 0, sessions)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for len(conns) < sessions {
		if err := tl.SetDeadline(time.Now().Add(idle)); err != nil {
			return err
		}
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("waiting for session %d of %d: %w", len(conns)+1, sessions, err)
		}
		conns = append(conns, idleConn{conn, idle})
	}

	stats, err := farm.Run(farm.Config{Sessions: sessions, Workers: sessions, Seed: seed},
		func(s *farm.Session) (serveStats, error) {
			return serveSession(conns[s.Index], prot, wl, span, s.Seed)
		})
	if err != nil {
		return err
	}
	total := serveStats{}
	for i, st := range stats {
		fmt.Printf("thinserve: session %d: sent %d messages, %d bytes, %d input events\n",
			i, st.sent, st.bytes, st.events)
		total.sent += st.sent
		total.bytes += st.bytes
		total.events += st.events
	}
	fmt.Printf("thinserve: total %d sessions, %d messages, %d bytes, %d input events\n",
		sessions, total.sent, total.bytes, total.events)
	return nil
}

// serveSession streams one workload over one connection and reads back the
// client's input report.
func serveSession(conn net.Conn, prot, wl string, span int, seed uint64) (serveStats, error) {
	srv, maxMessage, err := newServer(prot)
	if err != nil {
		return serveStats{}, err
	}
	tr, err := buildTrace(wl, span, seed)
	if err != nil {
		return serveStats{}, err
	}
	st := serveStats{}
	var sc proto.Scratch
	for _, batch := range tr.Display {
		for _, m := range srv.Update(batch.Tape, batch.From, batch.To, &sc) {
			if err := proto.WriteMessage(conn, m); err != nil {
				return st, fmt.Errorf("write: %w", err)
			}
			st.sent++
			st.bytes += m.Size()
		}
	}
	// End-of-stream marker.
	if err := proto.WriteMessage(conn, proto.Message{Channel: proto.Display, Kind: "EOF"}); err != nil {
		return st, err
	}

	// Read the client's input report.
	m, err := proto.ReadMessage(conn, maxMessage)
	if err != nil {
		return st, fmt.Errorf("final input read: %w", err)
	}
	events, err := srv.DecodeInput(m)
	if err != nil {
		return st, fmt.Errorf("input decode: %w", err)
	}
	st.events = len(events)
	return st, nil
}

// viewStats is one client session's outcome.
type viewStats struct {
	applied int
	ops     int64
	hash    uint64
}

// view opens the configured number of concurrent client sessions, each
// applying its own display stream and answering with input, and returns
// their outcomes in session order. Each dial, read and write waits at most
// idle. It refuses a session count checkSessions refuses, or an unknown
// protocol, before it dials.
func view(addr, prot string, sessions int, idle time.Duration) ([]viewStats, error) {
	if err := checkSessions(sessions); err != nil {
		return nil, err
	}
	if _, _, err := newClient(prot); err != nil {
		return nil, err
	}
	all, err := farm.Run(farm.Config{Sessions: sessions, Workers: sessions},
		func(s *farm.Session) (viewStats, error) {
			return viewSession(addr, prot, idle)
		})
	if err != nil {
		return nil, err
	}
	applied := 0
	for i, st := range all {
		fmt.Printf("thinview: session %d: applied %d messages, %d ops rendered, hash %x\n",
			i, st.applied, st.ops, st.hash)
		applied += st.applied
	}
	fmt.Printf("thinview: total %d sessions, %d messages applied\n", sessions, applied)
	return all, nil
}

// viewSession connects, applies the display stream, and sends a burst of
// input.
func viewSession(addr, prot string, idle time.Duration) (viewStats, error) {
	cli, maxMessage, err := newClient(prot)
	if err != nil {
		return viewStats{}, err
	}
	nc, err := net.DialTimeout("tcp", addr, idle)
	if err != nil {
		return viewStats{}, err
	}
	defer nc.Close()
	conn := idleConn{nc, idle}

	st := viewStats{}
	for {
		m, err := proto.ReadMessage(conn, maxMessage)
		if err != nil {
			return st, fmt.Errorf("read: %w", err)
		}
		if m.Kind == "EOF" {
			break
		}
		if err := cli.Apply(m); err != nil {
			return st, fmt.Errorf("apply: %w", err)
		}
		st.applied++
	}
	fb := cli.Framebuffer()
	st.ops = fb.Ops()
	st.hash = fb.Hash()

	// Send a keystroke + click so the server exercises input decoding.
	events := []display.InputEvent{
		display.KeyEvent{Down: true, Code: 28},
		display.KeyEvent{Down: false, Code: 28},
		display.MouseMove{X: 400, Y: 300},
		display.MouseButton{Down: true, Button: 1},
		display.MouseButton{Down: false, Button: 1},
	}
	for _, m := range cli.EncodeInput(events, &proto.Scratch{}) {
		if err := proto.WriteMessage(conn, m); err != nil {
			return st, fmt.Errorf("input write: %w", err)
		}
	}
	return st, nil
}
