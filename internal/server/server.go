// Package server composes the reproduction's simulation layers into one
// shared machine — the configuration the paper actually studies. N
// concurrent user sessions run inside a single discrete-event engine and
// contend on:
//
//   - one CPU under a pluggable scheduling policy (the paper's NT/TSE
//     scheduler, the round-robin Linux model, or the SVR4 interactive
//     class of Evans et al.);
//   - one physical memory pool: every session's §5.1.1 process set is
//     resident in a shared vm.Manager, and when the population overcommits
//     physical memory the global clock evicts working sets, so the next
//     interaction pays page-in latency (the §5.2 pathology, now emerging
//     from load rather than staged);
//   - one shared network link carrying every session's protocol traffic,
//     so display bytes queue behind other users' display bytes exactly as
//     on the paper's 10 Mbps segment. Each session's connection is one
//     in-order stream on it, as a TCP connection is: when the full link
//     queue refuses a packet, the session's later messages wait behind it
//     and are re-offered after a backoff, so congestion delays a message
//     but never loses or reorders it, and the codecs' caches on the two
//     ends stay in step.
//
// The population is dynamic: Config.Sessions is an explicit plan of
// login/logout episodes (schedule.Session). Sessions present from time
// zero are the static population every earlier experiment measured; a
// session that arrives mid-run pays its protocol's session-setup bytes on
// the contended link (tab4's handshake costs) and its login page-ins on
// the shared memory before its first echo counts, and a session that
// departs frees its memory and retires its threads, so the survivors'
// eviction pressure relaxes. A plan is compiled from an arrival profile
// (schedule.Compile: login storms, lunch dips, shift changes, or
// schedule.Flat's memoryless churn with immediate replacement) or written
// by the fleet walk, which routes arrivals and failover re-logins across
// machines.
//
// Each user runs the paper's echo probe: key-repeat input events flow
// client → link → server, wake the session's application thread, which
// hands the drawn echo to a display-encoder thread, whose output is
// encoded by a real protocol codec and transmitted back over the shared
// link. User-perceived latency is the full path: input transmission, CPU
// queueing (inflated by page-in cost under memory pressure), encode
// queueing, and display transmission. Each seat logs one 8-byte entry per
// interaction: its submit instant while it is in flight, its round trip
// once its echo lands, with a run-length list naming the timeline slice
// each echo landed in. When the run ends, Run stores each sample once,
// grouped by timeline slice and sorted (Samples), and reads every
// percentile from those sorted slices.
//
// Everything derives from Config.Seed via simclock.DeriveSeed, so a run is
// bit-for-bit reproducible; Sweep fans server instances out across the
// farm without breaking that guarantee.
//
// A server runs once. A Pool builds the next machine inside a finished
// one's storage: its engine, the CPU's work-item pool, the link's FIFO,
// the frame table, the per-seat arrays, and the parked session records
// with their page tables, threads and codec pairs. A caller that runs
// machine after machine — a fleet run's machines and placement probes, a
// capacity search, a sweep — so allocates its substrate once per machine
// it holds at a time. A rebuilt machine runs exactly as a new one, since
// nothing a run reports depends on which slot, event or record it was
// handed.
package server

import (
	"cmp"
	"fmt"
	"slices"

	"thinbench/internal/display"
	"thinbench/internal/metrics"
	"thinbench/internal/netsim"
	"thinbench/internal/proto"
	"thinbench/internal/proto/protos"
	"thinbench/internal/sched"
	"thinbench/internal/schedule"
	"thinbench/internal/session"
	"thinbench/internal/simclock"
	"thinbench/internal/vm"
)

// Config describes one shared server and its user population.
type Config struct {
	// Users, without a Sessions plan, is the number of sessions present
	// for the whole run, at least one.
	Users int
	// Protocol selects the remote display protocol ("rdp", "x", "lbx",
	// "vnc", "slim"). The empty string or "model" selects the size-model
	// codec: fixed-size messages (modelInputBytes, modelEchoBytes) with no
	// per-user codec state, the frugal choice for large capacity searches.
	Protocol string
	// Scheduler selects the CPU policy: "rr", "nt", or "svr4ia".
	Scheduler string

	// Sessions, when non-nil, is an explicit session plan and overrides
	// Users: an arrival profile compiled over its seats
	// (schedule.Compile), or the plan the fleet walk writes for one
	// machine. Entries that would log in at or after Span, and empty
	// intervals (a logout at or before the login), are dropped; a
	// negative login means present from the start.
	Sessions []schedule.Session

	// PhysicalKB sizes the machine's physical memory, which must hold at
	// least one page for sessions beyond the SystemKB system baseline.
	PhysicalKB int
	// Link is the shared segment all sessions' traffic crosses.
	Link netsim.LinkConfig

	// Manifest is one session's process set (§5.1.1): the login's
	// processes and the application's, in the order a login pages them
	// in. Its largest process is the working set each interaction
	// touches, so it must hold at least one page.
	Manifest session.Manifest

	// InteractionsPerSec is each user's input rate (the paper's repeat
	// probe runs at 20 Hz).
	InteractionsPerSec float64
	// EchoCPU and EncodeCPU are the per-interaction costs on the
	// application and display-encoder threads.
	EchoCPU   simclock.Duration
	EncodeCPU simclock.Duration
	// BackgroundCPUFrac is per-user non-interactive CPU demand
	// (compilations, macros) as a fraction of one CPU.
	BackgroundCPUFrac float64
	// BackgroundBitsPerSec is per-user steady display-channel traffic
	// beyond the echo (animations, tickers), offered to the shared link.
	BackgroundBitsPerSec float64

	// TierPlan, when non-empty, schedules machine-wide degradation-tier
	// changes (see DegradeTiers): the load shedder's decisions, compiled
	// by the fleet control walk. Entries must be in time order with tiers
	// on the ladder. Empty means full quality throughout — the exact
	// behavior of a build without degradation.
	TierPlan []TierChange

	// Span is the measurement window; Seed roots all randomness.
	Span simclock.Duration
	Seed uint64
}

// DefaultConfig is a testbed-class shared server: 64 MB of memory behind
// an 18 MB system baseline, a 10 Mbps shared segment, round-robin
// scheduling, and Linux-login sessions running a 2.8 MB application with
// the 20 Hz repeat probe.
func DefaultConfig() Config {
	return Config{
		Users:              1,
		Protocol:           "rdp",
		Scheduler:          "rr",
		PhysicalKB:         64 * 1024,
		Link:               netsim.DefaultLinkConfig(),
		Manifest:           session.LinuxManifest(session.ProcessSpec{Name: "app", PrivateKB: 2800}),
		InteractionsPerSec: 20,
		EchoCPU:            simclock.Millisecond,
		EncodeCPU:          EncodeCPU,
		BackgroundCPUFrac:  0.02,
		// An animated banner's worth of ambient display traffic per user,
		// so the shared link sees real load as the population grows.
		BackgroundBitsPerSec: 250_000,
		Span:                 10 * simclock.Second,
		Seed:                 1,
	}
}

// The testbed's machine constants.
const (
	// SystemKB is the pinned system baseline unavailable to sessions
	// (§5.1.1's idle kernel and service load), the same on every machine.
	// It is the memory manager's reservation (vm.Config.SystemKB): resident
	// from the start, whole pages, and counted in Result.ResidentKB.
	SystemKB = 18 * 1024
	// EncodeCPU is the display encoder's cost per interaction,
	// DefaultConfig's and every capacity probe's, before a fleet scales
	// it by a machine's speed.
	EncodeCPU = 1500 * simclock.Microsecond
)

// Per-session costs every server shares.
const (
	// The model codec's messages: a keystroke's input event, the drawn
	// echo, and the session-setup handshake every mid-run arrival pays on
	// the contended link, an X handshake's worth (real protocols pay their
	// own SetupBytes, tab4's 642 bytes to 45 KB).
	modelInputBytes = 64
	modelEchoBytes  = 200
	modelSetupBytes = 16 * 1024
	// loginCPU is the compute an arrival burns creating its §5.1.1
	// process set (spawn, shell init, profile load), charged on the
	// application thread after its page-ins, so a login storm steals CPU
	// from everyone already logged in. Sessions present from time zero
	// never pay it.
	loginCPU = 250 * simclock.Millisecond
	// workingSetKB is how much of the application each interaction
	// touches: a rotating window, so evicted pages fault back in.
	workingSetKB = 64
)

// NewPolicy builds the named scheduling policy.
func NewPolicy(name string) (*sched.Policy, error) {
	switch name {
	case "nt":
		return sched.NewNT(1), nil
	case "svr4ia":
		return sched.NewSVR4IA(), nil
	case "rr", "":
		return sched.NewRR(), nil
	default:
		return nil, fmt.Errorf("server: unknown scheduler %q", name)
	}
}

// DrainSpan is the tail Run allows after the measurement window so
// in-flight echoes can land; a censored interaction's age can reach
// Span + DrainSpan, which is what span-sized histogram bucketing covers.
const DrainSpan = 2 * simclock.Second

// TimelineSlice is the width of one Result.P95TimelineMs bucket: echo
// samples are grouped by completion time into one-second slices, so
// transients — an arrival storm, a departure wave, a failover re-login
// burst — show up at the second they happen instead of dissolving into
// the whole-run percentile.
const TimelineSlice = simclock.Second

// TimelineSlices reports the timeline length for a measurement window:
// one slice per TimelineSlice across the span and the drain tail.
func TimelineSlices(span simclock.Duration) int {
	n := int((span + DrainSpan + TimelineSlice - 1) / TimelineSlice)
	if n < 1 {
		n = 1
	}
	return n
}

// resendBackoff is how long a session's stream waits to re-offer its
// backlog after the full link queue refused one of its packets.
const resendBackoff = 20 * simclock.Millisecond

// Result is the measured impact of the population on one shared server.
// Every field is a scalar or a slice of scalars, so results compare with
// reflect.DeepEqual in determinism tests and serialize directly for the
// bench trajectory.
type Result struct {
	// Users counts the sessions present from time zero; Arrivals and
	// Departures count mid-run logins and logouts, and PeakUsers is the
	// largest concurrent population the machine actually held.
	Users      int    `json:"users"`
	Arrivals   int    `json:"arrivals"`
	Departures int    `json:"departures"`
	PeakUsers  int    `json:"peak_users"`
	Protocol   string `json:"protocol"`
	Scheduler  string `json:"scheduler"`

	// Echo latency: input event to echoed display update delivered at the
	// client, over every user's every interaction. Interactions still
	// unanswered when the run ends (overload backlogs) are
	// right-censored: they contribute a sample equal to
	// their age at run end — or at their session's logout, for a user who
	// left with echoes in flight — a lower bound on what the user
	// experienced, so saturation cannot masquerade as low latency.
	EchoSamples int64   `json:"echo_samples"`
	EchoMeanMs  float64 `json:"echo_mean_ms"`
	EchoP50Ms   float64 `json:"echo_p50_ms"`
	EchoP95Ms   float64 `json:"echo_p95_ms"`
	EchoMaxMs   float64 `json:"echo_max_ms"`
	// P95TimelineMs is the p95 echo latency of samples landing in each
	// TimelineSlice-wide slice of the run (0 for a slice with no
	// samples), the view that makes churn and failover transients
	// visible. Its length is TimelineSlices(Span).
	P95TimelineMs []float64 `json:"p95_timeline_ms"`
	// Interactions counts submitted probe events; Censored counts the
	// ones that never completed and entered as right-censored samples.
	Interactions int64 `json:"interactions"`
	Censored     int64 `json:"censored"`
	// LoginMaxMs is the slowest admission (planned login instant to first
	// keystroke possible): completed logins contribute their duration,
	// and an admission still incomplete at run end (or at its session's
	// logout) contributes its age — the login-screen wait. 0 when no
	// session arrived mid-run.
	LoginMaxMs float64 `json:"login_max_ms"`

	CPUUtilization  float64 `json:"cpu_utilization"`
	LinkUtilization float64 `json:"link_utilization"`
	// LinkDrops counts packets the full link queue refused. A refused
	// session packet is re-offered from its stream's backlog, so it is
	// delayed, not lost; a refused ambient-traffic packet is not re-offered.
	LinkDrops int64 `json:"link_drops"`

	CommittedKB      int     `json:"committed_kb"`
	ResidentKB       int     `json:"resident_kb"`
	FaultsAfterLogin int64   `json:"faults_after_login"`
	PageInMs         float64 `json:"page_in_ms"`
	Paging           bool    `json:"paging"`

	// SimEvents counts discrete-event dispatches the run consumed — the
	// simulator's own work metric, and the denominator of the speed
	// layer's events-per-second and allocations-per-event numbers.
	SimEvents uint64 `json:"sim_events"`

	// SheddedFrames counts probe keystrokes the load shedder dropped
	// before they entered the pipeline (see DegradeTiers). Zero — and
	// omitted from JSON — unless the run carried a TierPlan.
	SheddedFrames int64 `json:"shedded_frames,omitempty"`
}

// Server is one composed shared machine ready to run.
type Server struct {
	cfg  Config
	plan []schedule.Session
	// nextIdle links a server waiting in a Pool to the one given back
	// before it.
	nextIdle *Server

	eng  *simclock.Engine
	cpu  *sched.CPU
	mem  *vm.Manager
	link *netsim.Link
	// states holds every plan entry's session state, by seat index.
	states []userState

	// Struct-of-arrays hot session state, indexed by seat (userState.idx).
	// active is true while the seat is logged in; every pipeline stage
	// checks it so a departed user's in-flight callbacks fall dead instead
	// of submitting work to retired threads. logs holds each seat's
	// interactions (see echoLog); Run turns them into latency samples once,
	// at the end (see layoutSamples). backlog is the seat's stream: the
	// messages waiting, in order, behind one the full link refused (see
	// send).
	active  []bool
	wsOff   []int // rotating working-set offset, KB
	col     []int // echo caret position
	logs    []echoLog
	backlog [][]message

	// echoOps pools in-flight interaction transfers; opFree indexes the
	// recycled ones. The *Fn fields are callbacks bound once at
	// construction so the per-keystroke path never allocates a closure.
	echoOps       []*echoOp
	opFree        []int
	opDeliveredFn simclock.Func
	echoDoneFn    simclock.Func
	encodeDoneFn  simclock.Func
	modelInputFn  simclock.Func
	modelEchoFn   simclock.Func
	// Lifecycle callbacks, bound once like the echo-path ones: arrivals,
	// departures, stream re-offers, login page-ins, typing keystrokes, and
	// the two background tickers all fire through engine events or link
	// deliveries carrying the seat index, so session churn schedules no
	// per-event closures.
	admitFn       simclock.Func
	departFn      simclock.Func
	resendFn      simclock.Func
	finishLoginFn simclock.Func
	pagedInFn     simclock.Func
	loginDoneFn   simclock.Func
	keystrokeFn   simclock.Func
	bgTickFn      simclock.Func
	trafficTickFn simclock.Func
	setTierFn     simclock.Func
	atSpanFn      simclock.Func

	// keyPeriod is the typing probe's keystroke period, 1/InteractionsPerSec
	// in whole microseconds, worked out once per machine.
	keyPeriod simclock.Duration

	// tier is the machine's current degradation tier (see DegradeTiers);
	// keyCount is the per-seat shed counter, allocated only when the run
	// carries a TierPlan, and shedFrames counts the keystrokes dropped.
	tier       int
	keyCount   []int
	shedFrames int64

	// cur and peak track the concurrent logged-in population.
	cur, peak            int
	arrivals, departures int
	loginMaxMs           float64
	// busyAtSpan and bytesAtSpan are the CPU's busy time and the link's
	// delivered bytes at exactly the span boundary (see atSpan).
	busyAtSpan  simclock.Duration
	bytesAtSpan int64

	// sessionPool parks the records of sessions that have logged out
	// (LIFO), so a later login, at time zero or mid-run, is made without
	// building one. Reuse is seat-agnostic: every record is built from the
	// same manifest and protocol, thread identity is invisible to the
	// scheduler, and a parked codec pair is reset to pristine, so a
	// recycled record is behavior-identical to a new one. records counts
	// every record the server holds, live, parked or claimed by an arrival
	// in its handshake; Run checks that none went missing.
	sessionPool []*record
	records     int

	loginFaults int64
	// nSlices is the run's timeline length, TimelineSlices(Span), and
	// slices holds every echo-latency sample of the run grouped by the
	// slice it landed in, each slice sorted; Run lays them out once it
	// ends.
	nSlices int
	slices  [][]float64
	err     error
}

// echoLog is one seat's interactions, 8 bytes each. Every stage of a
// seat's pipeline is FIFO — its stream, the link, its application and
// encoder threads — so echoes land in submit order: the first landed
// entries have landed, and the rest are still in flight.
type echoLog struct {
	// at[k] is interaction k's submit instant, as an offset from time
	// zero, while it is in flight; record overwrites it with the round
	// trip when its echo lands.
	at     []simclock.Duration
	landed int
	// runs recovers each landed echo's TimelineSlice: the seat's landed
	// echoes, in submit order, fill runs[0].n entries in runs[0].slice,
	// then runs[1].n in runs[1].slice, and so on. Landing instants only
	// grow, so a seat adds one run per slice it lands echoes in.
	runs []landRun
}

// landRun is n consecutive landed echoes of one seat in one
// TimelineSlice.
type landRun struct{ slice, n int }

// record is one session's footprint on the machine, built whole by
// newRecord and carried from login to login after that:
//
//   - procs are the manifest's processes (§5.1.1), registered with the
//     memory manager and resident only while logged in;
//   - ws is the working set, the largest process, which every interaction
//     touches (§5.2 pages it back in);
//   - app handles input, enc encodes display updates for the wire (the X
//     server or TSE display driver role), and bg runs non-interactive
//     work, all three in service only while logged in;
//   - psrv and pcli are the codec pair, nil for the model protocol, reset
//     to pristine whenever the record is parked, so a reused pair's wire
//     bytes cannot differ from a new one's.
type record struct {
	procs        []*vm.Process
	ws           *vm.Process
	app, enc, bg *sched.Thread
	psrv         proto.Server
	pcli         proto.Client
}

// userState is one session's private wiring on the shared substrates. The
// fields the steady-state echo loop touches on every interaction live in
// the Server's struct-of-arrays slices (active, wsOff, col, logs,
// backlog), indexed by idx, so the hot path walks dense arrays instead
// of chasing per-user pointers; userState keeps the cold lifecycle state.
type userState struct {
	// rec is the record the seat holds from its claim until it is parked
	// again, nil otherwise.
	rec *record
	idx int
	lc  schedule.Session
	rng simclock.Rand
	// loginDone marks that the arrival's whole admission — handshake,
	// page-ins, process creation — finished and typing began; an arrival
	// that never gets there spent its time staring at the login screen,
	// which Run counts as one censored interaction aged from the planned
	// login instant. goneAt is the logout instant, 0 while logged in; a
	// logout that fires mid-handshake kills the connection, and the login
	// never completes. handshake is true from admit until the handshake
	// lands (finishLogin): the arrival holds a record but is not yet
	// logged in.
	loginDone bool
	handshake bool
	goneAt    simclock.Time

	pageIn simclock.Duration
	// keys is the typing probe's run: the sequence numbers start reserved
	// for the session's keystrokes, one per keystroke still to be queued.
	keys simclock.Run

	// tape is the reused pointer-free op stream for echo updates, which
	// keeps sendEcho from allocating anything per interaction. Protocol
	// encoders consume the tape synchronously, never retaining it, so
	// reuse is safe, and a seat keeps it when a Pool rebuilds the server.
	tape display.OpTape
}

// keyEvents and caretGlyphs are the typing probe's tables, indexed by a
// seat's index modulo 26: a seat types keyEvents' one-event batch, boxed
// once for every machine so the per-keystroke path hands the encoder a
// ready slice, and its echo draws caretGlyphs' letter.
var keyEvents, caretGlyphs = probeTables()

func probeTables() (keys [26][1]display.InputEvent, glyphs [26]string) {
	for i := range keys {
		keys[i][0], glyphs[i] = display.KeyEvent{Down: true, Code: uint16(30 + i)}, string(rune('a'+i))
	}
	return keys, glyphs
}

// echoOp is one in-flight interaction transfer: the encoded messages of a
// keystroke (input) or its echo update (display), plus the scratch arena
// they were encoded into. Ops are pooled on the Server and addressed by
// index, so link-delivery callbacks are one shared method value carrying
// (op id, message index) instead of a fresh closure per message; the op —
// and with it the scratch the payloads alias — is recycled when its last
// message lands, which the in-order stream lands after all the others.
type echoOp struct {
	sc    proto.Scratch
	msgs  []proto.Message
	user  int  // seat index into Server.states
	idx   int  // interaction index into Server.logs[user].at
	input bool // input-channel op (decode+serve) vs display op (apply+record)
}

// message is one message waiting in a seat's stream backlog: the payload
// bytes not yet on the link and the delivery callback, with its two
// arguments, that the message's last packet carries.
type message struct {
	bytes int
	fn    simclock.Func
	a, b  int
}

// New composes a shared server from the configuration. It fails on a
// machine it cannot build (see validate) or an unknown scheduler rather
// than at run time. Sessions planned to be present from time zero are
// logged in here; later arrivals are admitted by Run as the clock reaches
// them.
func New(cfg Config) (*Server, error) { return newFrom(nil, cfg) }

// newFrom builds the server New(cfg) builds, but inside the storage of
// prev, a server whose Run has returned; a nil prev builds from nothing.
// The result is behavior-identical to New(cfg)'s, Result and Samples
// alike: storage is reused, never state. Pool.New passes the server
// given back to it last.
//
//   - prev's session records carry over when cfg's Manifest and Protocol
//     equal prev's. Every record prev still holds is parked first, as a
//     departure parks it: logged out and its codec pair reset. The memory
//     manager keeps their processes registered, all non-resident, and
//     every login takes a parked record before building one. Otherwise
//     the records and the manager are both built anew.
//   - The engine, the CPU's work-item pool, the link's delivery FIFO, the
//     frame table, the session plan and the per-seat arrays keep their
//     storage, and so does the CPU's scheduling policy when cfg names
//     prev's scheduler.
//   - What Run handed out is never reused: the Result and the storage
//     behind Samples stay the caller's.
//
// prev is consumed: whatever newFrom returns, prev is not used again
// except as the server it returns.
func newFrom(prev *Server, cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// prev's policy serves again when prev ran the same scheduler; the
	// CPU's Reset empties it.
	var policy *sched.Policy
	if prev != nil && prev.cpu.Policy().Name() == cmp.Or(cfg.Scheduler, "rr") {
		policy = prev.cpu.Policy()
	} else {
		var err error
		if policy, err = NewPolicy(cfg.Scheduler); err != nil {
			return nil, err
		}
	}
	if len(cfg.TierPlan) > 0 {
		if err := validateTierPlan(cfg.TierPlan); err != nil {
			return nil, err
		}
	}
	// prev's records carry over only to the same protocol and the same
	// session manifest.
	carry := prev != nil && prev.cfg.Protocol == cfg.Protocol && sameManifest(prev.cfg.Manifest, cfg.Manifest)
	s := prev
	if s == nil {
		s = &Server{eng: simclock.NewEngine()}
		s.cpu = sched.NewCPU(s.eng, policy)
		s.link = netsim.NewLink(s.eng, cfg.Link)
		s.bind()
	} else {
		s.harvest()
		s.eng.Reset()
		s.cpu.Reset(policy)
		s.link.Reset(cfg.Link)
	}
	if carry {
		s.mem.Renew(vmConfig(cfg))
		s.records = len(s.sessionPool)
	} else {
		clear(s.sessionPool)
		s.sessionPool = s.sessionPool[:0]
		s.records = 0
		s.mem = vm.New(vmConfig(cfg))
	}
	s.cfg, s.plan = cfg, cfg.plan(s.plan)
	s.keyPeriod = simclock.Duration(1e6 / cfg.InteractionsPerSec)
	s.tier, s.shedFrames = 0, 0
	s.cur, s.peak, s.arrivals, s.departures, s.loginMaxMs = 0, 0, 0, 0, 0
	s.busyAtSpan, s.bytesAtSpan = 0, 0
	s.slices, s.err = nil, nil
	s.nSlices = TimelineSlices(cfg.Span)

	// One backing array holds every session's record: plans compiled from
	// a day-long schedule run to thousands of entries per machine, and a
	// struct per entry was a measurable slice of the simulator's total
	// allocations.
	n := len(s.plan)
	s.states = regrow(s.states, n, func(u *userState) { *u = userState{tape: u.tape} })
	for i, lc := range s.plan {
		// Seat numbers are 1-based so the zero value means "unset"; the
		// stream they name is the 0-based seat, which makes a generated
		// churn plan's initial sessions (seats 1..N, streams 0..N-1)
		// share their random streams with the static plan's sessions
		// (plan indices 0..N-1) — common random numbers between a static
		// run and the same population under churn.
		stream := uint64(i)
		if lc.Seat > 0 {
			stream = uint64(lc.Seat - 1)
		}
		u := &s.states[i]
		u.idx = i
		u.lc = lc
		u.rng = simclock.SeededRand(simclock.DeriveSeed(cfg.Seed, stream))
	}
	s.active = reuse(s.active, n)
	s.wsOff = reuse(s.wsOff, n)
	s.col = reuse(s.col, n)
	s.logs = regrow(s.logs, n, func(lg *echoLog) {
		*lg = echoLog{at: lg.at[:0], runs: lg.runs[:0]}
	})
	s.backlog = regrow(s.backlog, n, func(q *[]message) { *q = (*q)[:0] })
	s.opFree = s.opFree[:0]
	for id, op := range s.echoOps {
		op.msgs = nil
		s.opFree = append(s.opFree, id)
	}
	if len(cfg.TierPlan) > 0 {
		s.keyCount = reuse(s.keyCount, n)
	}
	for i := range s.states {
		if u := &s.states[i]; u.lc.Login == 0 {
			s.claim(u)
			s.login(u)
		}
	}
	s.loginFaults = s.mem.Stats().Faults
	return s, nil
}

// bind binds the callbacks a server's events carry, once per server, so
// neither a run nor a rebuild allocates a method value.
func (s *Server) bind() {
	s.opDeliveredFn = s.opDelivered
	s.echoDoneFn = s.echoDone
	s.encodeDoneFn = s.encodeDone
	s.modelInputFn = s.modelInput
	s.modelEchoFn = s.modelEcho
	s.admitFn = s.admitAt
	s.departFn = s.departAt
	s.resendFn = s.resend
	s.finishLoginFn = s.finishLoginAt
	s.pagedInFn = s.pagedIn
	s.loginDoneFn = s.loginDone
	s.keystrokeFn = s.keystrokeAt
	s.bgTickFn = s.bgTick
	s.trafficTickFn = s.trafficTick
	s.setTierFn = s.setTierAt
	s.atSpanFn = s.atSpan
}

// reuse returns a holding n zero elements, in a's backing array when it
// has room.
func reuse[T any](a []T, n int) []T {
	if cap(a) < n {
		return make([]T, n)
	}
	a = a[:n]
	clear(a)
	return a
}

// regrow returns a holding n elements, each passed through renew, which
// zeroes an element but may keep the storage it points to. When a's
// backing array has no room, a larger one takes its elements over first,
// so their storage survives the growth.
func regrow[T any](a []T, n int, renew func(*T)) []T {
	if cap(a) < n {
		a = append(a[:cap(a)], make([]T, n-cap(a))...)
	}
	a = a[:n]
	for i := range a {
		renew(&a[i])
	}
	return a
}

// sameManifest reports whether two login manifests describe the same
// process set, so that one's parked records can log the other's sessions
// in.
func sameManifest(a, b session.Manifest) bool {
	return a.OS == b.OS && a.Variant == b.Variant && slices.Equal(a.Processes, b.Processes)
}

// harvest parks every session record s still holds, as depart parks a
// departing session's: a live session logs out, and an arrival's record
// claimed for a handshake that never landed goes back as it is. The pool
// is grown once, to hold every record.
func (s *Server) harvest() {
	s.sessionPool = slices.Grow(s.sessionPool, max(0, s.records-len(s.sessionPool)))
	for i := range s.states {
		u := &s.states[i]
		if s.active[i] {
			s.logout(u)
		} else if !u.handshake {
			continue
		}
		s.park(u)
	}
}

func realProtocol(p string) bool { return p != "" && p != "model" }

func vmConfig(cfg Config) vm.Config {
	c := vm.DefaultConfig()
	c.PhysicalKB = cfg.PhysicalKB
	c.SystemKB = SystemKB
	return c
}

// validate reports why the configuration describes a machine New cannot
// build or Run cannot drive: memory the manager refuses (no page, or a
// system baseline that leaves none for sessions), a protocol the registry
// does not name, a session manifest with no page of memory or a process
// of negative size, an input rate with no positive whole-microsecond
// period, a span that is not positive, or a link with no positive rate.
func (c Config) validate() error {
	if err := vmConfig(c).Validate(); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if realProtocol(c.Protocol) && !slices.Contains(protos.Names(), c.Protocol) {
		return fmt.Errorf("server: unknown protocol %q", c.Protocol)
	}
	if man := c.Manifest.Processes; c.Manifest.TotalKB() <= 0 || slices.ContainsFunc(man, func(p session.ProcessSpec) bool { return p.PrivateKB < 0 }) {
		return fmt.Errorf("server: session manifest %v holds no memory or a process of negative size", man)
	}
	if r := c.InteractionsPerSec; !(r > 0) || simclock.Duration(1e6/r) < 1 {
		return fmt.Errorf("server: input rate %v per second has no positive whole-microsecond period", r)
	}
	if c.Span <= 0 {
		return fmt.Errorf("server: span %v is not positive", c.Span)
	}
	if r := c.Link.RateMbps; !(r > 0) {
		return fmt.Errorf("server: link rate %v Mbps is not positive", r)
	}
	return nil
}

// claim gives u a session record to log in with: the last one parked, or
// a new one.
func (s *Server) claim(u *userState) {
	if n := len(s.sessionPool); n > 0 {
		u.rec = s.sessionPool[n-1]
		s.sessionPool[n-1] = nil
		s.sessionPool = s.sessionPool[:n-1]
		return
	}
	u.rec = s.newRecord()
}

// The session threads' base priorities, which the NT policy queues by:
// input handling above display encoding, both above background work.
const appPri, encPri, bgPri = 9, 8, 4

// newRecord builds a session record whole, the one place a record is
// made: the manifest's processes registered non-resident in manifest
// order, the three threads, and the codec pair.
func (s *Server) newRecord() *record {
	man := s.cfg.Manifest.Processes
	r := &record{
		procs: make([]*vm.Process, len(man)),
		app:   s.cpu.NewThread(appPri),
		enc:   s.cpu.NewThread(encPri),
		bg:    s.cpu.NewThread(bgPri),
	}
	for i, spec := range man {
		p := s.mem.NewProcess(spec.Name, spec.PrivateKB)
		p.Interactive = true
		r.procs[i] = p
		if r.ws == nil || p.Pages() > r.ws.Pages() {
			r.ws = p
		}
	}
	if realProtocol(s.cfg.Protocol) {
		psrv, pcli, _, err := protos.New(s.cfg.Protocol)
		if err != nil {
			panic(err) // validate admits only the registry's names
		}
		r.psrv, r.pcli = psrv, pcli
	}
	s.records++
	return r
}

// login logs u's session in with the record it claimed, at time zero and
// mid-run alike: each process becomes resident in manifest order (the
// login page-ins), and the threads return to service as if new, the
// application thread GUI-boosted and both pipeline threads in the SVR4
// interactive class whatever the policy. The caller pays any latency
// cost; login only moves state.
func (s *Server) login(u *userState) {
	r := u.rec
	for _, p := range r.procs {
		s.mem.TouchAll(p)
	}
	s.cpu.ReuseThread(r.app, appPri)
	s.cpu.ReuseThread(r.enc, encPri)
	s.cpu.ReuseThread(r.bg, bgPri)
	r.app.GUIBoost = true
	r.app.Interactive, r.enc.Interactive = true, true
	s.active[u.idx] = true
	s.cur++
	s.peak = max(s.peak, s.cur)
}

// logout logs u's session out, the inverse of login: its background,
// application and encoder threads retire, in that order, their queued
// work dropped, and then every process releases its memory, so the
// survivors' eviction pressure relaxes at this instant. The record stays
// the seat's until park.
func (s *Server) logout(u *userState) {
	r := u.rec
	s.active[u.idx] = false
	s.cur--
	s.cpu.Retire(r.bg)
	s.cpu.Retire(r.app)
	s.cpu.Retire(r.enc)
	for _, p := range r.procs {
		s.mem.EvictAll(p)
	}
}

// park puts the record u holds back in the pool for a later login, its
// codec pair reset to pristine. The seat lets go of it; every later
// callback of a departed seat checks active and falls dead before
// reaching for it.
func (s *Server) park(u *userState) {
	if r := u.rec; r.psrv != nil {
		r.psrv.ResetSession()
		r.pcli.ResetSession()
	}
	s.sessionPool = append(s.sessionPool, u.rec)
	u.rec = nil
}

// Run drives every session through its lifecycle and reports the
// population's measured impact. The same configuration always produces an
// identical Result.
func (s *Server) Run() (Result, error) {
	cfg := s.cfg
	for i := range s.states {
		u := &s.states[i]
		if u.lc.Login == 0 {
			// Present from the start: no setup, exactly the static model.
			s.start(u, 0)
		} else {
			s.eng.At(u.lc.Login, s.admitFn, u.idx, 0)
		}
		if u.lc.Logout > 0 {
			s.eng.At(u.lc.Logout, s.departFn, u.idx, 0)
		}
	}
	// The shedder's tier changes, scheduled after every lifecycle event so
	// a tier change at an arrival's instant sequences after the arrival.
	for _, tc := range cfg.TierPlan {
		s.eng.At(tc.At, s.setTierFn, tc.Tier, 0)
	}

	// Capture utilization at exactly the span boundary, then let
	// in-flight echoes land during a short drain tail.
	s.eng.At(simclock.Time(cfg.Span), s.atSpanFn, 0, 0)
	s.eng.RunUntil(simclock.Time(cfg.Span))
	s.eng.RunFor(DrainSpan)
	if s.err != nil {
		return Result{}, s.err
	}
	// Memory comes back on logout: every session record is live, parked,
	// or held by an arrival whose handshake has not landed.
	held := len(s.sessionPool)
	for i := range s.states {
		if s.active[i] || s.states[i].handshake {
			held++
		}
	}
	if held != s.records {
		return Result{}, fmt.Errorf("server: %d session records built, but %d live, parked or in a handshake", s.records, held)
	}

	res := Result{
		Users:      initialUsers(s.plan),
		Arrivals:   s.arrivals,
		Departures: s.departures,
		PeakUsers:  s.peak,
		Protocol:   protocolName(cfg.Protocol),
		Scheduler:  s.cpu.Policy().Name(),

		CPUUtilization:  float64(s.busyAtSpan) / float64(cfg.Span),
		LinkUtilization: float64(s.bytesAtSpan*8) / (cfg.Link.RateMbps * 1e6 * cfg.Span.Seconds()),
		LinkDrops:       s.link.Drops(),

		CommittedKB:      SystemKB + s.peak*cfg.Manifest.TotalKB(),
		ResidentKB:       (s.mem.TotalPages() - s.mem.FreePages()) * vm.PageKB,
		FaultsAfterLogin: s.mem.Stats().Faults - s.loginFaults,
	}
	s.layoutSamples(&res)
	for i := range s.states {
		res.PageInMs += s.states[i].pageIn.Milliseconds()
	}
	res.LoginMaxMs = s.loginMaxMs
	res.SheddedFrames = s.shedFrames
	res.Paging = res.FaultsAfterLogin > 0
	res.EchoP50Ms = metrics.MergedPercentile(s.slices, 50)
	res.EchoP95Ms = metrics.MergedPercentile(s.slices, 95)
	res.EchoMaxMs = metrics.MergedPercentile(s.slices, 100)
	res.P95TimelineMs = make([]float64, len(s.slices))
	for i, sl := range s.slices {
		res.P95TimelineMs[i] = metrics.Percentile(sl, 95)
	}
	res.SimEvents = s.eng.Fired()
	return res, nil
}

// atSpan records the CPU's busy time and the link's delivered bytes at
// exactly the span boundary, which utilization divides by the span.
func (s *Server) atSpan(simclock.Time, int, int) {
	s.busyAtSpan = s.cpu.BusyTotal()
	s.bytesAtSpan = s.link.SentBytes()
}

// layoutSamples turns the run's interactions into echo-latency samples
// and stores each once, in one exact-size array grouped by the
// TimelineSlice each sample lands in (s.slices), each slice sorted. One
// counting pass sizes the array and places each slice; a second fills it
// seat by seat — a seat's landed echoes in submit order, then its
// interactions still in flight, then its login-screen wait — and sums
// EchoMeanMs in that order.
//
// A landed echo's sample is its round trip, in the slice of its landing
// instant (an instant past the last slice clamps to the last), which its
// seat's runs name. An
// interaction still in flight is right-censored at its seat's end — run
// end, or logout for a session that left with echoes pending (a killed
// machine's users at the kill instant) — and contributes its age there,
// a lower bound on what its user saw. An arrival whose admission never
// completed — handshake stuck behind the link, login starved on a
// saturated CPU — waited at the login screen the whole time. That is the
// worst latency there is, so it enters as one censored interaction aged
// from the planned login; otherwise a machine too overloaded to even
// admit its arrivals would read as lightly loaded.
func (s *Server) layoutSamples(res *Result) {
	nSlices := s.nSlices
	end := s.eng.Now()
	seatEnd := func(u *userState) simclock.Time {
		if u.goneAt > 0 {
			return u.goneAt
		}
		return end
	}
	waited := func(u *userState) bool { return u.lc.Login > 0 && !u.loginDone }

	// next[i] starts as slice i's sample count and becomes, by prefix
	// sum, the position slice i's next sample fills.
	next := make([]int, nSlices+1)
	for i := range s.states {
		u := &s.states[i]
		lg := &s.logs[i]
		for _, r := range lg.runs {
			next[r.slice+1] += r.n
		}
		censored := len(lg.at) - lg.landed
		if waited(u) {
			censored++
		}
		next[s.sliceOf(seatEnd(u))+1] += censored
	}
	for i := 1; i <= nSlices; i++ {
		next[i] += next[i-1]
	}
	flat := make([]float64, next[nSlices])
	s.slices = make([][]float64, nSlices)
	for i := range s.slices {
		s.slices[i] = flat[next[i]:next[i+1]]
	}
	var sum float64
	add := func(ms float64, i int) {
		sum += ms
		flat[next[i]] = ms
		next[i]++
	}
	for i := range s.states {
		u := &s.states[i]
		lg := &s.logs[i]
		landed := lg.at[:lg.landed]
		for _, r := range lg.runs {
			for _, rt := range landed[:r.n] {
				add(rt.Milliseconds(), r.slice)
			}
			landed = landed[r.n:]
		}
		uend := seatEnd(u)
		for _, at := range lg.at[lg.landed:] {
			add(uend.Sub(simclock.Time(at)).Milliseconds(), s.sliceOf(uend))
			res.Censored++
		}
		if waited(u) {
			ms := uend.Sub(u.lc.Login).Milliseconds()
			add(ms, s.sliceOf(uend))
			res.Interactions++
			res.Censored++
			if ms > s.loginMaxMs {
				s.loginMaxMs = ms
			}
		}
		res.Interactions += int64(len(lg.at))
	}
	for _, sl := range s.slices {
		slices.Sort(sl)
	}
	res.EchoSamples = int64(len(flat))
	if len(flat) > 0 {
		res.EchoMeanMs = sum / float64(len(flat))
	}
}

// sliceOf is the TimelineSlice holding instant t; an instant past the
// last slice clamps to the last.
func (s *Server) sliceOf(t simclock.Time) int {
	return max(min(int(simclock.Duration(t)/TimelineSlice), s.nSlices-1), 0)
}

// start begins a logged-in session's interactive life at now: the typing
// probe until its logout (or the span), plus its background CPU and
// display-traffic load.
func (s *Server) start(u *userState, now simclock.Time) {
	if !s.active[u.idx] {
		return // logged out while the login work was still queued
	}
	u.loginDone = true
	if u.lc.Login > 0 {
		if ms := now.Sub(u.lc.Login).Milliseconds(); ms > s.loginMaxMs {
			s.loginMaxMs = ms
		}
	}
	cfg := s.cfg
	period := s.keyPeriod
	// Stagger users by a seed-derived phase so the population doesn't
	// interact in lockstep bursts.
	phase := u.rng.UniformDuration(0, period)
	end := simclock.Time(cfg.Span)
	if u.lc.Logout > 0 && u.lc.Logout < end {
		end = u.lc.Logout
	}
	if typingSpan := end.Sub(now); typingSpan > 0 {
		// The typing probe's interaction count is known up front, and so
		// are the slices its echoes can land in: from now until the
		// seat's logout or the drain tail's end. Size the log and its
		// runs once instead of letting append reallocate them throughout
		// the run.
		expected := int(cfg.InteractionsPerSec*typingSpan.Seconds()) + 2
		lastLanding := simclock.Time(cfg.Span + DrainSpan)
		if u.lc.Logout > 0 && u.lc.Logout < lastLanding {
			lastLanding = u.lc.Logout
		}
		lg := &s.logs[u.idx]
		lg.at = slices.Grow(lg.at, expected)
		lg.runs = slices.Grow(lg.runs, s.sliceOf(lastLanding)-s.sliceOf(now)+1)
		// The probe is per-keystroke (no input coalescing, so every
		// interaction yields one latency sample) and every keystroke is
		// the seat's one key-repeat event, so the whole typing probe
		// reduces to a run of engine events a period apart:
		// workload.KeystrokeTimes' instants over the typing span, shifted
		// by the login instant plus the user's phase, without
		// materializing a trace. Each keystroke queues the next under the
		// run reserved here, so the probe holds one pending event, not
		// the span's thousands, and fires as if all were queued here.
		u.keys = s.eng.Reserve(int(typingSpan / period))
		if u.keys.Left() > 0 {
			s.eng.AtReserved(&u.keys, now.Add(phase+period), s.keystrokeFn, u.idx, 0)
		}
	}

	if cfg.BackgroundCPUFrac > 0 {
		bgPhase := u.rng.UniformDuration(0, 100*simclock.Millisecond)
		s.eng.At(now.Add(bgPhase), s.bgTickFn, u.idx, 0)
	}
	if cfg.BackgroundBitsPerSec > 0 {
		trPhase := u.rng.UniformDuration(0, 50*simclock.Millisecond)
		s.eng.At(now.Add(trPhase), s.trafficTickFn, u.idx, 0)
	}
}

// bgTick is one 100 ms slice of a session's background CPU load. The
// ticker self-reschedules until the seat logs out: a departed seat's last
// pending tick fires as a no-op and does not re-arm, exactly the event
// sequence the cancelled Every ticker produced.
func (s *Server) bgTick(now simclock.Time, a, _ int) {
	if !s.active[a] {
		return
	}
	it := s.cpu.Acquire()
	it.CPU = simclock.Duration(s.cfg.BackgroundCPUFrac * 100_000)
	s.cpu.Submit(s.states[a].rec.bg, it)
	s.eng.At(now.Add(100*simclock.Millisecond), s.bgTickFn, a, 0)
}

// trafficTick offers one 50 ms tick of steady display traffic
// (animations, tickers), packetized at the MTU; like bgTick it self-arms
// until the seat logs out. It is offered load with no content, callback
// or codec state, so it bypasses the seat's stream: a packet the full
// link refuses is simply gone.
func (s *Server) trafficTick(now simclock.Time, a, _ int) {
	if !s.active[a] {
		return
	}
	bits := s.cfg.BackgroundBitsPerSec
	if s.tier > 0 {
		bits *= DegradeTiers[s.tier].TrafficFrac
	}
	for rem := int(bits / 8 / 20); rem > 0; rem -= netsim.EthernetMTU {
		pkt := rem
		if pkt > netsim.EthernetMTU {
			pkt = netsim.EthernetMTU
		}
		s.link.Send(pkt+netsim.TCPIPHeaderBytes, nil, 0, 0)
	}
	s.eng.At(now.Add(50*simclock.Millisecond), s.trafficTickFn, a, 0)
}

// keystrokeAt is one keystroke of seat a's typing probe. It first queues
// the seat's next keystroke a period on, under the next number the probe
// reserved at start, so the probe fires every keystroke of its span
// whatever becomes of this one. The shedder drops a keystroke here — at
// fire time, against the tier in force now — rather than rescheduling
// anything, keeping the event sequence identical at every tier.
func (s *Server) keystrokeAt(now simclock.Time, a, _ int) {
	u := &s.states[a]
	if u.keys.Left() > 0 {
		s.eng.AtReserved(&u.keys, now.Add(s.keyPeriod), s.keystrokeFn, a, 0)
	}
	if s.shedKeystroke(a) {
		return
	}
	s.keystroke(u, now, keyEvents[a%26][:])
}

// admitAt and departAt adapt the lifecycle transitions to
// payload-carrying engine events; finishLoginAt and pagedIn are the
// link-delivery and page-in-complete forms, and loginDone chains the
// login's CPU work into start. Each is bound once at construction.
func (s *Server) admitAt(_ simclock.Time, a, _ int)    { s.admit(&s.states[a]) }
func (s *Server) departAt(now simclock.Time, a, _ int) { s.depart(&s.states[a], now) }
func (s *Server) finishLoginAt(now simclock.Time, a, _ int) {
	s.finishLogin(&s.states[a], now)
}
func (s *Server) loginDone(at simclock.Time, a, _ int) { s.start(&s.states[a], at) }

// admit begins a mid-run arrival: the session's protocol handshake
// crosses the contended link as the first message on its stream, then its
// login pages the manifest in, and only then does the typing probe start —
// an arrival on a loaded machine queues behind everyone else's traffic for
// its own setup.
func (s *Server) admit(u *userState) {
	s.claim(u)
	u.handshake = true
	setup := modelSetupBytes
	if u.rec.psrv != nil {
		setup = u.rec.psrv.SetupBytes()
	}
	s.send(u.idx, setup, s.finishLoginFn, u.idx, 0)
}

// send puts one message on seat's stream, the session's connection, which
// is in order and never loses a message, as TCP is. The message goes
// straight to the link when nothing waits ahead of it. Otherwise, or when
// the full link queue refuses one of its packets, it joins the seat's
// backlog, and everything the seat sends later queues behind it; the
// first refusal arms resend. fn fires with (a, b) when the message's last
// packet lands.
//
//thinlint:hotpath
func (s *Server) send(seat, bytes int, fn simclock.Func, a, b int) {
	m := message{bytes: bytes, fn: fn, a: a, b: b}
	q := s.backlog[seat]
	if len(q) == 0 {
		if s.offer(&m) {
			return
		}
		s.eng.At(s.eng.Now().Add(resendBackoff), s.resendFn, seat, 0)
	}
	s.backlog[seat] = append(q, m)
}

// offer puts what is left of m on the link as MTU-sized packets, each
// with its TCP/IP header and the last carrying m's callback, and reports
// whether all of it went out. When the link refuses a packet, m keeps the
// bytes not yet sent, so the next offer resumes at the refused packet.
//
//thinlint:hotpath
func (s *Server) offer(m *message) bool {
	for {
		pkt, fn := m.bytes, m.fn
		if pkt > netsim.EthernetMTU {
			pkt, fn = netsim.EthernetMTU, nil
		}
		if !s.link.Send(pkt+netsim.TCPIPHeaderBytes, fn, m.a, m.b) {
			return false
		}
		if m.bytes -= pkt; m.bytes <= 0 {
			return true
		}
	}
}

// resend re-offers seat's backlog in order, a resendBackoff after a
// refusal, until the link refuses a packet again, which re-arms it. A
// departed seat's backlog drains too, as its packets already on the link
// do; their callbacks find the seat gone and do nothing.
func (s *Server) resend(now simclock.Time, seat, _ int) {
	q := s.backlog[seat]
	n := 0
	for n < len(q) && s.offer(&q[n]) {
		n++
	}
	if n < len(q) {
		s.eng.At(now.Add(resendBackoff), s.resendFn, seat, 0)
	}
	s.backlog[seat] = q[:copy(q, q[n:])]
}

// finishLogin makes the arrival resident and pays its login page-ins
// before the first interaction. The full-manifest page-in is disk time,
// not compute: the arriving session blocks on the swap device while the
// CPU stays schedulable for everyone else — but on an overcommitted
// machine the login's TouchAll has already evicted survivors' working
// sets, so their next keystrokes pay real fault latency (the §5.2
// pathology, triggered by an arrival instead of a streaming job).
func (s *Server) finishLogin(u *userState, now simclock.Time) {
	u.handshake = false
	if u.goneAt > 0 {
		// The connection died mid-handshake; the record admit claimed goes
		// back to the pool.
		s.park(u)
		return
	}
	before := s.mem.Stats().Faults
	s.login(u)
	faults := s.mem.Stats().Faults - before
	s.loginFaults += faults
	s.arrivals++
	u.pageIn += s.mem.FaultCost(int(faults))
	s.eng.At(s.eng.Now().Add(s.mem.FaultCost(int(faults))), s.pagedInFn, u.idx, 0)
}

// pagedIn fires when an arrival's login page-ins complete and queues its
// process-creation compute. Process creation is compute, not I/O: the new
// session's spawn work queues on the shared CPU with everyone else's
// echoes.
func (s *Server) pagedIn(_ simclock.Time, a, _ int) {
	u := &s.states[a]
	if !s.active[a] {
		return // logged out while paging in
	}
	it := s.cpu.Acquire()
	it.CPU = loginCPU
	it.A = u.idx
	it.OnDone = s.loginDoneFn
	s.cpu.Submit(u.rec.app, it)
}

// depart logs a session out at its planned instant, which stops its
// recurring work, and parks its record. Interactions still in flight are
// censored at this time when the run ends.
func (s *Server) depart(u *userState, now simclock.Time) {
	if u.goneAt > 0 {
		return
	}
	u.goneAt = now
	if !s.active[u.idx] {
		return // still mid-handshake: finishLogin sees goneAt and stops
	}
	s.departures++
	s.logout(u)
	s.park(u)
}

// Samples returns every echo-latency sample Run collected (milliseconds,
// right-censored samples included), grouped by TimelineSlice, each slice
// sorted: one entry per Result.P95TimelineMs slot. Result keeps only
// scalar percentiles so it stays cheaply comparable; the sorted slices
// are the form a fleet layer merges into fleet-level percentiles
// (metrics.BucketPercentile), since percentiles of separate machines
// cannot be combined after the fact. Each Run lays them out in storage of
// their own, which a rebuild never reuses, so they outlive the server's
// return to a Pool; callers read them and must not modify them.
func (s *Server) Samples() [][]float64 {
	return s.slices
}

// EchoHistogram buckets every echo-latency sample Run collected
// (milliseconds, right-censored samples included) into a histogram with a
// nominal range of n buckets each widthMs wide, storing buckets only up
// to the largest sample. Histograms bucketed alike merge across servers
// (Histogram.Merge).
func (s *Server) EchoHistogram(widthMs float64, n int) *metrics.Histogram {
	return metrics.HistogramOf(s.slices, widthMs, n)
}

func protocolName(p string) string {
	if p == "" {
		return "model"
	}
	return p
}

// record lands one completed echo: its log entry becomes the round trip,
// from which Run takes the latency sample, and the seat's runs count it
// in the slice of its landing instant. An echo for a user who already
// departed falls dead — there is no client left to deliver to. The log
// keeps in-flight entries after landed ones only while echoes land in
// submit order, so an echo out of that order is an error.
func (s *Server) record(u *userState, idx int, now simclock.Time) {
	if !s.active[u.idx] {
		return
	}
	lg := &s.logs[u.idx]
	if idx != lg.landed {
		if s.err == nil {
			s.err = fmt.Errorf("server: user %d echo %d landed before echo %d", u.idx, idx, lg.landed)
		}
		return
	}
	lg.at[idx] = now.Sub(simclock.Time(lg.at[idx]))
	lg.landed++
	if i, n := s.sliceOf(now), len(lg.runs); n > 0 && lg.runs[n-1].slice == i {
		lg.runs[n-1].n++
	} else {
		lg.runs = append(lg.runs, landRun{slice: i, n: 1})
	}
}

// acquireOp checks an echoOp out of the pool, keeping its scratch arena.
//
//thinlint:hotpath
func (s *Server) acquireOp(user, idx int, input bool) (*echoOp, int) {
	var id int
	if n := len(s.opFree); n > 0 {
		id = s.opFree[n-1]
		s.opFree = s.opFree[:n-1]
	} else {
		s.echoOps = append(s.echoOps, &echoOp{}) //thinlint:allow hotpath.alloc pool growth: once per high-water-mark op, amortized to zero in steady state
		id = len(s.echoOps) - 1
	}
	op := s.echoOps[id]
	op.user, op.idx, op.input = user, idx, input
	return op, id
}

// releaseOp recycles an op, retaining its scratch so the next interaction
// encodes into already-owned memory.
//
//thinlint:hotpath
func (s *Server) releaseOp(id int) {
	op := s.echoOps[id]
	op.msgs = nil
	s.opFree = append(s.opFree, id)
}

// opDelivered is the shared link-delivery callback for every echoOp
// message: a is the op id, b the message index. It replaces the per-send
// closures the echo path used to allocate.
//
//thinlint:hotpath
func (s *Server) opDelivered(now simclock.Time, a, b int) {
	op := s.echoOps[a]
	u, m, idx := &s.states[op.user], op.msgs[b], op.idx
	last := b == len(op.msgs)-1
	if op.input {
		// Input ops carry a callback only on the final message: check the
		// round-trip (the decoded events themselves are discarded — the
		// interaction is already identified by the op), then run the
		// server side of the interaction. A departed session's codec may
		// already serve its successor, so only a live session validates.
		if s.active[op.user] {
			if _, err := u.rec.psrv.ValidateInput(m); err != nil && s.err == nil {
				s.err = fmt.Errorf("server: user %d input decode: %w", u.idx, err) //thinlint:allow hotpath first-error capture: runs at most once per simulation
			}
		}
		s.releaseOp(a)
		s.serveInput(u, idx)
		return
	}
	if s.active[op.user] {
		if err := u.rec.pcli.Apply(m); err != nil && s.err == nil {
			s.err = fmt.Errorf("server: user %d display apply: %w", u.idx, err) //thinlint:allow hotpath first-error capture: runs at most once per simulation
		}
		if last {
			s.record(u, idx, now)
		}
	}
	if last {
		s.releaseOp(a)
	}
}

// modelInput and modelEcho are the model codec's delivery callbacks: no
// payloads to decode or apply, so the (seat, interaction) payload alone
// carries the interaction through.
func (s *Server) modelInput(_ simclock.Time, user, idx int)  { s.serveInput(&s.states[user], idx) }
func (s *Server) modelEcho(now simclock.Time, user, idx int) { s.record(&s.states[user], idx, now) }

// keystroke runs one interaction through the full contended pipeline.
//
//thinlint:hotpath
func (s *Server) keystroke(u *userState, at simclock.Time, events []display.InputEvent) {
	if !s.active[u.idx] {
		return
	}
	lg := &s.logs[u.idx]
	idx := len(lg.at)
	lg.at = append(lg.at, simclock.Duration(at))
	pcli := u.rec.pcli
	if pcli == nil {
		s.send(u.idx, modelInputBytes, s.modelInputFn, u.idx, idx)
		return
	}
	op, id := s.acquireOp(u.idx, idx, true)
	op.msgs = pcli.EncodeInput(events, &op.sc)
	for i, m := range op.msgs {
		fn := s.opDeliveredFn
		if i < len(op.msgs)-1 {
			fn = nil // only the final message carries the callback; the stream lands it last
		}
		s.send(u.idx, m.Size(), fn, id, i)
	}
}

// serveInput is the server side of an interaction: touch the session's
// working set (paying page-in cost under memory pressure), run the
// application echo, then the display encode, then transmit the update.
//
//thinlint:hotpath
func (s *Server) serveInput(u *userState, idx int) {
	if !s.active[u.idx] {
		return
	}
	cost := s.cfg.EchoCPU
	ws := u.rec.ws
	wsKB := vm.PageKB * ws.Pages()
	faults := s.mem.TouchSpan(ws, s.wsOff[u.idx], workingSetKB)
	s.wsOff[u.idx] = (s.wsOff[u.idx] + workingSetKB) % wsKB
	if faults > 0 {
		d := s.mem.FaultCost(faults)
		u.pageIn += d
		cost += d
	}
	it := s.cpu.Acquire()
	it.CPU = cost
	it.A, it.B = u.idx, idx
	it.OnDone = s.echoDoneFn
	s.cpu.Submit(u.rec.app, it)
}

// echoDone chains the completed application echo into the display encode;
// the (seat, interaction) payload rides the work items so one shared
// method value replaces the nested per-interaction closures.
//
//thinlint:hotpath
func (s *Server) echoDone(_ simclock.Time, seat, idx int) {
	enc := s.cpu.Acquire()
	enc.CPU = s.cfg.EncodeCPU
	if s.tier > 0 {
		enc.CPU = simclock.Duration(float64(enc.CPU) * DegradeTiers[s.tier].EncodeFrac)
	}
	enc.A, enc.B = seat, idx
	enc.OnDone = s.encodeDoneFn
	s.cpu.Submit(s.states[seat].rec.enc, enc)
}

// encodeDone transmits the encoded echo when the display encode completes.
//
//thinlint:hotpath
func (s *Server) encodeDone(_ simclock.Time, seat, idx int) {
	s.sendEcho(&s.states[seat], idx)
}

// sendEcho encodes the drawn echo and transmits it; the latency sample is
// taken when the last display message reaches the client.
//
//thinlint:hotpath
func (s *Server) sendEcho(u *userState, idx int) {
	if !s.active[u.idx] {
		return
	}
	psrv := u.rec.psrv
	if psrv == nil {
		s.send(u.idx, modelEchoBytes, s.modelEchoFn, u.idx, idx)
		return
	}
	col := s.col[u.idx]
	x, y := 56+(col%70)*display.GlyphW, 80+(col/70%24)*16
	s.col[u.idx] = col + 1
	op, id := s.acquireOp(u.idx, idx, false)
	u.tape.Reset()
	u.tape.Text(x, y, caretGlyphs[u.idx%26], 0)
	op.msgs = psrv.Update(&u.tape, 0, u.tape.Len(), &op.sc)
	for i, m := range op.msgs {
		s.send(u.idx, m.Size(), s.opDeliveredFn, id, i)
	}
}
