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
// The population is dynamic: each session has a Lifecycle. Sessions
// present from time zero are the static population every earlier
// experiment measured; a session that arrives mid-run pays its protocol's
// session-setup bytes on the contended link (tab4's handshake costs) and
// its login page-ins on the shared memory before its first echo counts,
// and a session that departs frees its memory and retires its threads, so
// the survivors' eviction pressure relaxes. Config.Schedule compiles a
// deterministic seed-derived arrival profile over the seats: login
// storms, lunch dips, shift changes (see internal/schedule), or
// schedule.Flat's memoryless churn with immediate replacement;
// Config.Sessions accepts an explicit plan (the fleet layer routes
// failover re-logins through it).
//
// Each user runs the paper's echo probe: key-repeat input events flow
// client → link → server, wake the session's application thread, which
// hands the drawn echo to a display-encoder thread, whose output is
// encoded by a real protocol codec and transmitted back over the shared
// link. User-perceived latency is the full path: input transmission, CPU
// queueing (inflated by page-in cost under memory pressure), encode
// queueing, and display transmission.
//
// Everything derives from Config.Seed via simclock.DeriveSeed, so a run is
// bit-for-bit reproducible; Sweep fans server instances out across the
// farm without breaking that guarantee.
package server

import (
	"fmt"

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
	// Users is the number of sessions present from time zero.
	Users int
	// Protocol selects the remote display protocol ("rdp", "x", "lbx",
	// "vnc", "slim"). The empty string or "model" selects the size-model
	// codec: fixed-size messages (modelInputBytes, modelEchoBytes) with no
	// per-user codec state, the frugal choice for large capacity searches.
	Protocol string
	// Scheduler selects the CPU policy: "rr", "nt", or "svr4ia".
	Scheduler string

	// Schedule, when non-nil, drives the population's lifecycles from an
	// arrival profile compiled over Users seats across the Span: a 9 AM
	// login storm, a lunch dip, a shift change, or schedule.Flat(r), the
	// memoryless churn process (exponential stays with mean 1/r, each
	// departure immediately replaced). Nil keeps the population static.
	Schedule *schedule.Profile
	// Sessions, when non-nil, is an explicit per-session lifecycle plan
	// and overrides Users and Schedule entirely (the fleet layer
	// builds these to route cross-shard arrivals and failover re-logins).
	// Entries that would log in at or after Span are dropped.
	Sessions []Lifecycle

	// PhysicalKB and SystemKB size the machine: physical memory and the
	// pinned system baseline unavailable to sessions (§5.1.1). SystemKB
	// becomes the memory manager's reservation (vm.Config.SystemKB): it is
	// resident from the start, page-rounded, counted in Result.ResidentKB,
	// and must leave at least one page for sessions.
	PhysicalKB int
	SystemKB   int
	// Link is the shared segment all sessions' traffic crosses.
	Link netsim.LinkConfig

	// Manifest is the per-session login process set; AppKB adds one
	// application process on top of the bare login.
	Manifest session.Manifest
	AppKB    int

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
		SystemKB:           18 * 1024,
		Link:               netsim.DefaultLinkConfig(),
		Manifest:           session.LinuxManifest(),
		AppKB:              2800,
		InteractionsPerSec: 20,
		EchoCPU:            simclock.Millisecond,
		EncodeCPU:          1500 * simclock.Microsecond,
		BackgroundCPUFrac:  0.02,
		// An animated banner's worth of ambient display traffic per user,
		// so the shared link sees real load as the population grows.
		BackgroundBitsPerSec: 250_000,
		Span:                 10 * simclock.Second,
		Seed:                 1,
	}
}

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

// SessionManifest is the complete per-session process set: the login
// manifest plus the AppKB application process. It is the single
// definition of "one session's memory" used by New, by committed-memory
// accounting, and by experiments quoting the §5.1.1 division.
func (c Config) SessionManifest() session.Manifest {
	man := c.Manifest
	if c.AppKB > 0 {
		man.Processes = append(man.Processes[:len(man.Processes):len(man.Processes)],
			session.ProcessSpec{Name: "app", PrivateKB: c.AppKB})
	}
	return man
}

// SessionKB is one session's compulsory memory load.
func (c Config) SessionKB() int { return c.SessionManifest().TotalKB() }

// NewPolicy builds the named scheduling policy. The boolean reports
// whether threads should be marked interactive (only the SVR4 class
// distinguishes them).
func NewPolicy(name string) (sched.Scheduler, bool, error) {
	switch name {
	case "nt":
		return sched.NewNTSched(sched.DefaultNTConfig()), false, nil
	case "svr4ia":
		return sched.NewSVR4IASched(), true, nil
	case "rr", "":
		return sched.NewRRSched(), false, nil
	default:
		return nil, false, fmt.Errorf("server: unknown scheduler %q", name)
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
	cfg         Config
	plan        []Lifecycle
	man         session.Manifest
	interactive bool

	eng   *simclock.Engine
	cpu   *sched.CPU
	mem   *vm.Manager
	link  *netsim.Link
	users []*userState

	// Struct-of-arrays hot session state, indexed by seat (userState.idx).
	// active is true while the seat is logged in; every pipeline stage
	// checks it so a departed user's in-flight callbacks fall dead instead
	// of submitting work to retired threads. submitted records every
	// interaction's submit time and done counts the echoes that landed.
	// Every stage of a seat's pipeline is FIFO — its stream, the link, its
	// application and encoder threads — so echoes land in submit order and
	// the unanswered interactions are always submitted[seat][done[seat]:].
	// backlog is the seat's stream: the messages waiting, in order, behind
	// one the full link refused (see send).
	active    []bool
	wsOff     []int // rotating working-set offset, KB
	col       []int // echo caret position
	submitted [][]simclock.Time
	done      []int
	backlog   [][]message

	// echoOps pools in-flight interaction transfers; opFree indexes the
	// recycled ones. The *Fn fields are callbacks bound once at
	// construction so the per-keystroke path never allocates a closure.
	echoOps       []*echoOp
	opFree        []int
	opDeliveredFn netsim.DeliverFunc
	echoDoneFn    func(*sched.WorkItem, simclock.Time, int)
	encodeDoneFn  func(*sched.WorkItem, simclock.Time, int)
	modelInputFn  netsim.DeliverFunc
	modelEchoFn   netsim.DeliverFunc
	// Lifecycle callbacks, bound once like the echo-path ones: arrivals,
	// departures, stream re-offers, login page-ins, typing keystrokes, and
	// the two background tickers all fire through engine/link payload
	// events (AtArgs/Send) carrying the seat index, so session churn
	// schedules no per-event closures.
	admitFn       func(simclock.Time, int, int)
	departFn      func(simclock.Time, int, int)
	resendFn      func(simclock.Time, int, int)
	finishLoginFn netsim.DeliverFunc
	pagedInFn     func(simclock.Time, int, int)
	loginDoneFn   func(*sched.WorkItem, simclock.Time, int)
	keystrokeFn   func(simclock.Time, int, int)
	bgTickFn      func(simclock.Time, int, int)
	trafficTickFn func(simclock.Time, int, int)
	setTierFn     func(simclock.Time, int, int)

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

	// sessionPool parks departed sessions' reusable records (LIFO) so a
	// later arrival is admitted without reallocating its session wiring or
	// codec pair. Reuse is seat-agnostic: every session's wiring is built
	// from the same manifest, thread identity is invisible to the
	// scheduler, and parked codecs are reset to pristine, so a recycled
	// record is behavior-identical to a fresh one. See parkSession.
	sessionPool []sessionRes

	loginFaults int64
	echo        *metrics.Dist
	slices      []*metrics.Dist
	err         error
}

// sessionRes is one departed session's recyclable wiring: the detached
// session record (manifest processes and pipeline threads), the session's
// background thread if it had one, and the codec pair (nil in model mode),
// reset to pristine at park time so reuse cannot change wire bytes.
type sessionRes struct {
	user *session.User
	bg   *sched.Thread
	psrv proto.Server
	pcli proto.Client
}

// userState is one session's private wiring on the shared substrates. The
// fields the steady-state echo loop touches on every interaction live in
// the Server's struct-of-arrays slices (active, wsOff, col, submitted,
// done, backlog), indexed by idx, so the hot path walks dense
// arrays instead of chasing per-user pointers; userState keeps the cold
// lifecycle and codec state.
type userState struct {
	*session.User
	idx int
	lc  Lifecycle
	rng simclock.Rand
	// pooledUser is a predecessor's detached session record handed over by
	// admit for attach to revive via ReattachUser.
	pooledUser *session.User
	psrv       proto.Server // nil in model mode
	pcli       proto.Client
	ws         *vm.Process
	bg         *sched.Thread
	// loginDone marks that the arrival's whole admission — handshake,
	// page-ins, process creation — finished and typing began; an arrival
	// that never gets there spent its time staring at the login screen,
	// which Run counts as one censored interaction aged from the planned
	// login instant. goneAt is the logout instant, 0 while logged in; a
	// logout that fires mid-handshake kills the connection, and the login
	// never completes.
	loginDone bool
	goneAt    simclock.Time

	echo   metrics.Dist
	pageIn simclock.Duration
	// keyEv is the session's one-event typing-probe batch, boxed once at
	// start so the per-keystroke path hands the encoder a ready slice.
	keyEv [1]display.InputEvent

	// tape is the reused pointer-free op stream for echo updates and
	// echoText the session's precomputed caret glyph; together they keep
	// sendEcho from boxing or allocating anything per interaction.
	// Protocol encoders consume the tape synchronously, never retaining
	// it, so reuse is safe.
	tape     display.OpTape
	echoText string
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
	user  int  // seat index into Server.users
	idx   int  // interaction index into Server.submitted[user]
	input bool // input-channel op (decode+serve) vs display op (apply+record)
}

// message is one message waiting in a seat's stream backlog: the payload
// bytes not yet on the link and the delivery callback, with its two
// arguments, that the message's last packet carries.
type message struct {
	bytes int
	fn    netsim.DeliverFunc
	a, b  int
}

// New composes a shared server from the configuration. It fails on a
// machine it cannot build (see validate) or an unknown protocol or
// scheduler rather than at run time. Sessions planned to be present from
// time zero are logged in here; later arrivals are admitted by Run as the
// clock reaches them.
func New(cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Sessions == nil && cfg.Users < 1 {
		cfg.Users = 1
	}
	if cfg.Schedule != nil {
		// Validate here so a nonsense profile (say, schedule.Flat at a rate
		// implying sub-millisecond stays) errors cleanly instead of
		// panicking in plan().
		if err := cfg.Schedule.Validate(); err != nil {
			return nil, err
		}
	}
	policy, interactive, err := NewPolicy(cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	eng := simclock.NewEngine()
	s := &Server{
		cfg:         cfg,
		plan:        cfg.plan(),
		man:         cfg.SessionManifest(),
		interactive: interactive,
		eng:         eng,
		cpu:         sched.NewCPU(eng, policy),
		mem:         vm.New(vmConfig(cfg)),
		link:        netsim.NewLink(eng, cfg.Link),
		echo:        &metrics.Dist{},
	}
	s.slices = make([]*metrics.Dist, TimelineSlices(cfg.Span))
	for i := range s.slices {
		s.slices[i] = &metrics.Dist{}
	}
	initial := 0
	// One backing array holds every session's record: plans compiled from
	// a day-long schedule run to thousands of entries per machine, and a
	// struct plus a latency collector per entry was a measurable slice of
	// the simulator's total allocations.
	states := make([]userState, len(s.plan))
	s.users = make([]*userState, len(s.plan))
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
		u := &states[i]
		u.idx = i
		u.lc = lc
		u.rng = simclock.SeededRand(simclock.DeriveSeed(cfg.Seed, stream))
		s.users[i] = u
	}
	n := len(s.users)
	s.active = make([]bool, n)
	s.wsOff = make([]int, n)
	s.col = make([]int, n)
	s.submitted = make([][]simclock.Time, n)
	s.done = make([]int, n)
	s.backlog = make([][]message, n)
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
	if len(cfg.TierPlan) > 0 {
		if err := validateTierPlan(cfg.TierPlan); err != nil {
			return nil, err
		}
		s.keyCount = make([]int, n)
	}
	for _, u := range s.users {
		if u.lc.Login != 0 {
			continue
		}
		if err := s.attach(u); err != nil {
			return nil, err
		}
		initial++
	}
	if initial == 0 && realProtocol(cfg.Protocol) {
		// No session validated the protocol yet; fail now, not mid-run.
		if _, _, _, err := protos.New(cfg.Protocol); err != nil {
			return nil, err
		}
	}
	s.loginFaults = s.mem.Stats().Faults
	return s, nil
}

func realProtocol(p string) bool { return p != "" && p != "model" }

func vmConfig(cfg Config) vm.Config {
	c := vm.DefaultConfig()
	c.PhysicalKB = cfg.PhysicalKB
	c.SystemKB = cfg.SystemKB
	return c
}

// validate reports why the configuration describes a machine New cannot
// build or Run cannot drive: memory the manager refuses (no page, or a
// system baseline that leaves none for sessions), an input rate with no
// positive whole-microsecond period, a span that is not positive, or a
// link with no positive rate.
func (c Config) validate() error {
	if err := vmConfig(c).Validate(); err != nil {
		return fmt.Errorf("server: %w", err)
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

// attach logs a session into the shared substrates: manifest processes
// resident (the login page-ins), pipeline threads registered, codec state
// allocated. The caller pays any latency cost; attach only moves state.
func (s *Server) attach(u *userState) error {
	if u.pooledUser != nil {
		u.User = session.ReattachUser(s.cpu, s.mem, u.pooledUser, u.idx, s.interactive)
		u.pooledUser = nil
	} else {
		u.User = session.AttachUser(s.cpu, s.mem, s.man, u.idx, s.interactive)
	}
	u.ws = u.WorkingSet()
	if realProtocol(s.cfg.Protocol) && u.psrv == nil {
		psrv, pcli, _, err := protos.New(s.cfg.Protocol)
		if err != nil {
			return err
		}
		u.psrv, u.pcli = psrv, pcli
	}
	s.active[u.idx] = true
	s.cur++
	if s.cur > s.peak {
		s.peak = s.cur
	}
	return nil
}

// Run drives every session through its lifecycle and reports the
// population's measured impact. The same configuration always produces an
// identical Result.
func (s *Server) Run() (Result, error) {
	cfg := s.cfg
	for _, u := range s.users {
		if u.lc.Login == 0 {
			// Present from the start: no setup, exactly the static model.
			s.start(u, 0)
		} else {
			s.eng.AtArgs(u.lc.Login, s.admitFn, u.idx, 0)
		}
		if u.lc.Logout > 0 {
			s.eng.AtArgs(u.lc.Logout, s.departFn, u.idx, 0)
		}
	}
	// The shedder's tier changes, scheduled after every lifecycle event so
	// a tier change at an arrival's instant sequences after the arrival.
	for _, tc := range cfg.TierPlan {
		s.eng.AtArgs(tc.At, s.setTierFn, tc.Tier, 0)
	}

	// Capture utilization at exactly the span boundary, then let
	// in-flight echoes land during a short drain tail.
	var busyAtSpan simclock.Duration
	var bytesAtSpan int64
	s.eng.At(simclock.Time(cfg.Span), func(simclock.Time) {
		busyAtSpan = s.cpu.BusyTotal()
		bytesAtSpan = s.link.SentBytes()
	})
	s.eng.RunUntil(simclock.Time(cfg.Span))
	s.eng.RunFor(DrainSpan)
	if s.err != nil {
		return Result{}, s.err
	}

	res := Result{
		Users:      initialUsers(s.plan),
		Arrivals:   s.arrivals,
		Departures: s.departures,
		PeakUsers:  s.peak,
		Protocol:   protocolName(cfg.Protocol),
		Scheduler:  cfg.Scheduler,

		CPUUtilization:  float64(busyAtSpan) / float64(cfg.Span),
		LinkUtilization: float64(bytesAtSpan*8) / (cfg.Link.RateMbps * 1e6 * cfg.Span.Seconds()),
		LinkDrops:       s.link.Drops(),

		CommittedKB:      cfg.SystemKB + s.peak*cfg.SessionKB(),
		ResidentKB:       (s.mem.TotalPages() - s.mem.FreePages()) * s.mem.Config().PageKB,
		FaultsAfterLogin: s.mem.Stats().Faults - s.loginFaults,
	}
	end := s.eng.Now()
	for _, u := range s.users {
		// Right-censor interactions still in flight: each contributes its
		// age at run end — or at logout, for a session that left with
		// echoes pending (a killed machine's users at the kill instant).
		uend := end
		if u.goneAt > 0 {
			uend = u.goneAt
		}
		for _, at := range s.submitted[u.idx][s.done[u.idx]:] {
			ms := uend.Sub(at).Milliseconds()
			u.echo.Add(ms)
			s.sliceAt(uend).Add(ms)
			res.Censored++
		}
		// An arrival whose admission never completed — handshake stuck
		// behind the link, login starved on a saturated CPU — is a user who
		// waited at the login screen the whole time. That is the worst
		// latency there is, so it enters as one censored interaction aged
		// from the planned login; otherwise a machine too overloaded to
		// even admit its arrivals would read as lightly loaded.
		if u.lc.Login > 0 && !u.loginDone {
			ms := uend.Sub(u.lc.Login).Milliseconds()
			u.echo.Add(ms)
			s.sliceAt(uend).Add(ms)
			res.Interactions++
			res.Censored++
			if ms > s.loginMaxMs {
				s.loginMaxMs = ms
			}
		}
		res.Interactions += int64(len(s.submitted[u.idx]))
		res.PageInMs += u.pageIn.Milliseconds()
		s.echo.Merge(&u.echo)
	}
	res.LoginMaxMs = s.loginMaxMs
	res.SheddedFrames = s.shedFrames
	res.Paging = res.FaultsAfterLogin > 0
	res.EchoSamples = int64(s.echo.N())
	res.EchoMeanMs = s.echo.Mean()
	res.EchoP50Ms = s.echo.Percentile(50)
	res.EchoP95Ms = s.echo.Percentile(95)
	res.EchoMaxMs = s.echo.Max()
	res.P95TimelineMs = make([]float64, len(s.slices))
	for i, d := range s.slices {
		res.P95TimelineMs[i] = d.Percentile(95)
	}
	res.SimEvents = s.eng.Fired()
	return res, nil
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
	period := simclock.Duration(1e6 / cfg.InteractionsPerSec)
	// Stagger users by a seed-derived phase so the population doesn't
	// interact in lockstep bursts.
	phase := u.rng.UniformDuration(0, period)
	end := simclock.Time(cfg.Span)
	if u.lc.Logout > 0 && u.lc.Logout < end {
		end = u.lc.Logout
	}
	if typingSpan := end.Sub(now); typingSpan > 0 {
		// The typing probe's sample count is known up front; size the
		// interaction log and the latency collector once instead of
		// letting append reallocate them throughout the run.
		expected := int(cfg.InteractionsPerSec*typingSpan.Seconds()) + 2
		if sub := s.submitted[u.idx]; cap(sub)-len(sub) < expected {
			grown := make([]simclock.Time, len(sub), len(sub)+expected)
			copy(grown, sub)
			s.submitted[u.idx] = grown
		}
		u.echo.Grow(expected)
		// The probe is per-keystroke (no input coalescing, so every
		// interaction yields one latency sample) and every keystroke is
		// the same key-repeat event, so the whole typing probe reduces to
		// one boxed event and a payload-carrying engine event per
		// keystroke: workload.KeystrokeTimes' instants over the typing
		// span, shifted by the login instant plus the user's phase,
		// without materializing a trace.
		u.keyEv[0] = display.KeyEvent{Down: true, Code: uint16(30 + u.idx%26)}
		shift := simclock.Duration(now) + phase
		for at := simclock.Time(period); at <= simclock.Time(typingSpan); at = at.Add(period) {
			s.eng.AtArgs(at.Add(shift), s.keystrokeFn, u.idx, 0)
		}
	}

	if cfg.BackgroundCPUFrac > 0 {
		if u.bg != nil {
			s.cpu.ReuseThread(u.bg, 4)
		} else {
			u.bg = s.cpu.NewThread(fmt.Sprintf("u%d-bg", u.idx), 4)
		}
		bgPhase := u.rng.UniformDuration(0, 100*simclock.Millisecond)
		s.eng.AtArgs(now.Add(bgPhase), s.bgTickFn, u.idx, 0)
	}
	if cfg.BackgroundBitsPerSec > 0 {
		trPhase := u.rng.UniformDuration(0, 50*simclock.Millisecond)
		s.eng.AtArgs(now.Add(trPhase), s.trafficTickFn, u.idx, 0)
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
	it.Tag = "background"
	it.CPU = simclock.Duration(s.cfg.BackgroundCPUFrac * 100_000)
	s.cpu.Submit(s.users[a].bg, it)
	s.eng.AtArgs(now.Add(100*simclock.Millisecond), s.bgTickFn, a, 0)
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
	s.eng.AtArgs(now.Add(50*simclock.Millisecond), s.trafficTickFn, a, 0)
}

// keystrokeAt is the typing probe's payload-carrying keystroke event.
// Keystrokes are pre-scheduled at start, so the shedder drops them here —
// at fire time, against the tier in force now — rather than rescheduling
// anything, keeping event creation order identical at every tier.
func (s *Server) keystrokeAt(now simclock.Time, a, _ int) {
	if s.shedKeystroke(a) {
		return
	}
	u := s.users[a]
	s.keystroke(u, now, u.keyEv[:])
}

// admitAt and departAt adapt the lifecycle transitions to
// payload-carrying engine events; finishLoginAt and pagedIn are the
// link-delivery and page-in-complete forms, and loginDone chains the
// login's CPU work into start. Each is bound once at construction.
func (s *Server) admitAt(_ simclock.Time, a, _ int)    { s.admit(s.users[a]) }
func (s *Server) departAt(now simclock.Time, a, _ int) { s.depart(s.users[a], now) }
func (s *Server) finishLoginAt(now simclock.Time, a, _ int) {
	s.finishLogin(s.users[a], now)
}
func (s *Server) loginDone(it *sched.WorkItem, at simclock.Time, _ int) {
	s.start(s.users[it.A], at)
}

// admit begins a mid-run arrival: the session's protocol handshake
// crosses the contended link as the first message on its stream, then its
// login pages the manifest in, and only then does the typing probe start —
// an arrival on a loaded machine queues behind everyone else's traffic for
// its own setup.
func (s *Server) admit(u *userState) {
	setup := modelSetupBytes
	if n := len(s.sessionPool); n > 0 {
		// A predecessor's wiring: the session record, background thread,
		// and codec pair (reset to pristine at park time, so wire bytes are
		// identical to a fresh pair's).
		r := s.sessionPool[n-1]
		s.sessionPool[n-1] = sessionRes{}
		s.sessionPool = s.sessionPool[:n-1]
		u.pooledUser, u.bg = r.user, r.bg
		u.psrv, u.pcli = r.psrv, r.pcli
	}
	if realProtocol(s.cfg.Protocol) {
		if u.psrv == nil {
			psrv, pcli, _, err := protos.New(s.cfg.Protocol)
			if err != nil {
				if s.err == nil {
					s.err = err
				}
				return
			}
			u.psrv, u.pcli = psrv, pcli
		}
		setup = u.psrv.SetupBytes()
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
func (s *Server) send(seat, bytes int, fn netsim.DeliverFunc, a, b int) {
	m := message{bytes: bytes, fn: fn, a: a, b: b}
	q := s.backlog[seat]
	if len(q) == 0 {
		if s.offer(&m) {
			return
		}
		s.eng.AtArgs(s.eng.Now().Add(resendBackoff), s.resendFn, seat, 0)
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
		s.eng.AtArgs(now.Add(resendBackoff), s.resendFn, seat, 0)
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
	if u.goneAt > 0 {
		return // the connection died mid-handshake
	}
	before := s.mem.Stats().Faults
	if err := s.attach(u); err != nil {
		if s.err == nil {
			s.err = err
		}
		return
	}
	faults := s.mem.Stats().Faults - before
	s.loginFaults += faults
	s.arrivals++
	u.pageIn += s.mem.FaultCost(int(faults))
	s.eng.AtArgs(s.eng.Now().Add(s.mem.FaultCost(int(faults))), s.pagedInFn, u.idx, 0)
}

// pagedIn fires when an arrival's login page-ins complete and queues its
// process-creation compute. Process creation is compute, not I/O: the new
// session's spawn work queues on the shared CPU with everyone else's
// echoes.
func (s *Server) pagedIn(_ simclock.Time, a, _ int) {
	u := s.users[a]
	if !s.active[u.idx] {
		return // logged out while paging in
	}
	it := s.cpu.Acquire()
	it.Tag = "login"
	it.CPU = loginCPU
	it.A = u.idx
	it.OnDone = s.loginDoneFn
	s.cpu.Submit(u.App, it)
}

// depart logs a session out: recurring work stops, both pipeline threads
// and the background thread retire, and the manifest's memory returns to
// the free pool, relaxing the survivors' eviction pressure at this
// instant. Interactions still in flight are censored at this time when
// the run ends.
func (s *Server) depart(u *userState, now simclock.Time) {
	if u.goneAt > 0 {
		return
	}
	u.goneAt = now
	if !s.active[u.idx] {
		return // still mid-handshake: finishLogin sees goneAt and stops
	}
	s.active[u.idx] = false
	s.departures++
	s.cur--
	if u.bg != nil {
		s.cpu.Retire(u.bg)
	}
	session.DetachUser(s.cpu, s.mem, u.User)
	s.parkSession(u)
}

// parkSession saves a departed session's reusable wiring for a later
// arrival: the detached session record, background thread, and codec pair,
// reset to pristine here so a reused pair's wire bytes cannot differ from
// a fresh one's.
func (s *Server) parkSession(u *userState) {
	if u.psrv != nil {
		u.psrv.ResetSession()
		u.pcli.ResetSession()
	}
	s.sessionPool = append(s.sessionPool, sessionRes{user: u.User, bg: u.bg, psrv: u.psrv, pcli: u.pcli})
}

// EchoHistogram buckets every echo-latency sample Run collected
// (milliseconds, right-censored samples included) into a histogram with a
// nominal range of n buckets each widthMs wide, storing buckets only up
// to the largest sample. Result keeps only scalar percentiles so it
// stays cheaply comparable; the histogram is the mergeable form a fleet
// layer needs to compute percentiles across many servers, since
// percentiles of separate machines cannot be combined after the fact.
func (s *Server) EchoHistogram(widthMs float64, n int) *metrics.Histogram {
	return s.echo.ToHistogram(widthMs, n)
}

// SliceHistograms is the mergeable form of Result.P95TimelineMs: one
// histogram per TimelineSlice of the run, each bucketed like
// EchoHistogram, so a fleet layer can merge per-machine timelines into a
// fleet-level one before taking per-slice percentiles. n is every slice's
// nominal range (the whole run's, so slices merge with each other); each
// slice stores buckets only up to its own largest sample, which is why a
// long run's many slices stay cheap.
func (s *Server) SliceHistograms(widthMs float64, n int) []*metrics.Histogram {
	out := make([]*metrics.Histogram, len(s.slices))
	for i, d := range s.slices {
		out[i] = d.ToHistogram(widthMs, n)
	}
	return out
}

// sliceAt is the timeline slice holding samples that land at t.
func (s *Server) sliceAt(t simclock.Time) *metrics.Dist {
	i := int(simclock.Duration(t) / TimelineSlice)
	if i >= len(s.slices) {
		i = len(s.slices) - 1
	}
	if i < 0 {
		i = 0
	}
	return s.slices[i]
}

func protocolName(p string) string {
	if p == "" {
		return "model"
	}
	return p
}

// record lands one completed echo: the user's latency sample and its
// timeline slice. A sample for a user who already departed falls dead —
// there is no client left to deliver to. done counts the landed echoes,
// which is right only while they land in submit order, so an echo out of
// that order is an error.
func (s *Server) record(u *userState, idx int, now simclock.Time) {
	if !s.active[u.idx] {
		return
	}
	if done := s.done[u.idx]; idx != done {
		if s.err == nil {
			s.err = fmt.Errorf("server: user %d echo %d landed before echo %d", u.idx, idx, done)
		}
		return
	}
	s.done[u.idx]++
	ms := now.Sub(s.submitted[u.idx][idx]).Milliseconds()
	u.echo.Add(ms)
	s.sliceAt(now).Add(ms)
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
	u, m, idx := s.users[op.user], op.msgs[b], op.idx
	last := b == len(op.msgs)-1
	if op.input {
		// Input ops carry a callback only on the final message: check the
		// round-trip (the decoded events themselves are discarded — the
		// interaction is already identified by the op), then run the
		// server side of the interaction. A departed session's codec may
		// already serve its successor, so only a live session validates.
		if s.active[op.user] {
			if _, err := u.psrv.ValidateInput(m); err != nil && s.err == nil {
				s.err = fmt.Errorf("server: user %d input decode: %w", u.idx, err) //thinlint:allow hotpath first-error capture: runs at most once per simulation
			}
		}
		s.releaseOp(a)
		s.serveInput(u, idx)
		return
	}
	if s.active[op.user] {
		if err := u.pcli.Apply(m); err != nil && s.err == nil {
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
func (s *Server) modelInput(_ simclock.Time, user, idx int)  { s.serveInput(s.users[user], idx) }
func (s *Server) modelEcho(now simclock.Time, user, idx int) { s.record(s.users[user], idx, now) }

// keystroke runs one interaction through the full contended pipeline.
//
//thinlint:hotpath
func (s *Server) keystroke(u *userState, at simclock.Time, events []display.InputEvent) {
	if !s.active[u.idx] {
		return
	}
	idx := len(s.submitted[u.idx])
	s.submitted[u.idx] = append(s.submitted[u.idx], at)
	if u.pcli == nil {
		s.send(u.idx, modelInputBytes, s.modelInputFn, u.idx, idx)
		return
	}
	op, id := s.acquireOp(u.idx, idx, true)
	op.msgs = u.pcli.EncodeInput(events, &op.sc)
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
	if u.ws != nil {
		wsKB := s.mem.Config().PageKB * u.ws.Pages()
		faults := s.mem.TouchSpan(u.ws, s.wsOff[u.idx], workingSetKB)
		s.wsOff[u.idx] = (s.wsOff[u.idx] + workingSetKB) % wsKB
		if faults > 0 {
			d := s.mem.FaultCost(faults)
			u.pageIn += d
			cost += d
		}
	}
	it := s.cpu.Acquire()
	it.Tag = "echo"
	it.CPU = cost
	it.A, it.B = u.idx, idx
	it.OnDone = s.echoDoneFn
	s.cpu.Submit(u.App, it)
}

// echoDone chains the completed application echo into the display encode;
// the (seat, interaction) payload rides the work items so one shared
// method value replaces the nested per-interaction closures.
//
//thinlint:hotpath
func (s *Server) echoDone(it *sched.WorkItem, _ simclock.Time, _ int) {
	enc := s.cpu.Acquire()
	enc.Tag = "encode"
	enc.CPU = s.cfg.EncodeCPU
	if s.tier > 0 {
		enc.CPU = simclock.Duration(float64(enc.CPU) * DegradeTiers[s.tier].EncodeFrac)
	}
	enc.A, enc.B = it.A, it.B
	enc.OnDone = s.encodeDoneFn
	s.cpu.Submit(s.users[it.A].Encoder, enc)
}

// encodeDone transmits the encoded echo when the display encode completes.
//
//thinlint:hotpath
func (s *Server) encodeDone(it *sched.WorkItem, _ simclock.Time, _ int) {
	s.sendEcho(s.users[it.A], it.B)
}

// sendEcho encodes the drawn echo and transmits it; the latency sample is
// taken when the last display message reaches the client.
//
//thinlint:hotpath
func (s *Server) sendEcho(u *userState, idx int) {
	if !s.active[u.idx] {
		return
	}
	if u.psrv == nil {
		s.send(u.idx, modelEchoBytes, s.modelEchoFn, u.idx, idx)
		return
	}
	if u.echoText == "" {
		u.echoText = string(rune('a' + u.idx%26))
	}
	col := s.col[u.idx]
	x, y := 56+(col%70)*display.GlyphW, 80+(col/70%24)*16
	s.col[u.idx] = col + 1
	op, id := s.acquireOp(u.idx, idx, false)
	u.tape.Reset()
	u.tape.Text(x, y, u.echoText, 0)
	op.msgs = u.psrv.Update(&u.tape, 0, u.tape.Len(), &op.sc)
	for i, m := range op.msgs {
		s.send(u.idx, m.Size(), s.opDeliveredFn, id, i)
	}
}
