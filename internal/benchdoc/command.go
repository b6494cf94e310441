package benchdoc

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"thinbench/internal/core"
	"thinbench/internal/schedule"
	"thinbench/internal/simclock"
)

// Command is one thinbench command line. Every BENCH document records the
// command that built it, and ParseCommand reads that record back, so a
// checked-in baseline is its own regeneration recipe: the CLI and the
// golden test both build a document through Command.Build, from the same
// flags with the same defaults.
type Command struct {
	// Run names the experiment or bench mode; Quick, Seed and Parallel
	// apply to registry runs and bench modes alike.
	Run      string
	Quick    bool
	Seed     uint64
	Parallel int

	users, protos, scheds, policies string
	shards                          int
	churnRates                      string
	killShard                       int
	killAtSec                       float64
	profiles                        string

	fs *flag.FlagSet
}

// NewCommand registers thinbench's run flags on fs. The returned Command
// reads them once fs has parsed its arguments.
func NewCommand(fs *flag.FlagSet) *Command {
	c := &Command{fs: fs}
	var ids []string
	for _, e := range core.Experiments() {
		ids = append(ids, e.ID)
	}
	fs.StringVar(&c.Run, "run", "", fmt.Sprintf("experiment ID to run (%s), or a mode that builds a BENCH document (%s; 'all' is the whole registry)",
		strings.Join(ids, ", "), strings.Join(Modes(), ", ")))
	fs.BoolVar(&c.Quick, "quick", false, "shorten measurement windows (same shapes, more noise)")
	fs.Uint64Var(&c.Seed, "seed", 1999, "random seed; identical seeds reproduce identical results")
	fs.IntVar(&c.Parallel, "parallel", 0, "worker pool size (0 = GOMAXPROCS, 1 = sequential); results are identical at any setting")

	fs.StringVar(&c.users, "users", "1..16", "contention mode: user counts, 'A..B' (ranges wider than 8 are stepped to ~8 points, endpoints kept) or a comma list probing every count; shard mode: the same, read as total fleet populations; churn and schedule mode: the one fleet population, 22 and 15 when not given; control mode: the offered demand, 0 when not given, which derives 1.5x each profile's oracle fleet seats")
	fs.StringVar(&c.protos, "proto", "rdp,x,lbx", "contention mode: comma list of protocols (rdp,x,lbx,vnc,slim)")
	fs.StringVar(&c.scheds, "sched", "rr,nt", "contention mode: comma list of schedulers (rr,nt,svr4ia)")

	fs.IntVar(&c.shards, "shards", 3, "shard, churn and schedule mode: machine count of the heterogeneous fleet (hardware classes cycle big/base/weak); control mode: live machines of the oracle's model, 2 when not given")
	fs.StringVar(&c.policies, "policy", "roundrobin,memaware,lataware", "shard/churn/schedule mode: comma list of placement policies")

	fs.StringVar(&c.churnRates, "churn", "0,0.15,0.3", "churn mode: comma list of per-session logout rates (1/s); each rate is one fleet run per policy")
	fs.IntVar(&c.killShard, "kill", 2, "churn/schedule mode: machine to kill mid-span for the failover section (-1 disables)")
	fs.Float64Var(&c.killAtSec, "killat", 4, "churn and schedule mode: kill time in seconds; when not given, churn mode at -quick reads 2, inside its 4 s span, and schedule mode always reads 2, inside the morning ramp")
	fs.StringVar(&c.profiles, "profile", "officeday,flat", "schedule and control mode: comma list of arrival profiles (flat, officeday, shiftchange, or @file); control mode reads officeday,shiftchange when not given")
	return c
}

// ParseCommand parses a recorded command line ("thinbench -run shard
// ..."). The extra arguments parse after the record, so an extra flag
// overrides a recorded one.
func ParseCommand(command string, extra ...string) (*Command, error) {
	args := strings.Fields(command)
	if len(args) == 0 || args[0] != "thinbench" {
		return nil, fmt.Errorf("%q is not a thinbench command line", command)
	}
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := NewCommand(fs)
	if err := fs.Parse(append(args[1:], extra...)); err != nil {
		return nil, fmt.Errorf("command %q: %w", command, err)
	}
	if err := c.CheckArgs(); err != nil {
		return nil, fmt.Errorf("command %q: %w", command, err)
	}
	return c, nil
}

// CheckArgs rejects a parsed command line that carries positional words.
// Flag parsing stops at the first one, so it and every flag after it
// would otherwise be dropped without a word.
func (c *Command) CheckArgs() error {
	if c.fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", c.fs.Args())
	}
	return nil
}

// mode is one bench mode: the name -run takes, the line thinbench -list
// prints under it, and the document it builds.
type mode struct {
	name, about string
	build       func(*Command) (any, error)
}

// modes is the mode table, in the order -list prints it; "all" is the
// whole experiment registry, which -list prints experiment by experiment.
// The five extension families parse their flags into the family's
// scenario, which internal/core builds.
var modes = []mode{
	{"contention", "latency-vs-users grid on one shared server per point; see -users, -proto, -sched", (*Command).contention},
	{"shard", "fleet-level p95 vs total users across M shared servers per placement policy; see -shards, -policy, -users", (*Command).shard},
	{"churn", "fleet p95 vs session turnover rate plus a machine-kill failover, per placement policy; see -churn, -kill, -killat", (*Command).churn},
	{"schedule", "fleet driven by a time-varying arrival profile (login storm, lunch dip) plus a mid-ramp machine kill; see -profile, -kill, -killat", (*Command).schedule},
	{"control", "online admission/shedding/autoscaling versus the offline sizing oracle, per arrival profile; see -shards, -profile, -users", (*Command).control},
	{"speed", "count the simulator's own work: events and allocs/event on canonical workloads; see -parallel", func(c *Command) (any, error) {
		return Speed(c.Quick, c.Seed, c.Parallel)
	}},
	{"all", "", func(c *Command) (any, error) {
		return Paper(c.Quick, c.Seed, c.Parallel)
	}},
}

// Modes lists the bench modes, sorted.
func Modes() []string {
	names := make([]string, len(modes))
	for i, m := range modes {
		names[i] = m.name
	}
	slices.Sort(names)
	return names
}

// WriteModes writes thinbench -list's entry for each bench mode but all,
// in the mode table's order: the mode's name, and under it what the mode
// builds.
func WriteModes(w io.Writer) {
	for _, m := range modes {
		if m.name != "all" {
			fmt.Fprintf(w, "  %s\n        %s\n", m.name, m.about)
		}
	}
}

// lookup finds the command's bench mode in the table.
func (c *Command) lookup() (mode, bool) {
	i := slices.IndexFunc(modes, func(m mode) bool { return m.name == c.Run })
	if i < 0 {
		return mode{}, false
	}
	return modes[i], true
}

// Bench reports whether the command's -run mode builds a BENCH document
// (a bench mode, or "all" for the whole registry) rather than running one
// registry experiment.
func (c *Command) Bench() bool {
	_, ok := c.lookup()
	return ok
}

// Build builds the document of the command's bench mode.
func (c *Command) Build() (any, error) {
	m, ok := c.lookup()
	if !ok {
		return nil, fmt.Errorf("-run %q builds no BENCH document", c.Run)
	}
	doc, err := m.build(c)
	if err != nil {
		return nil, err
	}
	return doc, nil
}

func (c *Command) contention() (any, error) {
	users, err := parseCounts(c.users)
	if err != nil {
		return nil, err
	}
	s := core.Contention{Users: users, Protos: splitList(c.protos), Scheds: splitList(c.scheds), Span: c.span(3 * simclock.Second)}
	// An empty axis would legally produce an empty grid; at the CLI that
	// is always a mistyped flag, so fail instead of printing zero rows.
	if len(s.Protos) == 0 {
		return nil, fmt.Errorf("empty -proto list")
	}
	if len(s.Scheds) == 0 {
		return nil, fmt.Errorf("empty -sched list")
	}
	doc, err := s.Build(c.Seed, c.Parallel)
	doc.Command = fmt.Sprintf("thinbench -run contention -users %s -proto %s -sched %s -seed %d -quick=%v",
		c.users, c.protos, c.scheds, c.Seed, c.Quick)
	return doc, err
}

func (c *Command) shard() (any, error) {
	users, err := parseCounts(c.users)
	if err != nil {
		return nil, err
	}
	f, err := c.fleet(3 * simclock.Second)
	if err != nil {
		return nil, err
	}
	doc, err := core.Shard{Fleet: f, Users: users}.Build(c.Seed, c.Parallel)
	doc.Command = fmt.Sprintf("thinbench -run shard -shards %d -policy %s -users %s -seed %d -quick=%v",
		c.shards, c.policies, c.users, c.Seed, c.Quick)
	return doc, err
}

func (c *Command) churn() (any, error) {
	users, err := c.population("churn", "22")
	if err != nil {
		return nil, err
	}
	var rates []float64
	for _, f := range splitList(c.churnRates) {
		r, err := strconv.ParseFloat(f, 64)
		if err != nil || !(r >= 0) {
			return nil, fmt.Errorf("bad -churn rate %q", f)
		}
		if r > 0 {
			if err := schedule.Flat(r).Validate(); err != nil {
				return nil, fmt.Errorf("bad -churn rate %q: %v", f, err)
			}
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("empty -churn list")
	}
	// Quick mode shrinks the span to 4 s, which the default kill time
	// would land exactly on, so the kill re-defaults to mid-span.
	killAt := c.killAtSec
	if !c.set("killat") && c.Quick {
		killAt = 2
	}
	f, err := c.fleet(4 * simclock.Second)
	if err == nil {
		err = c.kill(&f, killAt)
	}
	if err != nil {
		return nil, err
	}
	doc, err := core.Churn{Fleet: f, Users: users, Rates: rates}.Build(c.Seed, c.Parallel)
	doc.Command = fmt.Sprintf("thinbench -run churn -shards %d -policy %s -users %d -churn %s -kill %d -killat %g -seed %d -quick=%v",
		c.shards, c.policies, users, c.churnRates, c.killShard, killAt, c.Seed, c.Quick)
	return doc, err
}

func (c *Command) schedule() (any, error) {
	users, err := c.population("schedule", "15")
	if err != nil {
		return nil, err
	}
	profiles, err := parseProfiles(c.profiles)
	if err != nil {
		return nil, err
	}
	// The schedule kill belongs inside the morning ramp rather than at
	// churn mode's default.
	killAt := c.killAtSec
	if !c.set("killat") {
		killAt = 2
	}
	f, err := c.fleet(6 * simclock.Second)
	if err == nil {
		err = c.kill(&f, killAt)
	}
	if err != nil {
		return nil, err
	}
	doc, err := core.Schedule{Fleet: f, Users: users, Profiles: profiles}.Build(c.Seed, c.Parallel)
	doc.Command = fmt.Sprintf("thinbench -run schedule -shards %d -policy %s -users %d -profile %s -kill %d -killat %g -seed %d -quick=%v",
		c.shards, c.policies, users, c.profiles, c.killShard, killAt, c.Seed, c.Quick)
	return doc, err
}

func (c *Command) control() (any, error) {
	// Control mode's -users is the offered demand, where 0 (also the
	// default here) derives 1.5x each profile's oracle fleet seats; the
	// fleet defaults to two live machines so the oracle's
	// overprovisioning answer has something to beat.
	demand, err := strconv.Atoi(c.or("users", c.users, "0"))
	if err != nil {
		return nil, fmt.Errorf("control mode offers one demand; give a single -users count (0 derives it), not %q", c.users)
	}
	spec := c.or("profile", c.profiles, "officeday,shiftchange")
	s := core.Control{Machines: c.shards, Demand: demand, Span: c.span(6 * simclock.Second), ProbeSpan: c.probeSpan()}
	if !c.set("shards") {
		s.Machines = 2
	}
	if s.Profiles, err = parseProfiles(spec); err != nil {
		return nil, err
	}
	if s.Machines < 1 {
		return nil, fmt.Errorf("bad -shards count %d (want >= 1)", s.Machines)
	}
	if demand < 0 {
		return nil, fmt.Errorf("bad -users %d (0 derives demand from the oracle)", demand)
	}
	doc, err := s.Build(c.Seed, c.Parallel)
	doc.Command = fmt.Sprintf("thinbench -run control -shards %d -profile %s -users %d -seed %d -quick=%v",
		s.Machines, spec, demand, c.Seed, c.Quick)
	return doc, err
}

// span is a mode's measurement span: 10 s, or the mode's own at -quick.
func (c *Command) span(quick simclock.Duration) simclock.Duration {
	if c.Quick {
		return quick
	}
	return 10 * simclock.Second
}

// probeSpan is the placement-probe window of the fleet modes.
func (c *Command) probeSpan() simclock.Duration {
	if c.Quick {
		return simclock.Second
	}
	return 2 * simclock.Second
}

// fleet reads the flags the shard, churn and schedule modes share.
func (c *Command) fleet(quickSpan simclock.Duration) (core.Fleet, error) {
	f := core.Fleet{Machines: c.shards, Policies: splitList(c.policies), Span: c.span(quickSpan), ProbeSpan: c.probeSpan()}
	if len(f.Policies) == 0 {
		return f, fmt.Errorf("empty -policy list")
	}
	if f.Machines < 1 {
		return f, fmt.Errorf("bad -shards count %d (want >= 1)", f.Machines)
	}
	return f, nil
}

// kill adds the churn and schedule modes' failover section to f: machine
// -kill fails at killAtSec, the mode's -killat, which must land inside
// the span. -kill -1 disables the section.
func (c *Command) kill(f *core.Fleet, killAtSec float64) error {
	if c.killShard < 0 {
		return nil
	}
	f.KillShard, f.KillAt = c.killShard, simclock.Duration(killAtSec*1e6)
	if f.KillAt <= 0 {
		return fmt.Errorf("-killat %g: the failover kill needs a positive time (or -kill -1 to disable)", killAtSec)
	}
	if f.KillAt >= f.Span {
		return fmt.Errorf("-killat %g: the kill must land before the %v span", killAtSec, f.Span)
	}
	return nil
}

// population reads -users as the one fleet population of the churn and
// schedule modes. The range default of -users is a sweep axis, so the
// mode's canonical population stands in when the flag was left untouched.
func (c *Command) population(mode, modeDefault string) (int, error) {
	counts, err := parseCounts(c.or("users", c.users, modeDefault))
	if err != nil {
		return 0, err
	}
	if len(counts) != 1 {
		return 0, fmt.Errorf("%s mode holds one population; give a single -users count, not %v", mode, counts)
	}
	return counts[0], nil
}

// set reports whether the command line gave the named flag.
func (c *Command) set(name string) bool {
	set := false
	c.fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// or returns the flag's value when the command line gave it and the
// mode's own default otherwise.
func (c *Command) or(name, value, modeDefault string) string {
	if c.set(name) {
		return value
	}
	return modeDefault
}
