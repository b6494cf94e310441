package benchdoc

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
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
	fs.StringVar(&c.Run, "run", "", "experiment ID to run (fig1..fig9, tab1..tab6, abl1..abl5, cap1, cont1, shard1, 'contention', 'shard', 'churn', 'schedule', 'control', 'speed', or 'all')")
	fs.BoolVar(&c.Quick, "quick", false, "shorten measurement windows (same shapes, more noise)")
	fs.Uint64Var(&c.Seed, "seed", 1999, "random seed; identical seeds reproduce identical results")
	fs.IntVar(&c.Parallel, "parallel", 0, "worker pool size (0 = GOMAXPROCS, 1 = sequential); results are identical at any setting")

	fs.StringVar(&c.users, "users", "1..16", "contention/shard mode: user counts, 'A..B' (ranges wider than 8 are stepped to ~8 points, endpoints kept) or a comma list probing every count; shard mode reads them as total fleet populations")
	fs.StringVar(&c.protos, "proto", "rdp,x,lbx", "contention mode: comma list of protocols (rdp,x,lbx,vnc,slim)")
	fs.StringVar(&c.scheds, "sched", "rr,nt", "contention mode: comma list of schedulers (rr,nt,svr4ia)")

	fs.IntVar(&c.shards, "shards", 3, "shard/churn/schedule mode: machine count of the heterogeneous fleet (hardware classes cycle big/base/weak)")
	fs.StringVar(&c.policies, "policy", "roundrobin,memaware,lataware", "shard/churn/schedule mode: comma list of placement policies")

	fs.StringVar(&c.churnRates, "churn", "0,0.15,0.3", "churn mode: comma list of per-session logout rates (1/s); each rate is one fleet run per policy")
	fs.IntVar(&c.killShard, "kill", 2, "churn/schedule mode: machine to kill mid-span for the failover section (-1 disables)")
	fs.Float64Var(&c.killAtSec, "killat", 4, "churn/schedule mode: kill time in seconds (schedule mode defaults to 2, inside the morning ramp)")
	fs.StringVar(&c.profiles, "profile", "officeday,flat", "schedule mode: comma list of arrival profiles (flat, officeday, shiftchange, or @file)")
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
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("command %q: unexpected arguments %q", command, fs.Args())
	}
	return c, nil
}

// builders maps each bench mode to the document it builds; "all" is the
// whole experiment registry.
var builders = map[string]func(*Command) (any, error){
	"contention": func(c *Command) (any, error) {
		return Contention(c.users, c.protos, c.scheds, c.Quick, c.Seed, c.Parallel)
	},
	"shard": func(c *Command) (any, error) {
		return Shard(c.users, c.policies, c.shards, c.Quick, c.Seed, c.Parallel)
	},
	"churn": func(c *Command) (any, error) {
		// Churn mode holds one population; the range default of -users
		// is a sweep axis, so the canonical churn population stands in
		// when the flag was left untouched. Quick mode shrinks the span
		// to 4 s, which the default kill time would land exactly on, so
		// the kill re-defaults to mid-span.
		killAt := c.killAtSec
		if !c.set("killat") && c.Quick {
			killAt = 2
		}
		return Churn(c.or("users", c.users, "22"), c.policies, c.churnRates, c.shards, c.killShard, killAt,
			c.Quick, c.Seed, c.Parallel)
	},
	"schedule": func(c *Command) (any, error) {
		// Schedule mode also holds one population, and its kill belongs
		// inside the morning ramp rather than at churn mode's default.
		killAt := c.killAtSec
		if !c.set("killat") {
			killAt = 2
		}
		return Schedule(c.or("users", c.users, "15"), c.profiles, c.policies, c.shards, c.killShard, killAt,
			c.Quick, c.Seed, c.Parallel)
	},
	"control": func(c *Command) (any, error) {
		// Control mode's -users is the offered demand, where 0 (also the
		// default here) derives 1.5x each profile's oracle fleet seats;
		// the fleet defaults to two live machines so the oracle's
		// overprovisioning answer has something to beat.
		demand, err := strconv.Atoi(c.or("users", c.users, "0"))
		if err != nil {
			return nil, fmt.Errorf("control mode offers one demand; give a single -users count (0 derives it), not %q", c.users)
		}
		shards := c.shards
		if !c.set("shards") {
			shards = 2
		}
		return Control(c.or("profile", c.profiles, "officeday,shiftchange"), shards, demand, c.Quick, c.Seed, c.Parallel)
	},
	"speed": func(c *Command) (any, error) {
		return Speed(c.Quick, c.Seed, c.Parallel)
	},
	"all": func(c *Command) (any, error) {
		return Paper(c.Quick, c.Seed, c.Parallel)
	},
}

// Bench reports whether the command's -run mode builds a BENCH document
// (a bench mode, or "all" for the whole registry) rather than running one
// registry experiment.
func (c *Command) Bench() bool {
	_, ok := builders[c.Run]
	return ok
}

// Build builds the document of the command's bench mode.
func (c *Command) Build() (any, error) {
	build, ok := builders[c.Run]
	if !ok {
		return nil, fmt.Errorf("-run %q builds no BENCH document", c.Run)
	}
	return build(c)
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
