// Package cli is the flag layer the rpcvalet commands share. Each shared
// flag is declared here once, with its help text and a flag.Value whose Set
// runs the flag's spec parser, so Parse rejects a bad value before a command
// does anything else. Parse also applies the cross-flag rules: a flag that
// would do nothing in the given configuration is an error.
//
// The exit contract every command keeps: 0 on success or -h; 2 for bad
// input, with nothing simulated (Set.Bad); 1 when a run or a write failed
// (Set.Fail). Either error is one stderr line, "<command>: <error>".
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"rpcvalet/internal/arrival"
	"rpcvalet/internal/cluster"
	"rpcvalet/internal/machine"
	"rpcvalet/internal/obs"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/workload"
)

// Set is one command's flags plus the cross-flag rules Parse checks.
type Set struct {
	*flag.FlagSet
	stderr io.Writer
	rules  []func() error
}

// New returns an empty flag set for the named command, reporting to stderr.
func New(name string, stderr io.Writer) *Set {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard) // Bad prints the one error line
	return &Set{FlagSet: fs, stderr: stderr}
}

// Parse parses args, rejects positional arguments (no command takes any)
// and checks the cross-flag rules.
func (s *Set) Parse(args []string) error {
	if err := s.FlagSet.Parse(args); err != nil {
		return err
	}
	if s.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", s.Arg(0))
	}
	for _, rule := range s.rules {
		if err := rule(); err != nil {
			return err
		}
	}
	return nil
}

// Bad reports bad input and returns exit code 2. For flag.ErrHelp (-h) it
// prints the usage instead and returns 0.
func (s *Set) Bad(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(s.stderr, "Usage of %s:\n", s.Name())
		s.SetOutput(s.stderr)
		s.PrintDefaults()
		return 0
	}
	return s.exit(err, 2)
}

// Fail reports a failed run or write and returns exit code 1.
func (s *Set) Fail(err error) int { return s.exit(err, 1) }

// exit prints err on one line, escaping any newline it echoes from input.
func (s *Set) exit(err error, code int) int {
	fmt.Fprintf(s.stderr, "%s: %s\n", s.Name(), strings.ReplaceAll(err.Error(), "\n", `\n`))
	return code
}

// Write writes a finished report to w and returns the exit code: 0, or 1
// when err, the report's own failure, or the write fails.
func (s *Set) Write(w io.Writer, report []byte, err error) int {
	if err == nil {
		_, err = w.Write(report)
	}
	if err != nil {
		return s.Fail(err)
	}
	return 0
}

// Needs makes Parse reject flag name, when given, unless ok holds: a flag
// that would do nothing is an error. want names what ok checks.
func (s *Set) Needs(name, want string, ok func() bool) {
	s.rules = append(s.rules, func() error {
		given := false
		s.Visit(func(f *flag.Flag) { given = given || f.Name == name })
		if given && !ok() {
			return fmt.Errorf("-%s needs %s", name, want)
		}
		return nil
	})
}

// text is a flag.Value parsed by set; -h shows its text as the default.
type text struct {
	s   string
	set func(string) error
}

func (t *text) String() string     { return t.s }
func (t *text) Set(v string) error { t.s = v; return t.set(v) }

// Spec registers flag name, parsed by parse into the returned value; def is
// parsed the same way and must be valid. A flag whose default is empty
// takes empty to mean unset: the zero value.
func Spec[T any](s *Set, name, def, usage string, parse func(string) (T, error)) *T {
	p := new(T)
	v := &text{set: func(in string) (err error) {
		if in == "" && def == "" {
			*p = *new(T)
			return nil
		}
		*p, err = parse(in)
		return err
	}}
	if err := v.Set(def); err != nil {
		panic(fmt.Sprintf("cli: default -%s %q: %v", name, def, err))
	}
	s.Var(v, name, usage)
	return p
}

// List registers a comma-separated list flag, each entry trimmed and parsed.
func List[T any](s *Set, name, def, usage string, parse func(string) (T, error)) *[]T {
	return Spec(s, name, def, usage, func(t string) ([]T, error) {
		var out []T
		for _, e := range strings.Split(t, ",") {
			v, err := parse(strings.TrimSpace(e))
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	})
}

// Count registers an integer flag that rejects values below min.
func (s *Set) Count(name string, def, min int, usage string) *int {
	return Spec(s, name, strconv.Itoa(def), usage, func(t string) (int, error) {
		n, err := strconv.ParseInt(t, 0, strconv.IntSize)
		if err == nil && int(n) < min {
			err = fmt.Errorf("must be at least %d", min)
		}
		return int(n), err
	})
}

// Nanos registers a simulated span parsed by sim.ParseDuration ("500ns",
// "2us"; a bare number is ns), which rejects negative, NaN and huge spans.
func (s *Set) Nanos(name, def, usage string) *sim.Duration {
	return Spec(s, name, def, usage, sim.ParseDuration)
}

// Epoch registers -epoch, the timeline's first epoch length (0 = auto).
func (s *Set) Epoch() *sim.Duration {
	return s.Nanos("epoch", "", "timeline epoch length (e.g. 25us; empty = auto)")
}

// Window registers -warmup and -measure: completions discarded, then measured.
func (s *Set) Window(warmup, measure int) (*int, *int) {
	return s.Count("warmup", warmup, 0, "completions discarded before measuring"),
		s.Count("measure", measure, 1, "completions measured (per point of a sweep)")
}

// Format registers -format, one of allowed; the first is the default.
func (s *Set) Format(allowed ...string) *string {
	return Spec(s, "format", allowed[0], "output format: "+strings.Join(allowed, ", "), func(f string) (string, error) {
		if !slices.Contains(allowed, f) {
			return "", fmt.Errorf("want %s", strings.Join(allowed, " or "))
		}
		return f, nil
	})
}

// Workload registers -workload, resolved by workload.ByName.
func (s *Set) Workload(def string) *workload.Profile {
	return Spec(s, "workload", def, "workload: herd, masstree, fixed, uniform, exp, gev", workload.ByName)
}

// Plan registers -dispatch as one plan; it must build the default machine.
func (s *Set) Plan(def, usage string) **machine.Plan { return Spec(s, "dispatch", def, usage, plan) }

// Dispatch registers -dispatch as a comma-separated list of plans.
func (s *Set) Dispatch(def, usage string) *[]*machine.Plan {
	return List(s, "dispatch", def, usage, plan)
}

func plan(spec string) (*machine.Plan, error) {
	pl, err := machine.ParsePlan(spec)
	if err != nil {
		return nil, err
	}
	p := machine.Defaults()
	p.Plan = pl
	return pl, p.Validate()
}

// Fault registers -degrade in the machine-fault grammar (machine.ParseFault).
func (s *Set) Fault() *machine.Fault {
	return Spec(s, "degrade", "", "machine fault: x<factor> slowdown and/or pause@START+DUR, comma-separated", machine.ParseFault)
}

// NodeFaults registers -degrade in the node-fault grammar
// (cluster.ParseFaults).
func (s *Set) NodeFaults() *[]cluster.NodeFault {
	return Spec(s, "degrade", "", "per-node or per-rack faults: SCOPE:FAULT list, e.g. 0:x1.5;3:pause@500us+100us or rack0:x2", cluster.ParseFaults)
}

// Arrival registers -arrival and -modulate. The function it returns builds
// the named process at a rate, under the envelope when -modulate names one.
func (s *Set) Arrival() func(rateMRPS float64) (arrival.Process, error) {
	name := Spec(s, "arrival", "poisson", "arrival process: poisson, det, mmpp2, lognormal", func(n string) (string, error) {
		_, err := arrival.ByName(n, 1)
		return n, err
	})
	env := Spec(s, "modulate", "", "rate envelope: step@AT:xF, pulse@START+DUR:xF, ramp@START+DUR:xF, square@PERIOD/HIGH:xF", arrival.ParseEnvelope)
	return func(rateMRPS float64) (arrival.Process, error) {
		p, err := arrival.ByName(*name, rateMRPS)
		if err != nil || *env == nil {
			return p, err
		}
		return arrival.NewModulated(p, *env), nil
	}
}

// Trace is the span capture -tail, -trace-sample and -trace-jsonl ask for.
type Trace struct {
	Tail   *int    // keep the Tail slowest requests
	Sample *int    // collect 1 request in Sample for JSONL (0/1 = all)
	JSONL  *string // the JSON-lines path; empty = collect none
}

// Trace registers -tail, -trace-sample and -trace-jsonl.
func (s *Set) Trace(tailUsage, jsonlUsage string) Trace {
	t := Trace{
		Tail:   s.Count("tail", 0, 0, tailUsage),
		Sample: s.Count("trace-sample", 0, 0, "trace 1 in N requests (0/1 = every request; needs -trace-jsonl)"),
		JSONL:  s.String("trace-jsonl", "", jsonlUsage),
	}
	s.Needs("trace-sample", "-trace-jsonl", func() bool { return *t.JSONL != "" })
	return t
}

// Capture returns a fresh capture for one run.
func (t Trace) Capture() *obs.Capture { return obs.NewCapture(*t.Tail, *t.Sample, *t.JSONL != "") }
