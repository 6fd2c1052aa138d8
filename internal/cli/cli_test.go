package cli

import (
	"bytes"
	"flag"
	"fmt"
	"strings"
	"testing"

	"rpcvalet/internal/cluster"
	"rpcvalet/internal/machine"
	"rpcvalet/internal/sim"
)

// everyFlag registers every shared flag on one set, in the shape of
// rpcvalet-sim (one plan, machine faults) or, with node set, of
// rpcvalet-cluster (a plan list, node faults, the -global-* rules). check
// reports an accepted value that the commands' validation would refuse.
func everyFlag(stderr *bytes.Buffer, node bool) (s *Set, check func() error) {
	s = New("cmd", stderr)
	plan, list, fault, nodeFaults := new(*machine.Plan), new([]*machine.Plan), new(machine.Fault), new([]cluster.NodeFault)
	if node {
		list, nodeFaults = s.Dispatch("1x16", ""), s.NodeFaults()
	} else {
		plan, fault = s.Plan("1x16", ""), s.Fault()
	}
	wl := s.Workload("herd")
	arr := s.Arrival()
	warmup, measure := s.Window(5000, 50000)
	format := s.Format("text", "csv", "json")
	epoch := s.Epoch()
	tr := s.Trace("", "")
	racks := s.Count("racks", 0, 0, "")
	spans := []*sim.Duration{epoch, s.Nanos("hop", "500", ""), s.Nanos("sample", "0", ""), s.Nanos("global-hop", "500", ""), s.Nanos("global-sample", "0", "")}
	for _, g := range []string{"global-hop", "global-sample"} {
		s.Needs(g, "-racks", func() bool { return *racks > 0 })
	}
	check = func() error {
		plans, faults := *list, []machine.Fault{*fault}
		if !node {
			plans = []*machine.Plan{*plan}
		}
		for _, f := range *nodeFaults {
			if f.Node < 0 {
				return fmt.Errorf("fault scope %d", f.Node)
			}
			faults = append(faults, f.Fault)
		}
		p, err := arr(1)
		if err != nil {
			return err
		}
		for i, pl := range plans {
			// Measure 1: New presizes the run log to Warmup+Measure, and the
			// counts are checked below.
			cfg := machine.Config{Params: machine.Defaults(), Workload: *wl, Arrival: p, Measure: 1,
				Epoch: *epoch, Fault: faults[i%len(faults)]}
			cfg.Params.Plan = pl
			if _, err := machine.New(cfg); err != nil {
				return fmt.Errorf("plan %s: %v", pl.Name, err)
			}
		}
		for _, d := range spans {
			if *d < 0 || *d > 1000*sim.Second {
				return fmt.Errorf("span %v", *d)
			}
		}
		switch {
		case *warmup < 0 || *measure < 1 || *tr.Tail < 0 || *tr.Sample < 0 || *racks < 0:
			return fmt.Errorf("count out of range: %d %d %d %d %d", *warmup, *measure, *tr.Tail, *tr.Sample, *racks)
		case *format != "text" && *format != "csv" && *format != "json":
			return fmt.Errorf("format %q", *format)
		}
		given := map[string]bool{}
		s.Visit(func(f *flag.Flag) { given[f.Name] = true })
		if given["trace-sample"] && *tr.JSONL == "" {
			return fmt.Errorf("-trace-sample accepted without -trace-jsonl")
		}
		if (given["global-hop"] || given["global-sample"]) && *racks == 0 {
			return fmt.Errorf("-global-* accepted without -racks")
		}
		return nil
	}
	return s, check
}

// FuzzArgs parses argument vectors (the input split at spaces) over every
// shared flag. Each must either fail Parse, printing nothing, with an error
// Bad reports on one line, or yield values the commands' validation accepts: every
// plan builds a machine, every span is finite and in [0, 1000 s], every
// count is in range, and no no-op flag got through.
func FuzzArgs(f *testing.F) {
	for _, seed := range []string{
		"",
		"-dispatch 1x16,4x4 -workload gev -arrival mmpp2 -modulate pulse@400us+200us:x2",
		"-dispatch 2x8:random2 -degrade x1.5,pause@200us+100us -epoch 25us",
		"-degrade 0:x1.5;rack1:pause@1ms+5us -racks 2 -global-hop 1us",
		"-dispatch 1x16,bogus", "-dispatch 5x3", "-dispatch sw:random2",
		"-hop -5", "-hop NaN", "-sample 1e30", "-global-sample Inf", "-global-hop 5",
		"-measure 0", "-warmup -1", "-tail -3", "-trace-sample 4", "-trace-sample 4 -trace-jsonl f",
		"-format xml", "-format=", "-workload=", "-arrival=", "-epoch=", "-racks 0x10",
		"-h", "extra", "-nosuch", "-tail 1 --", "-measure 99999999999999999999",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		var args []string
		if line != "" {
			args = strings.Split(line, " ")
		}
		for _, node := range []bool{false, true} {
			var stderr bytes.Buffer
			s, check := everyFlag(&stderr, node)
			err := s.Parse(args)
			if stderr.Len() != 0 {
				t.Fatalf("%q: Parse printed %q", args, stderr.String())
			}
			if err != nil {
				if code := s.Bad(err); code == 2 && !(strings.HasPrefix(stderr.String(), "cmd: ") && strings.Count(stderr.String(), "\n") == 1) {
					t.Fatalf("%q: Bad printed %q, not one line", args, stderr.String())
				}
				continue
			}
			if err := check(); err != nil {
				t.Fatalf("%q (node=%v) parsed, but %v", args, node, err)
			}
		}
	})
}

func TestBadAndFailPrintOneLine(t *testing.T) {
	var stderr bytes.Buffer
	s := New("cmd", &stderr)
	s.Count("n", 1, 1, "a count")
	if code := s.Bad(s.Parse([]string{"-n", "0"})); code != 2 || stderr.String() != "cmd: invalid value \"0\" for flag -n: must be at least 1\n" {
		t.Fatalf("Bad: exit %d, stderr %q", code, stderr.String())
	}
	stderr.Reset()
	if code := s.Fail(fmt.Errorf("boom")); code != 1 || stderr.String() != "cmd: boom\n" {
		t.Fatalf("Fail: exit %d, stderr %q", code, stderr.String())
	}
	stderr.Reset()
	if code := s.Bad(s.Parse([]string{"-h"})); code != 0 || !strings.Contains(stderr.String(), "-n value\n    \ta count (default 1)") {
		t.Fatalf("-h: exit %d, usage %q", code, stderr.String())
	}
}
