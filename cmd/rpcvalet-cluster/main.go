// Command rpcvalet-cluster sweeps a rack of simulated RPCValet servers
// behind a cluster-level load balancer and prints the policy × load report
// table: p99 latency (and optionally throughput/imbalance) at each offered
// load, a fraction of the estimated aggregate capacity, for every balancing
// policy. Identical flags and seed reproduce identical tables.
//
// Usage (-h lists every flag with its grammar):
//
//	rpcvalet-cluster -nodes 2 -dispatch 1x16,16x1 -policies jsq2,random
//	rpcvalet-cluster -nodes 1000 -racks 8 -shards 8 -policies jsq2
//
// A -dispatch list names one plan per node. -racks splits the nodes into R
// racks behind rack balancers under a global balancer (-global-policy), and
// -degrade rack0:... then scopes a fault to a whole rack. -shards runs each
// simulation on N engine shards, deterministic for a fixed (seed, shards).
// The span flags take a unit (500ns, 2us); a bare number is ns.
//
// -timeline, -tail and -trace-jsonl re-run the highest-load point of the
// first policy with tracing on, and print its timelines, its K slowest
// requests' cross-node span breakdowns, and its sampled spans as JSON lines.
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"rpcvalet"
	"rpcvalet/internal/cli"
	"rpcvalet/internal/report"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// policy is one -policies entry: the name as typed labels its curve.
type policy struct {
	name string
	rpcvalet.ClusterPolicy
}

func parsePolicy(name string) (policy, error) {
	p, err := rpcvalet.ClusterPolicyByName(name)
	return policy{name, p}, err
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.New("rpcvalet-cluster", stderr)
	nodes := fs.Count("nodes", 4, 1, "servers behind the balancer")
	plans := fs.Dispatch("1x16", "dispatch plan(s): one spec (1x16|4x4|16x1|sw|jbsqN|GxM[:policy]) for all nodes, or a comma-separated per-node list")
	wl := fs.Workload("exp")
	pols := cli.List(fs, "policies", strings.Join(rpcvalet.ClusterPolicies(), ","),
		"comma-separated balancing policies (random, rr, jsqD, jsqfull, bounded)", parsePolicy)
	arr := fs.Arrival()
	points := fs.Count("points", 8, 1, "offered-load points per policy")
	lo := fs.Float64("lo", 0.3, "lowest load fraction of cluster capacity")
	hi := fs.Float64("hi", 0.9, "highest load fraction of cluster capacity")
	hop := fs.Nanos("hop", "500", "balancer→node network hop (bare number = ns)")
	sample := fs.Nanos("sample", "0", "balancer depth-view refresh period (0 = live)")
	racks := fs.Count("racks", 0, 0, "split nodes into R racks behind a global balancer (0 = flat)")
	gpol := cli.Spec(fs, "global-policy", "jsqfull", "global balancer policy over racks (needs -racks)", parsePolicy)
	ghop := fs.Nanos("global-hop", "500", "global balancer→rack balancer hop (needs -racks)")
	gsample := fs.Nanos("global-sample", "0", "global rack-depth scrape period (0 = live; needs -racks)")
	warmup, measure := fs.Window(2000, 20000)
	seed := fs.Uint64("seed", 1, "simulation seed")
	format := fs.Format("text", "csv", "json")
	detail := fs.Bool("detail", false, "also print throughput and imbalance tables")
	faults := fs.NodeFaults()
	epoch := fs.Epoch()
	timeline := fs.Bool("timeline", false, "print the highest-load point's timelines (first policy)")
	workers := fs.Count("workers", 0, 0, "concurrent simulations per sweep (0 = NumCPU)")
	shards := fs.Count("shards", 0, 0, "parallel engine shards per simulation (0/1 = serial single-clock engine)")
	tr := fs.Trace("retain the K slowest requests of the highest-load point (first policy) with cross-node span breakdowns",
		"write the highest-load point's sampled request spans as JSON lines to this file")
	for _, g := range []string{"global-policy", "global-hop", "global-sample"} {
		fs.Needs(g, "-racks", func() bool { return *racks > 0 })
	}
	if err := fs.Parse(args); err != nil {
		return fs.Bad(err)
	}

	// One base config serves every curve: the sweep clones both policies
	// for every point, so the curves can share the parsed instances.
	cfg := rpcvalet.DefaultCluster(*nodes, *wl, (*pols)[0].ClusterPolicy)
	if len(*plans) == 1 {
		cfg.Node.Params.Plan = (*plans)[0]
	} else {
		cfg.NodePlans = *plans
	}
	cfg.Faults = *faults
	cfg.Epoch = *epoch
	cfg.Hop = *hop
	cfg.SampleEvery = *sample
	if *racks > 0 {
		cfg.Racks = *racks
		cfg.GlobalPolicy = gpol.ClusterPolicy
		cfg.GlobalHop = *ghop
		cfg.GlobalSampleEvery = *gsample
	}
	cfg.Warmup = *warmup
	cfg.Measure = *measure
	cfg.Seed = *seed
	cfg.Shards = *shards
	capacity := rpcvalet.ClusterCapacityMRPS(cfg)
	loads := rpcvalet.RateGrid(1, *lo, *hi, *points)
	rates := rpcvalet.RateGrid(capacity, *lo, *hi, *points)
	// The sweep re-rates the process to each point's aggregate rate.
	var err error
	if cfg.Arrival, err = arr(cfg.RateMRPS); err == nil {
		// Every point passes if the slowest and the fastest do.
		for _, r := range []float64{slices.Min(rates), slices.Max(rates)} {
			point := cfg
			point.RateMRPS = r
			if err = point.Validate(); err != nil {
				break
			}
		}
	}
	if err != nil {
		return fs.Bad(err)
	}

	curves := make([]rpcvalet.Curve, len(*pols))
	for i, p := range *pols {
		cfg.Policy = p.ClusterPolicy
		if curves[i], err = rpcvalet.ClusterSweepWorkers(cfg, rates, p.name, *workers); err != nil {
			return fs.Fail(err)
		}
	}

	var out bytes.Buffer // writes to it cannot fail, nor can a checked -format
	topo := ""
	if *racks > 0 {
		topo = fmt.Sprintf(" in %d racks (%s global, %.0f ns global hop)", *racks, gpol.name, ghop.Nanos())
	}
	fmt.Fprintf(&out, "# cluster: %d × %s nodes%s, %s workload, capacity ≈ %.1f MRPS, hop %.0f ns, seed %d\n\n",
		*nodes, fs.Lookup("dispatch").Value, topo, wl.Name, capacity, hop.Nanos(), *seed)
	emit := func(title string, value func(rpcvalet.CurvePoint) float64) {
		cols := []string{"load", "rate_mrps"}
		for _, c := range curves {
			cols = append(cols, c.Label)
		}
		tbl := report.NewTable(title, cols...)
		for i, f := range loads {
			row := []any{f, curves[0].Points[i].RateMRPS}
			for _, c := range curves {
				row = append(row, value(c.Points[i]))
			}
			tbl.AddRowf(row...)
		}
		tbl.Format(&out, *format)
		fmt.Fprintln(&out)
	}
	emit("p99 latency (ns) by policy", func(p rpcvalet.CurvePoint) float64 { return p.P99 })
	if *detail {
		emit("throughput (MRPS) by policy", func(p rpcvalet.CurvePoint) float64 { return p.ThroughputMRPS })
		emit("completion imbalance (max/mean) by policy", func(p rpcvalet.CurvePoint) float64 { return p.Imbalance })
	}

	if *timeline || *tr.Tail > 0 || *tr.JSONL != "" {
		// One extra run of the highest-load point, first policy, with the
		// requested instrumentation. The balancing policy may be stateful
		// (round-robin rotation, bounded-load counters), so give the rerun a
		// fresh instance rather than the swept one.
		cfg.Policy = (*pols)[0].Clone()
		cfg.RateMRPS = rates[len(rates)-1]
		capture := tr.Capture()
		cfg.Trace = capture.Recorder()
		res, err := rpcvalet.RunCluster(cfg)
		if err == nil {
			err = capture.WriteJSONLFile(*tr.JSONL)
		}
		if err != nil {
			return fs.Fail(err)
		}
		if *tr.Tail > 0 {
			fmt.Fprintf(&out, "# slowest requests: policy %s at %.1f MRPS\n\n", curves[0].Label, cfg.RateMRPS)
			report.SpanTable("slowest requests", capture.TailSpans()).WriteText(&out)
			fmt.Fprintln(&out)
		}
		if *timeline {
			fmt.Fprintf(&out, "# timelines: policy %s at %.1f MRPS\n\n", curves[0].Label, cfg.RateMRPS)
			tl := res.Timeline()
			fmt.Fprintf(&out, "%s\n\n", report.TimelineSpark(tl))
			report.TimelineTable("aggregate timeline", tl).WriteText(&out)
			for i, tl := range res.NodeTimelines() {
				fmt.Fprintf(&out, "\nnode %d (%s, %s): %s\n", i, res.NodeDispatch[i], res.NodeFaults[i], report.TimelineSpark(tl))
			}
		}
	}
	return fs.Write(stdout, out.Bytes(), nil)
}
