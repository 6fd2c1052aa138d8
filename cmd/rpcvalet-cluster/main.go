// Command rpcvalet-cluster sweeps a rack of simulated RPCValet servers
// behind a cluster-level load balancer and prints the policy × load report
// table: p99 latency (and optionally throughput/imbalance) at each offered
// load for every requested balancing policy. Identical flags and seed
// reproduce identical tables.
//
// Usage:
//
//	rpcvalet-cluster [-nodes 4] [-dispatch 1x16] [-workload exp]
//	                 [-policies random,rr,jsq2,bounded] [-arrival poisson]
//	                 [-points 8] [-lo 0.3] [-hi 0.9] [-hop 500] [-sample 0]
//	                 [-racks 8] [-global-policy jsqfull] [-global-hop 500]
//	                 [-global-sample 0]
//	                 [-modulate pulse@400us+200us:x2] [-degrade 0:x1.5]
//	                 [-epoch 25us] [-timeline]
//	                 [-tail 32] [-trace-sample 1024] [-trace-jsonl spans.jsonl]
//	                 [-warmup 2000] [-measure 20000] [-seed 1] [-workers N]
//	                 [-shards N] [-format text|csv|json] [-detail]
//
// -dispatch names the per-node NI dispatch plan: "1x16" (RPCValet, the
// default), "4x4", "16x1" (RSS baseline), "sw" (MCS software queue), "jbsqN"
// or "GxM"[:policy]; a comma-separated list assigns plans node by node — a
// heterogeneous rack — and must name one plan per node (e.g. -nodes 2
// -dispatch 1x16,16x1). Workloads: herd, masstree, fixed, uniform, exp,
// gev. Arrivals shape the aggregate traffic: poisson (default), det,
// mmpp2, lognormal. Loads are fractions of the cluster's estimated
// aggregate capacity.
//
// -racks splits the node set into R racks, each behind its own rack
// balancer, with a global balancer dispatching over rack aggregate depths —
// the two-tier datacenter topology. -global-policy picks the global tier's
// policy (same grammar as -policies; the -policies list still names the
// rack-level policy of each curve), -global-hop the global→rack network
// latency in ns, and -global-sample a stale-scrape period for the global
// depth view (0 = live). -racks 0 keeps the flat single-tier cluster.
//
// -modulate wraps the aggregate arrival stream in a rate envelope
// ("step@AT:xF", "pulse@START+DUR:xF", "ramp@START+DUR:xF",
// "square@PERIOD/HIGH:xF"); -degrade injects per-node or per-rack faults
// ("0:x1.5;3:pause@500us+100us", "rack0:pause@1ms+500us" — rack scopes
// need -racks); -timeline prints the highest-load point's aggregate and
// per-node timelines for the first policy.
//
// -shards runs each simulation on N parallel engine shards — per-node-group
// event wheels plus a balancer shard, synchronized conservatively at the
// network hop (the lookahead window). 0 or 1 selects the serial single-clock
// engine, byte-identical to all pinned results; N > 1 is deterministic for a
// fixed (seed, shards) pair. Sweep fan-out narrows so -workers still caps
// total goroutines.
//
// Observability: -tail and -trace-jsonl re-run the highest-load point for
// the first policy (the same run -timeline inspects) with request tracing
// on. -tail prints the K slowest requests with their full cross-node span
// breakdowns — balancer receive, forward, node arrival, dispatch, service —
// and -trace-jsonl writes sampled request spans (1-in-N by -trace-sample) as
// JSON lines.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rpcvalet"
	"rpcvalet/internal/obs"
	"rpcvalet/internal/report"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/workload"
)

// usage reports a bad flag value and exits 2 before anything is simulated.
func usage(err error) {
	fmt.Fprintf(os.Stderr, "rpcvalet-cluster: %v\n", err)
	os.Exit(2)
}

// fatal reports a failed run or write and exits 1.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rpcvalet-cluster: %v\n", err)
	os.Exit(1)
}

func main() {
	var (
		nodes    = flag.Int("nodes", 4, "servers behind the balancer")
		dispatch = flag.String("dispatch", "1x16", "dispatch plan(s): one spec (1x16|4x4|16x1|sw|jbsqN|GxM[:policy]) for all nodes, or a comma-separated per-node list")
		wlName   = flag.String("workload", "exp", "workload: herd, masstree, fixed, uniform, exp, gev")
		policies = flag.String("policies", strings.Join(rpcvalet.ClusterPolicies(), ","),
			"comma-separated balancing policies (random, rr, jsqD, jsqfull, bounded)")
		arrName  = flag.String("arrival", "poisson", "arrival process: poisson, det, mmpp2, lognormal")
		points   = flag.Int("points", 8, "offered-load points per policy")
		lo       = flag.Float64("lo", 0.3, "lowest load fraction of cluster capacity")
		hi       = flag.Float64("hi", 0.9, "highest load fraction of cluster capacity")
		hop      = flag.Float64("hop", 500, "balancer→node network hop, ns")
		sample   = flag.Float64("sample", 0, "balancer depth-view refresh period, ns (0 = live)")
		racks    = flag.Int("racks", 0, "split nodes into R racks behind a global balancer (0 = flat)")
		gpolName = flag.String("global-policy", "jsqfull", "global balancer policy over racks (used with -racks)")
		ghop     = flag.Float64("global-hop", 500, "global balancer→rack balancer hop, ns (used with -racks)")
		gsample  = flag.Float64("global-sample", 0, "global rack-depth scrape period, ns (0 = live; used with -racks)")
		warmup   = flag.Int("warmup", 2000, "completions discarded before measuring")
		measure  = flag.Int("measure", 20000, "completions measured per point")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		format   = flag.String("format", "text", "output format: text, csv, or json")
		detail   = flag.Bool("detail", false, "also print throughput and imbalance tables")
		modulate = flag.String("modulate", "", "aggregate rate envelope: step@AT:xF, pulse@START+DUR:xF, ramp@START+DUR:xF, square@PERIOD/HIGH:xF")
		degrade  = flag.String("degrade", "", "per-node or per-rack faults: SCOPE:FAULT list, e.g. 0:x1.5;3:pause@500us+100us or rack0:x2")
		epoch    = flag.String("epoch", "", "timeline epoch length (e.g. 25us; empty = auto)")
		timeline = flag.Bool("timeline", false, "print the highest-load point's timelines (first policy)")
		workers  = flag.Int("workers", 0, "concurrent simulations per sweep (0 = NumCPU)")
		shards   = flag.Int("shards", 0, "parallel engine shards per simulation (0/1 = serial single-clock engine)")

		tailK       = flag.Int("tail", 0, "retain the K slowest requests of the highest-load point (first policy) with cross-node span breakdowns")
		traceSample = flag.Int("trace-sample", 0, "trace 1 in N requests (0/1 = every request; used with -trace-jsonl)")
		traceJSONL  = flag.String("trace-jsonl", "", "write the highest-load point's sampled request spans as JSON lines to this file")
	)
	flag.Parse()

	if *format != "text" && *format != "csv" && *format != "json" {
		usage(fmt.Errorf("unknown format %q (want text, csv or json)", *format))
	}
	params := rpcvalet.DefaultParams()
	var nodePlans []*rpcvalet.DispatchPlan
	specs := strings.Split(*dispatch, ",")
	plans := make([]*rpcvalet.DispatchPlan, len(specs))
	for i, spec := range specs {
		pl, err := rpcvalet.ParseDispatchPlan(strings.TrimSpace(spec))
		if err != nil {
			usage(err)
		}
		plans[i] = pl
	}
	switch len(plans) {
	case 1:
		params.Plan = plans[0]
	case *nodes:
		nodePlans = plans
	default:
		usage(fmt.Errorf("%d dispatch plans for %d nodes (want 1 or %d)", len(plans), *nodes, *nodes))
	}

	wl, err := workload.ByName(*wlName)
	if err != nil {
		usage(err)
	}

	var faults []rpcvalet.NodeFault
	if *degrade != "" {
		if faults, err = rpcvalet.ParseNodeFaults(*degrade); err != nil {
			usage(err)
		}
	}
	var env rpcvalet.Envelope
	if *modulate != "" {
		if env, err = rpcvalet.ParseEnvelope(*modulate); err != nil {
			usage(err)
		}
	}
	var epochDur sim.Duration
	if *epoch != "" {
		if epochDur, err = sim.ParseDuration(*epoch); err != nil {
			usage(err)
		}
	}

	names := strings.Split(*policies, ",")
	curves := make([]rpcvalet.Curve, 0, len(names))
	var loads []float64
	var capacity float64
	var lastCfg rpcvalet.Cluster // first policy's config, for -timeline
	for pi, name := range names {
		name = strings.TrimSpace(name)
		pol, err := rpcvalet.ClusterPolicyByName(name)
		if err != nil {
			usage(err)
		}
		cfg := rpcvalet.DefaultCluster(*nodes, wl, pol)
		cfg.Node.Params = params
		cfg.NodePlans = nodePlans
		cfg.Faults = faults
		cfg.Epoch = epochDur
		// The sweep re-rates the process to each point's aggregate rate.
		cfg.Arrival, err = rpcvalet.ArrivalByName(*arrName, cfg.RateMRPS)
		if err != nil {
			usage(err)
		}
		if env != nil {
			cfg.Arrival = rpcvalet.ArrivalModulated(cfg.Arrival, env)
		}
		cfg.Hop = sim.FromNanos(*hop)
		cfg.SampleEvery = sim.FromNanos(*sample)
		if *racks > 0 {
			cfg.Racks = *racks
			cfg.GlobalPolicy, err = rpcvalet.ClusterPolicyByName(*gpolName)
			if err != nil {
				usage(err)
			}
			cfg.GlobalHop = sim.FromNanos(*ghop)
			cfg.GlobalSampleEvery = sim.FromNanos(*gsample)
		}
		cfg.Warmup = *warmup
		cfg.Measure = *measure
		cfg.Seed = *seed
		cfg.Shards = *shards
		capacity = rpcvalet.ClusterCapacityMRPS(cfg)
		if loads == nil {
			loads = rpcvalet.RateGrid(1, *lo, *hi, *points)
		}
		rates := make([]float64, len(loads))
		for i, f := range loads {
			rates[i] = f * capacity
		}
		curve, err := rpcvalet.ClusterSweepWorkers(cfg, rates, name, *workers)
		if err != nil {
			fatal(err)
		}
		curves = append(curves, curve)
		if pi == 0 {
			lastCfg = cfg
			lastCfg.RateMRPS = rates[len(rates)-1]
		}
	}

	topo := ""
	if *racks > 0 {
		topo = fmt.Sprintf(" in %d racks (%s global, %.0f ns global hop)", *racks, *gpolName, *ghop)
	}
	fmt.Printf("# cluster: %d × %s nodes%s, %s workload, capacity ≈ %.1f MRPS, hop %.0f ns, seed %d\n\n",
		*nodes, *dispatch, topo, wl.Name, capacity, *hop, *seed)
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
		if err := tbl.Format(os.Stdout, *format); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	emit("p99 latency (ns) by policy", func(p rpcvalet.CurvePoint) float64 { return p.P99 })
	if *detail {
		emit("throughput (MRPS) by policy", func(p rpcvalet.CurvePoint) float64 { return p.ThroughputMRPS })
		emit("completion imbalance (max/mean) by policy", func(p rpcvalet.CurvePoint) float64 { return p.Imbalance })
	}

	if *timeline || *tailK > 0 || *traceJSONL != "" {
		// One extra run of the highest-load point, first policy, with the
		// requested instrumentation. The balancing policy may be stateful
		// (round-robin rotation, bounded-load counters), so give the rerun a
		// fresh instance rather than the swept one.
		lastCfg.Policy = lastCfg.Policy.Clone()
		capture := obs.NewCapture(*tailK, *traceSample, *traceJSONL != "")
		lastCfg.Trace = capture.Recorder()
		res, err := rpcvalet.RunCluster(lastCfg)
		if err != nil {
			fatal(err)
		}
		if *traceJSONL != "" {
			if err := capture.WriteJSONLFile(*traceJSONL); err != nil {
				fatal(err)
			}
		}
		if *tailK > 0 {
			fmt.Printf("# slowest requests: policy %s at %.1f MRPS\n\n", curves[0].Label, lastCfg.RateMRPS)
			if err := report.SpanTable("slowest requests", capture.TailSpans()).WriteText(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
		if !*timeline {
			return
		}
		fmt.Printf("# timelines: policy %s at %.1f MRPS\n\n", curves[0].Label, lastCfg.RateMRPS)
		fmt.Println(report.TimelineSpark(res.Timeline))
		fmt.Println()
		if err := report.TimelineTable("aggregate timeline", res.Timeline).WriteText(os.Stdout); err != nil {
			fatal(err)
		}
		for i, tl := range res.NodeTimelines {
			fmt.Printf("\nnode %d (%s, %s): %s\n", i, res.NodeDispatch[i], res.NodeFaults[i], report.TimelineSpark(tl))
		}
	}
}
