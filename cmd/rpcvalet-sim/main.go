// Command rpcvalet-sim runs a single full-machine simulation and prints the
// measured result in detail: latency percentiles (per request class), the
// derived SLO, throughput, and per-core/backend utilization.
//
// Usage:
//
//	rpcvalet-sim [-dispatch 1x16] -workload herd -rate 10 [-measure 50000]
//	             [-arrival poisson] [-threshold 2] [-seed 1]
//	             [-modulate pulse@400us+200us:x2]
//	             [-degrade x1.5] [-epoch 25us] [-timeline]
//	             [-tail 32] [-trace-sample 1024] [-trace-jsonl spans.jsonl]
//	             [-format text|json]
//
// -dispatch names the dispatch plan: "1x16" (RPCValet, the default), "4x4",
// "16x1" (RSS baseline), "sw" (MCS software queue), "jbsqN" or "GxM",
// optionally ":policy" (first-available, round-robin, least-outstanding,
// least-outstanding-rr, randomN, local) — e.g. -dispatch 1x16:least-outstanding,
// -dispatch 2x8:random2, -dispatch jbsq1.
// Workloads: herd, masstree, fixed, uniform, exp, gev.
// Arrivals: poisson (default), det, mmpp2, lognormal — same mean rate,
// different burstiness.
// -modulate wraps the arrival process in a rate envelope ("step@AT:xF",
// "pulse@START+DUR:xF", "ramp@START+DUR:xF", "square@PERIOD/HIGH:xF");
// -degrade injects machine faults ("x1.5" slowdown, "pause@200us+100us"
// stall windows, comma-combinable); -timeline prints the epoch-sliced
// timeline (sparkline + table) alongside the summary.
//
// Observability: -tail retains the K slowest requests with full span
// breakdowns (queue wait / dispatch / service, core attribution, queue depth
// at arrival) and prints them as a table (JSON output embeds them as
// TailSpans); -trace-jsonl writes sampled request spans (1-in-N by
// -trace-sample) as JSON lines. Tracing is passive: results are
// byte-identical with it on or off.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"rpcvalet"
	"rpcvalet/internal/report"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/workload"
)

// usage reports a bad flag value and exits 2 before anything is simulated.
func usage(err error) {
	fmt.Fprintf(os.Stderr, "rpcvalet-sim: %v\n", err)
	os.Exit(2)
}

// fatal reports a failed run or write and exits 1.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rpcvalet-sim: %v\n", err)
	os.Exit(1)
}

func main() {
	var (
		dispatch  = flag.String("dispatch", "1x16", "dispatch plan: 1x16|4x4|16x1|sw|jbsqN|GxM[:policy]")
		wlName    = flag.String("workload", "herd", "workload: herd, masstree, fixed, uniform, exp, gev")
		rate      = flag.Float64("rate", 10, "offered load in MRPS")
		arrName   = flag.String("arrival", "poisson", "arrival process: poisson, det, mmpp2, lognormal")
		warmup    = flag.Int("warmup", 5000, "completions discarded before measuring")
		measure   = flag.Int("measure", 50000, "completions measured")
		threshold = flag.Int("threshold", 2, "outstanding requests per core")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		format    = flag.String("format", "text", "output format: text or json")
		modulate  = flag.String("modulate", "", "rate envelope: step@AT:xF, pulse@START+DUR:xF, ramp@START+DUR:xF, square@PERIOD/HIGH:xF")
		degrade   = flag.String("degrade", "", "machine fault: x<factor> slowdown and/or pause@START+DUR, comma-separated")
		epoch     = flag.String("epoch", "", "timeline epoch length (e.g. 25us; empty = auto)")
		timeline  = flag.Bool("timeline", false, "print the epoch-sliced timeline (text format only; json output always embeds it as Timeline)")

		tailK       = flag.Int("tail", 0, "retain the K slowest requests with span breakdowns")
		traceSample = flag.Int("trace-sample", 0, "trace 1 in N requests (0/1 = every request; used with -trace-jsonl)")
		traceJSONL  = flag.String("trace-jsonl", "", "write sampled request spans as JSON lines to this file")
	)
	flag.Parse()

	if *format != "text" && *format != "json" {
		usage(fmt.Errorf("unknown format %q (want text or json)", *format))
	}
	params := rpcvalet.DefaultParams()
	params.Threshold = *threshold
	pl, err := rpcvalet.ParseDispatchPlan(*dispatch)
	if err != nil {
		usage(err)
	}
	params.Plan = pl

	wl, err := workload.ByName(*wlName)
	if err != nil {
		usage(err)
	}

	arr, err := rpcvalet.ArrivalByName(*arrName, *rate)
	if err != nil {
		usage(err)
	}
	if *modulate != "" {
		env, err := rpcvalet.ParseEnvelope(*modulate)
		if err != nil {
			usage(err)
		}
		arr = rpcvalet.ArrivalModulated(arr, env)
	}

	cfg := rpcvalet.Config{
		Params:   params,
		Workload: wl,
		RateMRPS: *rate,
		Arrival:  arr,
		Warmup:   *warmup,
		Measure:  *measure,
		Seed:     *seed,
	}
	if *degrade != "" {
		f, err := rpcvalet.ParseFault(*degrade)
		if err != nil {
			usage(err)
		}
		cfg.Fault = f
	}
	if *epoch != "" {
		d, err := sim.ParseDuration(*epoch)
		if err != nil {
			usage(err)
		}
		cfg.Epoch = d
	}
	capture := rpcvalet.NewCapture(*tailK, *traceSample, *traceJSONL != "")
	cfg.Trace = capture.Recorder()

	res, err := rpcvalet.Run(cfg)
	if err != nil {
		fatal(err)
	}
	if *traceJSONL != "" {
		if err := capture.WriteJSONLFile(*traceJSONL); err != nil {
			fatal(err)
		}
	}

	tailSpans := capture.TailSpans()
	if *format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		out := struct {
			rpcvalet.Result
			TailSpans []rpcvalet.Span
		}{res, tailSpans}
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("%s  workload=%s  offered=%.2f MRPS  seed=%d\n\n",
		res.Dispatch, res.Workload, res.RateMRPS, res.Seed)

	sum := report.NewTable("measurement", "metric", "value")
	sum.AddRowf("throughput (MRPS)", res.ThroughputMRPS)
	sum.AddRowf("mean service S̄ (ns)", res.ServiceMeanNanos)
	sum.AddRowf("SLO (ns)", res.SLONanos)
	sum.AddRowf("meets SLO", res.MeetsSLO)
	sum.AddRowf("completions", res.Completed)
	sum.AddRowf("max queue depth", res.DispatcherMaxDepth)
	sum.AddRowf("blocked arrivals", res.BlockedArrivals)
	sum.AddRowf("reply stalls", res.ReplyStalls)
	sum.AddRowf("timed out", res.TimedOut)
	if err := sum.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Println()

	lat := report.NewTable("latency (ns)", "class", "count", "mean", "p50", "p99", "p99.9", "max")
	lat.AddRowf("measured", res.Latency.Count, res.Latency.Mean, res.Latency.P50,
		res.Latency.P99, res.Latency.P999, res.Latency.Max)
	classes := make([]string, 0, len(res.ClassLatency))
	for name := range res.ClassLatency {
		classes = append(classes, name)
	}
	sort.Strings(classes)
	for _, name := range classes {
		s := res.ClassLatency[name]
		lat.AddRowf(name, s.Count, s.Mean, s.P50, s.P99, s.P999, s.Max)
	}
	if err := lat.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Println()

	util := report.NewTable("utilization", "unit", "busy fraction")
	for i, u := range res.CoreUtilization {
		util.AddRowf(fmt.Sprintf("core %d", i), u)
	}
	for i, u := range res.BackendUtilization {
		util.AddRowf(fmt.Sprintf("backend %d", i), u)
	}
	if err := util.WriteText(os.Stdout); err != nil {
		fatal(err)
	}

	if *tailK > 0 {
		fmt.Println()
		if err := report.SpanTable("slowest requests", tailSpans).WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if *timeline {
		fmt.Println()
		fmt.Println(report.TimelineSpark(res.Timeline))
		fmt.Println()
		if err := report.TimelineTable("timeline", res.Timeline).WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}
}
