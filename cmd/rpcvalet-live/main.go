// Command rpcvalet-live runs the dispatch plans on real hardware: goroutine
// workers serving synthesized service times on wall-clock time, behind a
// shared MPMC queue (1x16), per-worker RSS-partitioned queues (16x1), or a
// bounded JBSQ(n) dispatcher — the live counterpart of rpcvalet-sim.
//
// Usage:
//
//	rpcvalet-live [-plan 1x16,jbsq2,16x1] [-workload gev] [-rate 0]
//	              [-duration 1s] [-workers 8] [-emulation auto|spin|sleep]
//	              [-scale 0] [-seed 1] [-format text|json] [-timeline]
//	              [-obs :9090] [-tail 32] [-trace-sample 1024]
//	              [-trace-jsonl spans.jsonl]
//
// -plan takes a comma-separated list of live-supported dispatch plans
// ("1x16"/"single"/"sw" = shared queue, "16x1"/"partitioned" = per-worker
// RSS, "jbsqN" = bounded dispatch); the shapes run sequentially, each owning
// the machine for its window, and print as one comparison table.
// -rate is the offered load in MRPS; 0 picks 65% of the estimated live
// capacity. -scale multiplies every sampled service time; 0 picks the
// emulation's recommended lift above its noise floor (see DESIGN.md §6).
// Latencies are wall-clock measurements: the offered schedule is
// deterministic in -seed, the measured tails are not.
//
// Observability: -obs serves /metrics (Prometheus text format, counters and
// latency histograms labeled by plan, updated live while the runs are in
// flight), /healthz, and /debug/pprof on the given address for the life of
// the process. -tail retains each plan's K slowest requests with full span
// breakdowns and prints them as a table; -trace-jsonl appends each plan's
// sampled request spans (1-in-N by -trace-sample) as JSON lines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rpcvalet"
	"rpcvalet/internal/live"
	"rpcvalet/internal/report"
	"rpcvalet/internal/workload"
)

func fail(err error) {
	fmt.Fprintf(os.Stderr, "rpcvalet-live: %v\n", err)
	os.Exit(2)
}

func main() {
	var (
		plans    = flag.String("plan", "1x16,jbsq2,16x1", "comma-separated dispatch plans: 1x16|sw|16x1|jbsqN")
		wlName   = flag.String("workload", "gev", "workload: herd, masstree, fixed, uniform, exp, gev")
		rate     = flag.Float64("rate", 0, "offered load in MRPS (0 = 65% of estimated live capacity)")
		duration = flag.Duration("duration", time.Second, "offered-load window per plan (wall clock)")
		workers  = flag.Int("workers", 0, "serving goroutines (0 = 8)")
		emu      = flag.String("emulation", "auto", "service emulation: auto, spin, sleep")
		scale    = flag.Float64("scale", 0, "service-time multiplier (0 = emulation's recommended lift)")
		seed     = flag.Uint64("seed", 1, "offered-schedule seed")
		format   = flag.String("format", "text", "output format: text or json")
		timeline = flag.Bool("timeline", false, "print each plan's epoch-sliced timeline (text format)")

		obsAddr     = flag.String("obs", "", "serve /metrics, /healthz, /debug/pprof on this address (e.g. :9090) while runs are in flight")
		tailK       = flag.Int("tail", 0, "retain each plan's K slowest requests with span breakdowns")
		traceSample = flag.Int("trace-sample", 0, "trace 1 in N requests (0/1 = every request; used with -trace-jsonl)")
		traceJSONL  = flag.String("trace-jsonl", "", "append sampled request spans as JSON lines to this file")
	)
	flag.Parse()

	wl, err := workload.ByName(*wlName)
	if err != nil {
		fail(err)
	}
	em, err := live.ParseEmulation(*emu)
	if err != nil {
		fail(err)
	}
	if *format != "text" && *format != "json" {
		fail(fmt.Errorf("unknown format %q (want text or json)", *format))
	}

	base := rpcvalet.LiveConfig{
		Workload:     wl,
		Workers:      *workers,
		Duration:     *duration,
		Seed:         *seed,
		ServiceScale: *scale,
		Emulation:    em,
	}
	base.RateMRPS = *rate
	if base.RateMRPS <= 0 {
		base.RateMRPS = 0.65 * rpcvalet.LiveCapacityMRPS(base)
	}

	var reg *rpcvalet.ObsRegistry
	if *obsAddr != "" {
		reg = rpcvalet.NewObsRegistry()
		srv, err := rpcvalet.ServeObs(*obsAddr, reg, nil)
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "rpcvalet-live: observability on http://%s (/metrics, /healthz, /debug/pprof)\n", srv.Addr())
	}
	var jsonl *os.File
	if *traceJSONL != "" {
		var err error
		if jsonl, err = os.Create(*traceJSONL); err != nil {
			fail(err)
		}
		defer jsonl.Close()
	}

	// Each plan's result carries its tail spans (nil without -tail), which
	// JSON output embeds as TailSpans.
	type planResult struct {
		rpcvalet.LiveResult
		TailSpans []rpcvalet.Span
	}
	var results []planResult
	for _, spec := range strings.Split(*plans, ",") {
		pl, err := rpcvalet.ParseDispatchPlan(strings.TrimSpace(spec))
		if err != nil {
			fail(err)
		}
		cfg := base
		cfg.Plan = pl
		if reg != nil {
			cfg.Obs = rpcvalet.NewObsRunMetrics(reg, rpcvalet.ObsLabels{"plan": pl.Name})
		}
		capture := rpcvalet.NewCapture(*tailK, *traceSample, jsonl != nil)
		cfg.Trace = capture.Recorder()
		res, err := rpcvalet.RunLive(cfg)
		if err != nil {
			fail(err)
		}
		if jsonl != nil {
			if err := capture.WriteJSONL(jsonl); err != nil {
				fail(err)
			}
		}
		results = append(results, planResult{LiveResult: res, TailSpans: capture.TailSpans()})
	}

	if *format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fail(err)
		}
		return
	}

	r0 := results[0]
	fmt.Printf("live runtime: %d workers, %s emulation, service ×%.1f, workload=%s, offered=%.4f MRPS, %v per plan\n",
		r0.Workers, r0.Emulation, r0.ServiceScale, r0.Workload, r0.RateMRPS, *duration)
	if r0.SpinsPerNs > 0 {
		fmt.Printf("spin calibration: %.2f rounds/ns\n", r0.SpinsPerNs)
	}
	fmt.Println()

	tbl := report.NewTable("wall-clock measurement by plan",
		"plan", "completed", "dropped", "thr_mrps", "p50_ns", "p99_ns", "p99.9_ns", "svc_mean_ns", "slo_ns", "meets")
	for _, r := range results {
		tbl.AddRowf(r.Plan, r.Completed, r.Dropped, r.ThroughputMRPS,
			r.Latency.P50, r.Latency.P99, r.Latency.P999, r.ServiceMeanNanos, r.SLONanos, r.MeetsSLO)
	}
	if err := tbl.WriteText(os.Stdout); err != nil {
		fail(err)
	}

	if *tailK > 0 {
		for _, r := range results {
			fmt.Println()
			if err := report.SpanTable(r.Plan+" slowest requests", r.TailSpans).WriteText(os.Stdout); err != nil {
				fail(err)
			}
		}
	}

	if *timeline {
		for _, r := range results {
			fmt.Printf("\n%s p99 %s\n", r.Plan, report.TimelineSpark(r.Timeline))
			if err := report.TimelineTable(r.Plan+" timeline", r.Timeline).WriteText(os.Stdout); err != nil {
				fail(err)
			}
		}
	}
}
