// Command rpcvalet-sim runs a single full-machine simulation and prints the
// measured result in detail: latency percentiles (per request class), the
// derived SLO, throughput, and per-core/backend utilization.
//
// Usage (-h lists every flag with its grammar):
//
//	rpcvalet-sim -dispatch 16x1 -workload gev -rate 11 -tail 10
//	rpcvalet-sim -dispatch 2x8:random2 -degrade x1.5 -timeline
//
// -tail prints the K slowest requests' span breakdowns (JSON output embeds
// them as TailSpans), and -trace-jsonl writes sampled spans as JSON lines.
// Tracing is passive: results are byte-identical with it on or off.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"rpcvalet"
	"rpcvalet/internal/cli"
	"rpcvalet/internal/report"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.New("rpcvalet-sim", stderr)
	plan := fs.Plan("1x16", "dispatch plan: 1x16|4x4|16x1|sw|jbsqN|GxM[:policy]")
	wl := fs.Workload("herd")
	rate := fs.Float64("rate", 10, "offered load in MRPS")
	arr := fs.Arrival()
	warmup, measure := fs.Window(5000, 50000)
	threshold := fs.Int("threshold", 2, "outstanding requests per core")
	seed := fs.Uint64("seed", 1, "simulation seed")
	format := fs.Format("text", "json")
	fault := fs.Fault()
	epoch := fs.Epoch()
	timeline := fs.Bool("timeline", false, "print the epoch-sliced timeline (json output always embeds it as Timeline)")
	tr := fs.Trace("retain the K slowest requests with span breakdowns", "write sampled request spans as JSON lines to this file")
	fs.Needs("timeline", "-format text", func() bool { return *format == "text" })
	if err := fs.Parse(args); err != nil {
		return fs.Bad(err)
	}

	cfg := rpcvalet.Config{
		Params:   rpcvalet.DefaultParams(),
		Workload: *wl,
		RateMRPS: *rate,
		Warmup:   *warmup,
		Measure:  *measure,
		Seed:     *seed,
		Fault:    *fault,
		Epoch:    *epoch,
	}
	cfg.Params.Threshold = *threshold
	cfg.Params.Plan = *plan
	capture := tr.Capture()
	cfg.Trace = capture.Recorder()
	var err error
	if cfg.Arrival, err = arr(*rate); err == nil {
		err = cfg.Validate()
	}
	if err != nil {
		return fs.Bad(err)
	}

	res, err := rpcvalet.Run(cfg)
	if err == nil {
		err = capture.WriteJSONLFile(*tr.JSONL)
	}
	if err != nil {
		return fs.Fail(err)
	}
	tailSpans := capture.TailSpans()
	if *format == "json" {
		b, err := json.MarshalIndent(struct {
			rpcvalet.Result
			Timeline  rpcvalet.Timeline
			TailSpans []rpcvalet.Span
		}{res, res.Timeline(), tailSpans}, "", "  ")
		return fs.Write(stdout, append(b, '\n'), err)
	}

	var out bytes.Buffer // writes to it cannot fail
	fmt.Fprintf(&out, "%s  workload=%s  offered=%.2f MRPS  seed=%d\n\n",
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
	sum.WriteText(&out)
	fmt.Fprintln(&out)

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
	lat.WriteText(&out)
	fmt.Fprintln(&out)

	util := report.NewTable("utilization", "unit", "busy fraction")
	for i, u := range res.CoreUtilization {
		util.AddRowf(fmt.Sprintf("core %d", i), u)
	}
	for i, u := range res.BackendUtilization {
		util.AddRowf(fmt.Sprintf("backend %d", i), u)
	}
	util.WriteText(&out)

	if *tr.Tail > 0 {
		fmt.Fprintln(&out)
		report.SpanTable("slowest requests", tailSpans).WriteText(&out)
	}
	if *timeline {
		tl := res.Timeline()
		fmt.Fprintf(&out, "\n%s\n\n", report.TimelineSpark(tl))
		report.TimelineTable("timeline", tl).WriteText(&out)
	}
	return fs.Write(stdout, out.Bytes(), nil)
}
