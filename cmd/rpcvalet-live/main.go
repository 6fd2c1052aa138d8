// Command rpcvalet-live runs the dispatch plans on real hardware: goroutine
// workers serving synthesized service times on wall-clock time — the live
// counterpart of rpcvalet-sim. A plain 1x16 (and sw) is one shared Go
// channel; every other plan runs through its own NI dispatchers on a
// machine of -cores cores, so jbsqN, 16x1 (one worker a group), 4x4 (one
// dispatcher per NI backend: 4 groups of 2 at 8 cores) and any plan policy
// (1x16:random2, 4x4:round-robin) decide as the simulator does.
//
// Usage (-h lists every flag with its grammar):
//
//	rpcvalet-live -dispatch 1x16,jbsq2,16x1 -workload gev -duration 1s
//	rpcvalet-live -dispatch 4x4,1x16:random2 -emulation sleep -duration 200ms
//	rpcvalet-live -obs :9090 -duration 10s -tail 16
//
// The -dispatch plans run one after another, each owning the machine for
// its window, and print as one table. A plan must build the -cores
// machine, checked before the first window: a literal GxM grouping needs
// G×M = -cores (-dispatch 2x4 runs at -cores 8), and 4x4 exits 2 at a core
// count 4 does not divide. Latencies are wall-clock: the offered schedule is
// deterministic in -seed, the measured tails are not. -obs serves /metrics
// (Prometheus text, labeled by plan), /healthz and /debug/pprof while the
// runs are in flight.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"rpcvalet"
	"rpcvalet/internal/cli"
	"rpcvalet/internal/live"
	"rpcvalet/internal/report"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.New("rpcvalet-live", stderr)
	plans := cli.List(fs, "dispatch", "1x16,jbsq2,16x1", "comma-separated dispatch plans: (1x16|4x4|16x1|jbsqN|GxM)[:policy] or sw", rpcvalet.ParseDispatchPlan)
	wl := fs.Workload("gev")
	rate := fs.Float64("rate", 0, "offered load in MRPS (0 = 65% of estimated live capacity)")
	duration := fs.Duration("duration", time.Second, "offered-load window per plan (wall clock)")
	cores := fs.Count("cores", 0, 0, "serving goroutines, the live machine's cores (0 = 8)")
	em := cli.Spec(fs, "emulation", "auto", "service emulation: auto, spin, sleep", live.ParseEmulation)
	scale := fs.Float64("scale", 0, "service-time multiplier (0 = emulation's recommended lift)")
	seed := fs.Uint64("seed", 1, "offered-schedule seed")
	format := fs.Format("text", "json")
	timeline := fs.Bool("timeline", false, "print each plan's epoch-sliced timeline")
	obsAddr := fs.String("obs", "", "serve /metrics, /healthz, /debug/pprof on this address (e.g. :9090) while runs are in flight")
	tr := fs.Trace("retain each plan's K slowest requests with span breakdowns", "append sampled request spans as JSON lines to this file")
	fs.Needs("timeline", "-format text", func() bool { return *format == "text" })
	if err := fs.Parse(args); err != nil {
		return fs.Bad(err)
	}

	base := rpcvalet.LiveConfig{
		Workload:     *wl,
		Workers:      *cores,
		Duration:     *duration,
		Seed:         *seed,
		ServiceScale: *scale,
		Emulation:    *em,
		RateMRPS:     *rate,
	}
	if *rate == 0 {
		base.RateMRPS = 0.65 * rpcvalet.LiveCapacityMRPS(base)
	}
	cfgs := make([]rpcvalet.LiveConfig, len(*plans))
	for i, pl := range *plans {
		cfgs[i] = base
		cfgs[i].Plan = pl
		if err := cfgs[i].Validate(); err != nil {
			return fs.Bad(err)
		}
	}

	var reg *rpcvalet.ObsRegistry
	if *obsAddr != "" {
		reg = rpcvalet.NewObsRegistry()
		srv, err := rpcvalet.ServeObs(*obsAddr, reg, nil)
		if err != nil {
			return fs.Bad(err)
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "rpcvalet-live: observability on http://%s (/metrics, /healthz, /debug/pprof)\n", srv.Addr())
	}
	// JSON output embeds each plan's tail spans (nil without -tail).
	type planResult struct {
		rpcvalet.LiveResult
		TailSpans []rpcvalet.Span
	}
	var results []planResult
	var spans bytes.Buffer // every plan's -trace-jsonl spans, in plan order
	for _, cfg := range cfgs {
		if reg != nil {
			cfg.Obs = rpcvalet.NewObsRunMetrics(reg, rpcvalet.ObsLabels{"plan": cfg.Plan.Name})
		}
		capture := tr.Capture()
		cfg.Trace = capture.Recorder()
		res, err := rpcvalet.RunLive(cfg)
		if err == nil {
			err = capture.WriteJSONL(&spans)
		}
		if err != nil {
			return fs.Fail(err)
		}
		results = append(results, planResult{LiveResult: res, TailSpans: capture.TailSpans()})
	}
	if *tr.JSONL != "" {
		if err := os.WriteFile(*tr.JSONL, spans.Bytes(), 0o666); err != nil {
			return fs.Fail(err)
		}
	}

	if *format == "json" {
		b, err := json.MarshalIndent(results, "", "  ")
		return fs.Write(stdout, append(b, '\n'), err)
	}

	var out bytes.Buffer // writes to it cannot fail
	r0 := results[0]
	fmt.Fprintf(&out, "live runtime: %d workers, %s emulation, service ×%.1f, workload=%s, offered=%.4f MRPS, %v per plan\n",
		r0.Workers, r0.Emulation, r0.ServiceScale, r0.Workload, r0.RateMRPS, *duration)
	if r0.SpinsPerNs > 0 {
		fmt.Fprintf(&out, "spin calibration: %.2f rounds/ns\n", r0.SpinsPerNs)
	}
	fmt.Fprintln(&out)

	tbl := report.NewTable("wall-clock measurement by plan",
		"plan", "completed", "dropped", "thr_mrps", "p50_ns", "p99_ns", "p99.9_ns", "svc_mean_ns", "slo_ns", "meets")
	for _, r := range results {
		tbl.AddRowf(r.Plan, r.Completed, r.Dropped, r.ThroughputMRPS,
			r.Latency.P50, r.Latency.P99, r.Latency.P999, r.ServiceMeanNanos, r.SLONanos, r.MeetsSLO)
	}
	tbl.WriteText(&out)
	if *tr.Tail > 0 {
		for _, r := range results {
			fmt.Fprintln(&out)
			report.SpanTable(r.Plan+" slowest requests", r.TailSpans).WriteText(&out)
		}
	}
	if *timeline {
		for _, r := range results {
			fmt.Fprintf(&out, "\n%s p99 %s\n", r.Plan, report.TimelineSpark(r.Timeline))
			report.TimelineTable(r.Plan+" timeline", r.Timeline).WriteText(&out)
		}
	}
	return fs.Write(stdout, out.Bytes(), nil)
}
