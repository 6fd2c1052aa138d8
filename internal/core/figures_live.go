package core

import (
	"fmt"
	"time"

	"rpcvalet/internal/live"
	"rpcvalet/internal/report"
	"rpcvalet/internal/workload"
)

// liveLoad is the offered fraction of the live runtime's estimated capacity:
// high enough that queueing separates the shapes, low enough that the open
// loop stays below saturation on a noisy host.
const liveLoad = 0.65

// livePlans are the dispatch shapes the live study compares, in report
// order: the shared single queue, its bounded-dispatch JBSQ variant, and the
// partitioned RSS baseline. The JBSQ bound is 1 — the strict single-queue
// ideal — because the live runtime has no dispatch bubble for a threshold of
// 2 to hide (dispatch costs ~µs against a service floor of tens of µs), and
// with heavy-tailed scaled service JBSQ(2) genuinely strands one committed
// request behind each monster draw while the shared queue never strands
// work. That stranding is a real property of n=2, not noise; the "tracks
// the ideal" cell wants n=1.
var livePlans = []string{"1x16", "jbsq1", "16x1"}

// liveDuration sizes each cell's offered-load window to target the harness's
// measurement scale, clamped so a full bench run stays in seconds and a tiny
// test run still collects a real sample.
func liveDuration(o Options, rateMRPS float64) time.Duration {
	d := time.Duration(float64(o.Measure) / rateMRPS * 1000) // ns per completion target
	if d < 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	if d > 3*time.Second {
		d = 3 * time.Second
	}
	return d
}

// figLive cross-validates the paper's qualitative claims on real hardware:
// actual goroutines serving synthesized service times on the wall clock
// (internal/live), the same move nanoPU and Dagger make when they measure
// the single-queue-versus-partitioned argument instead of simulating it.
// Wall-clock noise rules out calibrated magnitudes (DESIGN.md §6), so every
// claim is an ordering with a generous band, on the workload where the
// effect dwarfs the noise: high-variance GEV service.
//
// The cells run sequentially, never through runPoints: each is a wall-clock
// measurement that must own the machine's cores for its window — concurrent
// cells would contend and corrupt each other.
func figLive(o Options) (Figure, error) {
	wl := workload.SyntheticGEV()
	base := live.Config{
		Workload: wl,
		Workers:  live.DefaultWorkers,
		Seed:     o.Seed,
	}
	base.RateMRPS = liveLoad * live.CapacityMRPS(base)
	base.Duration = liveDuration(o, base.RateMRPS)

	results := make(map[string]live.Result, len(livePlans))
	for _, spec := range livePlans {
		cfg := base
		cfg.Plan = mustPlan(spec)
		res, err := live.Run(cfg)
		if err != nil {
			return Figure{}, fmt.Errorf("live %s: %w", spec, err)
		}
		results[spec] = res
	}
	ref := results[livePlans[0]]

	fig := Figure{
		ID: "live",
		Title: fmt.Sprintf("Live runtime: %d goroutine workers (%s emulation, service ×%.0f), %s workload, %.0f ms per shape",
			ref.Workers, ref.Emulation, ref.ServiceScale, wl.Name, float64(base.Duration.Milliseconds())),
	}
	tbl := report.NewTable(
		fmt.Sprintf("Live shapes at %.2f of capacity (%.4f MRPS offered)", liveLoad, base.RateMRPS),
		"plan", "completed", "dropped", "thr_mrps", "p50_ns", "p99_ns", "svc_mean_ns")
	for _, spec := range livePlans {
		r := results[spec]
		tbl.AddRowf(spec, r.Completed, r.Dropped, r.ThroughputMRPS, r.Latency.P50, r.Latency.P99, r.ServiceMeanNanos)
	}
	fig.Tables = append(fig.Tables, tbl)

	shared, jbsq, part := results["1x16"], results["jbsq1"], results["16x1"]
	fig.Claims = append(fig.Claims,
		statement{"live: single shared queue beats partitioned p99 under GEV service",
			"single-queue dispatch tames the tail; RSS partitioning cannot (§2.2, measured like nanoPU/Dagger)"}.
			judge(and(fact(shared.Latency.Count > 0), fact(part.Latency.Count > 0), below(shared.Latency.P99, part.Latency.P99)),
				"shared p99 %.0f ns vs partitioned %.0f ns (%.2f×)",
				shared.Latency.P99, part.Latency.P99, safeRatio(part.Latency.P99, shared.Latency.P99)),
		statement{"live: JBSQ(1) tracks the single queue where partitioned collapses", "bounded single-queue dispatch ≈ ideal (nanoPU JBSQ)"}.
			judge(and(fact(jbsq.Latency.Count > 0), atMost(jbsq.Latency.P99, 2.5*shared.Latency.P99), below(jbsq.Latency.P99, part.Latency.P99)),
				"jbsq1 p99 %.2f× the shared queue's (partitioned %.2f×)",
				safeRatio(jbsq.Latency.P99, shared.Latency.P99), safeRatio(part.Latency.P99, shared.Latency.P99)),
		statement{"live: the open loop delivered the offered load below saturation",
			"load generator sanity (offered ≈ completed at 0.65 of capacity)"}.
			judge(and(fact(shared.Dropped == 0), fact(shared.Completed == shared.Offered),
				above(shared.ThroughputMRPS, 0.7*base.RateMRPS), below(shared.ThroughputMRPS, 1.3*base.RateMRPS)),
				"shared completed %d of %d offered, %d dropped, thr %.4f MRPS vs offered %.4f",
				shared.Completed, shared.Offered, shared.Dropped, shared.ThroughputMRPS, base.RateMRPS),
	)
	return fig, nil
}
