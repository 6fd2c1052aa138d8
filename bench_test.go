package rpcvalet_test

// This file is the benchmark harness required by the reproduction: one
// testing.B benchmark per paper table/figure, each regenerating that
// figure's data at reduced scale and reporting the headline measurement as
// a custom metric. Run all of them with:
//
//	go test -bench=. -benchmem
//
// Full-scale regeneration (larger samples, denser grids) is done by
// cmd/rpcvalet-bench; EXPERIMENTS.md records its output. The benchmarks
// here exist so `go test -bench` exercises every experiment end to end.
//
// Simulator speed is not measured here: `make perfbench` (BENCHMARK.json)
// reports sim_mrps, setup cost and per-layer costs on calibrated workloads,
// and the AllocsPerRequest tests hold the per-request allocation budgets.

import (
	"strings"
	"testing"

	"rpcvalet"
)

// benchOptions shrinks runs so the full -bench=. sweep stays in CI budget.
func benchOptions() rpcvalet.Options {
	o := rpcvalet.QuickOptions()
	o.Warmup = 500
	o.Measure = 6000
	o.QGen = 12000
	o.Points = 5
	return o
}

// regen runs one figure per benchmark iteration and reports how many of its
// paper claims were matched.
func regen(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		fig, err := rpcvalet.RegenerateFigure(id, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		ok := 0
		for _, c := range fig.Claims {
			if c.Ok {
				ok++
			}
		}
		if len(fig.Claims) > 0 {
			b.ReportMetric(float64(ok)/float64(len(fig.Claims)), "claims_ok_ratio")
		}
		b.ReportMetric(float64(len(fig.Tables)), "tables")
	}
}

// --- One benchmark per paper figure/table --------------------------------

func BenchmarkFig2aQueueShapes(b *testing.B)       { regen(b, "2a") }
func BenchmarkFig2bSingleQueueDists(b *testing.B)  { regen(b, "2b") }
func BenchmarkFig2cPartitionedDists(b *testing.B)  { regen(b, "2c") }
func BenchmarkFig6ServiceTimePDFs(b *testing.B)    { regen(b, "6") }
func BenchmarkFig7aHERD(b *testing.B)              { regen(b, "7a") }
func BenchmarkFig7bMasstree(b *testing.B)          { regen(b, "7b") }
func BenchmarkFig7cSynthetic(b *testing.B)         { regen(b, "7c") }
func BenchmarkFig8HardwareVsSoftware(b *testing.B) { regen(b, "8") }
func BenchmarkFig9ModelComparison(b *testing.B)    { regen(b, "9") }
func BenchmarkTable1Parameters(b *testing.B)       { regen(b, "table1") }
func BenchmarkFigBurstArrivals(b *testing.B)       { regen(b, "burst") }
func BenchmarkFigPolicyPlans(b *testing.B)         { regen(b, "policy") }
func BenchmarkFigTransient(b *testing.B)           { regen(b, "transient") }
func BenchmarkFigAnatomy(b *testing.B)             { regen(b, "anatomy") }
func BenchmarkFigCluster(b *testing.B)             { regen(b, "cluster") }

// BenchmarkFigRack regenerates the rack-scaling figure (up to 1000 nodes per
// point); the depth-indexed balancer is what keeps it inside bench budget.
func BenchmarkFigRack(b *testing.B) { regen(b, "rack") }

// BenchmarkFigHier regenerates the two-tier datacenter figure: flat vs
// hierarchical topologies at up to 1000 nodes, plus the degraded-rack and
// rack-failover studies, all through the stacked dispatch tier.
func BenchmarkFigHier(b *testing.B) { regen(b, "hier") }

// BenchmarkFigLive regenerates the live-runtime figure: wall-clock goroutine
// runs, so its ns/op measures real serving windows, not simulator speed.
func BenchmarkFigLive(b *testing.B) { regen(b, "live") }

// --- Ablation benchmarks (design choices called out in DESIGN.md) --------

func BenchmarkAblationOutstanding(b *testing.B)    { regen(b, "ablation-outstanding") }
func BenchmarkAblationDispatcherHops(b *testing.B) { regen(b, "ablation-dispatcher") }
func BenchmarkAblationRSSKeying(b *testing.B)      { regen(b, "ablation-rss") }
func BenchmarkAblationPolicy(b *testing.B)         { regen(b, "ablation-policy") }

// --- Simulator micro-benchmarks -------------------------------------------

// BenchmarkModeComparison reports the p99 each mode delivers at a fixed
// mid-saturation load, as a quick regression canary on the headline result.
func BenchmarkModeComparison(b *testing.B) {
	for _, mode := range []rpcvalet.Mode{
		rpcvalet.ModeSingleQueue, rpcvalet.ModeGrouped,
		rpcvalet.ModePartitioned, rpcvalet.ModeSoftware,
	} {
		name := strings.ReplaceAll(mode.String(), "/", "-")
		b.Run(name, func(b *testing.B) {
			var p99 float64
			for i := 0; i < b.N; i++ {
				p := rpcvalet.DefaultParams()
				p.Mode = mode
				res, err := rpcvalet.Run(rpcvalet.Config{
					Params:   p,
					Workload: rpcvalet.HERD(),
					RateMRPS: 4,
					Warmup:   300,
					Measure:  5000,
					Seed:     uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				p99 = res.Latency.P99
			}
			b.ReportMetric(p99, "p99_ns")
		})
	}
}

// BenchmarkQueueModel measures the raw queueing-model simulation rate.
func BenchmarkQueueModel(b *testing.B) {
	n := b.N
	if n < 1000 {
		n = 1000
	}
	res, err := rpcvalet.RunQueueModel(rpcvalet.QueueModel{
		Queues: 1, ServersPerQueue: 16,
		Service: mustSynthetic(b, "exp").Classes[0].Service,
		Load:    0.8, Warmup: 100, Measure: n, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Latency.P99, "p99_ns")
}

func mustSynthetic(b *testing.B, kind string) rpcvalet.Profile {
	b.Helper()
	p, err := rpcvalet.Synthetic(kind)
	if err != nil {
		b.Fatal(err)
	}
	return p
}
