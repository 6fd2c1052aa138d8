package cluster

import (
	"runtime"
	"testing"
)

// BenchmarkClusterHier is the end-to-end two-tier benchmark at the ROADMAP's
// 1000-node scale: one full hierarchical cluster.Run per iteration — a
// jsqfull global balancer dispatching over 8 rack balancers, each running
// whole-rack JSQ off its depth index — so sim_mrps reads the simulator's
// datacenter throughput with both dispatch tiers on the arrival path. The
// serial engine and the racks-as-shards PDES engine run as subtests: the
// serial cell is the single-engine 1000-node path to profile when per-event
// cost at scale is the question, the sharded cell is the parallel path whose
// lookahead is the global hop.
func BenchmarkClusterHier(b *testing.B) {
	const nodes, racks = 1000, 8
	for _, bc := range []struct {
		name   string
		shards int
	}{
		{"engine=serial", 0},
		{"engine=sharded", racks},
	} {
		b.Run("topology=jsqfullxjsqfull/nodes=1000/"+bc.name, func(b *testing.B) {
			cfg := baseConfig(nodes, JSQ{D: FullScan}, 0.8)
			cfg.Racks = racks
			cfg.GlobalPolicy = JSQ{D: FullScan}
			cfg.GlobalHop = cfg.Hop
			cfg.Shards = bc.shards
			cfg.Warmup = 2000
			cfg.Measure = 30000
			total := cfg.Warmup + cfg.Measure
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := cfg
				c.Policy = cfg.Policy.Clone()
				c.GlobalPolicy = cfg.GlobalPolicy.Clone()
				res, err := Run(c)
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed != total {
					b.Fatalf("completed %d of %d", res.Completed, total)
				}
			}
			b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds()/1e6, "sim_mrps")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
		})
	}
}
