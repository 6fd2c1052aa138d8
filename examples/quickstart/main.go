// Quickstart: simulate the RPCValet server once and print what the paper's
// headline metric looks like — 99th-percentile latency under a tail SLO.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"rpcvalet"
)

func main() {
	cfg := rpcvalet.Config{
		Params:   rpcvalet.DefaultParams(), // 16 cores, Manycore NI, Table 1 timing
		Workload: rpcvalet.HERD(),          // ~330ns key-value RPCs (Fig 6b)
		RateMRPS: 15,                       // offered load: 15M requests/s
		Warmup:   5000,
		Measure:  50000,
		Seed:     1,
	}

	res, err := rpcvalet.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("configuration:   %s\n", res.Dispatch)
	fmt.Printf("offered load:    %.1f MRPS (capacity ≈ %.1f MRPS)\n",
		cfg.RateMRPS, rpcvalet.CapacityMRPS(cfg.Params, cfg.Workload))
	fmt.Printf("throughput:      %.2f MRPS\n", res.ThroughputMRPS)
	fmt.Printf("mean service S̄: %.0f ns\n", res.ServiceMeanNanos)
	fmt.Printf("p50 / p99:       %.0f / %.0f ns\n", res.Latency.P50, res.Latency.P99)
	fmt.Printf("SLO (10×S̄):     %.0f ns — meets: %v\n", res.SLONanos, res.MeetsSLO)

	// The same run with the RSS-style partitioned baseline (Model 16×1):
	// no rebalancing, so the tail inflates at the same offered load.
	cfg.Params.Mode = rpcvalet.ModePartitioned
	base, err := rpcvalet.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n16x1 baseline:   p99 %.0f ns (%.1f× RPCValet's %.0f ns)\n",
		base.Latency.P99, base.Latency.P99/res.Latency.P99, res.Latency.P99)
}
