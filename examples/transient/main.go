// Transient walkthrough: the time-resolved telemetry layer in action. Every
// Result carries an epoch-sliced Timeline, so instead of one steady-state
// number per run, each experiment below watches latency, queue depth, and
// utilization move through a disturbance:
//
//  1. Load pulse: a 2× rate pulse drives a single server past capacity for
//     200 µs. The single-queue NI dispatch (1×16) drains the backlog with
//     the whole chip; the partitioned 16×1 baseline drains core by core and
//     its tail stays elevated for several times as many epochs.
//
//  2. GC pause: a 100 µs whole-machine stall. The timeline shows the
//     throughput hole, the depth spike, and the drain.
//
//  3. Degraded node: one of four cluster nodes runs at 2/3 speed. Blind
//     random routing keeps overloading it; JSQ(2) routes around it — the
//     per-node sparklines make the difference visible at a glance.
//
// All runs are deterministic: re-running prints identical numbers.
//
//	go run ./examples/transient
package main

import (
	"fmt"
	"os"

	"rpcvalet"
	"rpcvalet/internal/report"
)

func must[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintln(os.Stderr, "transient example:", err)
		os.Exit(1)
	}
	return v
}

func main() {
	wl := must(rpcvalet.Synthetic("exp"))
	capacity := rpcvalet.CapacityMRPS(rpcvalet.DefaultParams(), wl)
	baseRate := 0.55 * capacity

	// --- 1. Load pulse: 1×16 vs 16×1 ------------------------------------
	pulse := rpcvalet.EnvelopePulse(400_000, 200_000, 2) // [400µs, 600µs) at 2×
	runPulse := func(mode rpcvalet.Mode) rpcvalet.Result {
		p := rpcvalet.DefaultParams()
		p.Mode = mode
		return must(rpcvalet.Run(rpcvalet.Config{
			Params:   p,
			Workload: wl,
			RateMRPS: baseRate,
			Arrival:  rpcvalet.ArrivalModulated(rpcvalet.ArrivalPoisson(baseRate), pulse),
			Warmup:   500,
			Measure:  17500,
			Seed:     1,
			Epoch:    25 * rpcvalet.Microsecond,
		}))
	}
	fmt.Printf("1) 2x load pulse at %.1f MRPS base (capacity %.1f): 400us–600us\n\n", baseRate, capacity)
	for _, mode := range []rpcvalet.Mode{rpcvalet.ModeSingleQueue, rpcvalet.ModePartitioned} {
		res := runPulse(mode)
		fmt.Printf("%s  steady p99=%.0fns\n%s\n\n", res.Dispatch, res.Latency.P99,
			report.TimelineSpark(res.Timeline()))
	}

	// --- 2. GC pause on a single machine --------------------------------
	fmt.Println("2) 100us whole-machine pause at 400us (1x16, same load):")
	pausedCfg := rpcvalet.Config{
		Params:   rpcvalet.DefaultParams(),
		Workload: wl,
		RateMRPS: baseRate,
		Warmup:   500,
		Measure:  12000,
		Seed:     1,
		Epoch:    25 * rpcvalet.Microsecond,
		Fault:    rpcvalet.Fault{Pauses: []rpcvalet.Pause{{Start: 400 * rpcvalet.Microsecond, Dur: 100 * rpcvalet.Microsecond}}},
	}
	paused := must(rpcvalet.Run(pausedCfg))
	tl := paused.Timeline()
	fmt.Printf("%s\n\n", report.TimelineSpark(tl))
	spike := tl.Epochs[tl.EpochIndex(500_000)]
	fmt.Printf("   epoch at pause end: p99=%.0fns, max depth %d, utilization %.2f\n\n",
		spike.Latency.P99, spike.MaxDepth, spike.Utilization)

	// --- 3. Degraded node in a cluster ----------------------------------
	fmt.Println("3) 4-node rack, node 0 at 1.5x service slowdown, 70% load:")
	for _, polName := range []string{"random", "jsq2"} {
		pol := must(rpcvalet.ClusterPolicyByName(polName))
		cfg := rpcvalet.DefaultCluster(4, wl, pol)
		cfg.Faults = []rpcvalet.NodeFault{{Node: 0, Fault: rpcvalet.Fault{Slowdown: 1.5}}}
		cfg.Measure = 16000
		cfg.Epoch = 25 * rpcvalet.Microsecond
		res := must(rpcvalet.RunCluster(cfg))
		fmt.Printf("\n%s: cluster p99=%.0fns, node completions %v\n", polName, res.Latency.P99, res.NodeCompleted)
		for i, ntl := range res.NodeTimelines() {
			util := 0.0
			if n := len(ntl.Epochs); n > 0 {
				for _, e := range ntl.Epochs {
					util += e.Utilization
				}
				util /= float64(n)
			}
			fmt.Printf("  node %d (%s): mean util %.2f\n", i, res.NodeFaults[i], util)
		}
	}
	fmt.Println("\nJSQ sheds load off the slow node (lower node-0 completions), keeping the tail flat;")
	fmt.Println("random keeps feeding it and the cluster tail pays for the hottest queue.")
}
