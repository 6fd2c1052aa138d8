package core

import (
	"fmt"

	"rpcvalet/internal/cluster"
	"rpcvalet/internal/workload"
)

// RackSizes are the cluster sizes the rack figure scales across — up to the
// ROADMAP's 1000-node target, which the balancer's depth index makes
// affordable to route (O(N/64) per decision instead of O(N)).
var RackSizes = []int{100, 400, 1000}

// rackPolicyNames is the rack figure's policy set: the canonical policies
// plus whole-cluster JSQ, the policy whose decision cost motivated the
// index. (It stays out of cluster.PolicyNames so the long-standing cluster
// figure keeps its exact cell grid and cost.)
var rackPolicyNames = []string{"random", "rr", "jsq2", "jsqfull", "bounded"}

// RackLoad is the offered load of every rack cell, as a fraction of
// aggregate cluster capacity: high enough that the policies separate by far
// more than sampling noise, below the saturation cliff.
const RackLoad = 0.85

// figRack produces the rack-scaling study: p99 and completion imbalance
// versus cluster size for every balancer policy, on 1×16 (single-queue)
// nodes at RackLoad of aggregate capacity. It is the experiment the depth
// index unlocks: whole-cluster queue-aware policies (full JSQ,
// bounded-load) at 1000 nodes, where the naive O(N) scans made the
// balancer's decision the simulation bottleneck.
func figRack(o Options) (Figure, error) {
	return figRackOver(o, RackSizes)
}

// figRackOver runs the rack study over the given cluster sizes (the smoke
// tests pass reduced grids). Size groups run sequentially — a 1000-node run
// holds ~1 GB of node-model state, so the policy fan-out inside each group
// is capped to keep nodes-in-flight bounded no matter how many workers the
// host offers.
func figRackOver(o Options, ns []int) (Figure, error) {
	wl := workload.SyntheticExp()

	cells := make(map[int]map[string]Point, len(ns))
	for _, n := range ns {
		pols := rackPolicyNames
		// Cap concurrent runs so at most ~1500 node models are live at once
		// (each holds its soNUMA domain buffers), then let the shard budget
		// narrow further if the engine itself is parallel.
		memCap := max(1, 1500/n)
		workers := min(memCap, BudgetWorkers(o.Workers, cluster.Engines(cluster.Config{Nodes: n, Shards: o.Shards})))
		ss := make([]series, len(pols))
		for i, name := range pols {
			pol, err := cluster.PolicyByName(name)
			if err != nil {
				return Figure{}, err
			}
			base := clusterBase(o, wl, "1x16", pol)
			base.Nodes = n
			rate := RackLoad * ClusterCapacityMRPS(base)
			ss[i] = clusterSeries(base, []float64{rate}, fmt.Sprintf("%s/n%d", name, n))
		}
		curves, err := sweep(workers, 0, ss...)
		if err != nil {
			return Figure{}, err
		}
		group := make(map[string]Point, len(pols))
		for i, name := range pols {
			group[name] = curves[i].Points[0]
		}
		cells[n] = group
	}

	fig := Figure{
		ID: "rack",
		Title: fmt.Sprintf("Rack scaling: p99 and imbalance vs cluster size by policy, 1x16 nodes, %s workload, load %.2f, %v hop",
			wl.Name, RackLoad, ClusterHop),
	}
	cell := func(i, k int) Point { return cells[ns[i]][rackPolicyNames[k]] }
	fig.Tables = append(fig.Tables,
		grid("Rack p99 (ns) vs cluster size by policy", "nodes", ns, rackPolicyNames, []string{"p99ns_"},
			func(i, k, _ int) any { return cell(i, k).P99 }),
		grid("Rack completion imbalance (max/mean) vs cluster size by policy", "nodes", ns, rackPolicyNames, []string{"imbalance_"},
			func(i, k, _ int) any { return cell(i, k).Imbalance }))

	// Claims at the largest size in the grid: comparative orderings that
	// hold from Quick to Default scales (absolute thresholds would drown in
	// sampling noise at smoke-test completion counts).
	top := ns[len(ns)-1]
	at := func(pol string) Point { return cells[top][pol] }
	fig.Claims = []Claim{
		noWorse(fmt.Sprintf("rack jsqfull p99 <= random p99 (%d nodes)", top),
			"full queue-state awareness tames the tail at rack scale",
			at("jsqfull").P99, at("random").P99),
		noWorse(fmt.Sprintf("rack jsq2 p99 <= random p99 (%d nodes)", top),
			"power-of-d choices captures most of full JSQ's win",
			at("jsq2").P99, at("random").P99),
		noWorse(fmt.Sprintf("rack bounded p99 <= random p99 (%d nodes)", top),
			"bounded-load rotation avoids blind balancing's deep queues",
			at("bounded").P99, at("random").P99),
		noWorse(fmt.Sprintf("rack rr imbalance <= random imbalance (%d nodes)", top),
			"deterministic rotation beats blind sampling on arrival spread",
			at("rr").Imbalance, at("random").Imbalance),
	}
	return fig, nil
}
