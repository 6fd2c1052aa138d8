package core

import (
	"fmt"
	"slices"

	"rpcvalet/internal/cluster"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/workload"
)

// ClusterNodes is the rack size the cluster experiments model.
const ClusterNodes = 4

// ClusterHop is the balancer→node network hop the cluster experiments
// charge every routed RPC.
const ClusterHop = 500 * sim.Nanosecond

// ClusterCapacityMRPS estimates the cluster's aggregate saturation
// throughput: node count × single-node capacity.
func ClusterCapacityMRPS(cfg cluster.Config) float64 {
	return float64(cfg.Nodes) * CapacityMRPS(cfg.Node.Params, cfg.Node.Workload)
}

// figCluster produces the rack-scale composition study: p99 versus offered
// load for every {cluster policy} × {node NI model} pair, on the
// synthetic-exponential workload. It is the experiment the single-node seed
// cannot express: whether cluster-level imbalance re-creates the 16×1
// pathology one level up, and how much a queue-aware front end recovers.
func figCluster(o Options) (Figure, error) {
	wl := workload.SyntheticExp()
	loads := theoryLoads(o.Points) // fractions of cluster capacity

	pols := cluster.PolicyNames
	var ss []series
	for _, plan := range hwPlans {
		for _, polName := range pols {
			pol, err := cluster.PolicyByName(polName)
			if err != nil {
				return Figure{}, err
			}
			base := clusterBase(o, wl, plan, pol)
			rates := make([]float64, len(loads))
			for j, f := range loads {
				rates[j] = f * ClusterCapacityMRPS(base)
			}
			ss = append(ss, clusterSeries(base, rates, polName+"/"+plan))
		}
	}
	// Every cell's points share one pool. With Options.Shards > 1 every
	// in-flight simulation is a team of goroutines, so the fan-out narrows
	// by the team size and o.Workers keeps bounding total goroutines.
	curves, err := sweep(BudgetWorkers(o.Workers,
		cluster.Engines(cluster.Config{Nodes: ClusterNodes, Shards: o.Shards})), 0, ss...)
	if err != nil {
		return Figure{}, err
	}
	// at returns the curve of one (node plan, policy) cell.
	at := func(plan, pol string) Curve {
		return curves[slices.Index(hwPlans, plan)*len(pols)+slices.Index(pols, pol)]
	}

	fig := Figure{
		ID: "cluster",
		Title: fmt.Sprintf("Cluster: p99 vs offered load, %d nodes, %s workload, %v hop",
			ClusterNodes, wl.Name, ClusterHop),
	}
	for _, plan := range hwPlans {
		fig.Tables = append(fig.Tables, grid(fmt.Sprintf("Cluster of %s nodes: p99 (ns) vs load by policy", plan),
			"load", loads, pols, []string{"p99ns_"}, func(i, k, _ int) any { return at(plan, pols[k]).Points[i].P99 }))
	}

	// Claims at the grid's top load (0.95 of capacity — still below
	// saturation): mid-load points separate the policies by less than
	// sampling noise, so that is where the comparison means something.
	hi := len(loads) - 1
	jsqP99 := at("1x16", "jsq2").Points[hi].P99
	randP99 := at("1x16", "random").Points[hi].P99
	worst := at("16x1", "random").Points[hi].P99
	fig.Claims = append(fig.Claims,
		statement{"cluster JSQ(2) p99 <= random p99 (1x16 nodes)", "power-of-d choices tames tail (cluster-level analogue of NI dispatch)"}.
			judge(atMost(jsqP99, randP99), "jsq2=%.0fns random=%.0fns at load %.2f", jsqP99, randP99, loads[hi]),
		statement{"random x 16x1 re-creates the partitioned pathology", "blind balancing at both tiers compounds (Model QxU intuition, §2.2)"}.
			judge(above(worst, jsqP99), "random/16x1=%.0fns vs jsq2/1x16=%.0fns at load %.2f", worst, jsqP99, loads[hi]),
	)
	return fig, nil
}
