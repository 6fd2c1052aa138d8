package core

import (
	"fmt"

	"rpcvalet/internal/cluster"
	"rpcvalet/internal/machine"
	"rpcvalet/internal/report"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/workload"
)

func init() {
	register("cluster", figCluster)
	FigureIDs = append(FigureIDs, "cluster")
}

// ClusterNodes is the rack size the cluster experiments model.
const ClusterNodes = 4

// ClusterHop is the balancer→node network hop the cluster experiments
// charge every routed RPC.
const ClusterHop = 500 * sim.Nanosecond

// clusterBase assembles a cluster config over the given per-node mode.
// Options.Shards is threaded through, so every cluster figure and sweep in
// the harness runs sharded when asked to.
func clusterBase(o Options, wl workload.Profile, mode machine.Mode, pol cluster.Policy) cluster.Config {
	p := machine.Defaults()
	p.Mode = mode
	return cluster.Config{
		Nodes:   ClusterNodes,
		Node:    machine.Config{Params: p, Workload: wl},
		Policy:  pol,
		Hop:     ClusterHop,
		Warmup:  o.Warmup,
		Measure: o.Measure,
		Seed:    o.Seed,
		Shards:  o.Shards,
	}
}

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

	type key struct {
		mode   machine.Mode
		policy string
	}
	var cells []key
	var ss []series
	for _, mode := range hwModes {
		for _, polName := range cluster.PolicyNames {
			pol, err := cluster.PolicyByName(polName)
			if err != nil {
				return Figure{}, err
			}
			base := clusterBase(o, wl, mode, pol)
			rates := make([]float64, len(loads))
			for j, f := range loads {
				rates[j] = f * ClusterCapacityMRPS(base)
			}
			cells = append(cells, key{mode, polName})
			ss = append(ss, clusterSeries(base, rates, polName+"/"+modeShort(mode)))
		}
	}
	// Every cell's points share one pool. With Options.Shards > 1 every
	// in-flight simulation is a team of goroutines, so the fan-out narrows
	// by the team size and o.Workers keeps bounding total goroutines.
	cellCurves, err := sweep(BudgetWorkers(o.Workers,
		RunCost(cluster.Config{Nodes: ClusterNodes, Shards: o.Shards})), 0, ss...)
	if err != nil {
		return Figure{}, err
	}
	curves := make(map[key]Curve, len(cells))
	for i, c := range cells {
		curves[c] = cellCurves[i]
	}

	fig := Figure{
		ID: "cluster",
		Title: fmt.Sprintf("Cluster: p99 vs offered load, %d nodes, %s workload, %v hop",
			ClusterNodes, wl.Name, ClusterHop),
	}
	for _, mode := range hwModes {
		cols := []string{"load"}
		for _, polName := range cluster.PolicyNames {
			cols = append(cols, "p99ns_"+polName)
		}
		tbl := report.NewTable(
			fmt.Sprintf("Cluster of %s nodes: p99 (ns) vs load by policy", modeShort(mode)), cols...)
		for li, load := range loads {
			row := []any{load}
			for _, polName := range cluster.PolicyNames {
				row = append(row, curves[key{mode, polName}].Points[li].P99)
			}
			tbl.AddRowf(row...)
		}
		fig.Tables = append(fig.Tables, tbl)
	}

	// Claims at the grid's top load (0.95 of capacity — still below
	// saturation): mid-load points separate the policies by less than
	// sampling noise, so that is where the comparison means something.
	hi := len(loads) - 1
	at := func(mode machine.Mode, pol string) Point {
		return curves[key{mode, pol}].Points[hi]
	}
	jsqP99 := at(machine.ModeSingleQueue, "jsq2").P99
	randP99 := at(machine.ModeSingleQueue, "random").P99
	fig.Claims = append(fig.Claims, Claim{
		Name:     "cluster JSQ(2) p99 <= random p99 (1x16 nodes)",
		Paper:    "power-of-d choices tames tail (cluster-level analogue of NI dispatch)",
		Measured: fmt.Sprintf("jsq2=%.0fns random=%.0fns at load %.2f", jsqP99, randP99, loads[hi]),
		Ok:       jsqP99 <= randP99,
	})
	worst := at(machine.ModePartitioned, "random").P99
	best := at(machine.ModeSingleQueue, "jsq2").P99
	fig.Claims = append(fig.Claims, Claim{
		Name:     "random x 16x1 re-creates the partitioned pathology",
		Paper:    "blind balancing at both tiers compounds (Model QxU intuition, §2.2)",
		Measured: fmt.Sprintf("random/16x1=%.0fns vs jsq2/1x16=%.0fns at load %.2f", worst, best, loads[hi]),
		Ok:       worst > best,
	})
	return fig, nil
}
