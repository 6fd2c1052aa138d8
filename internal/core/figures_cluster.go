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

// ClusterSweep runs the cluster at every aggregate rate (concurrently, on
// runPoints) and returns the curve in rate order. Each point gets freshly
// cloned policies (rack and, when hierarchical, global), so rotation state
// never leaks across points or goroutines. When base is sharded, each point
// is itself a team of goroutines, so the fan-out narrows to keep `workers`
// the cap on total goroutines.
func ClusterSweep(base cluster.Config, rates []float64, label string, workers int) (cluster.Curve, error) {
	points, err := runPoints(len(rates), BudgetWorkers(workers, RunCost(base)), func(i int) (cluster.Point, error) {
		rate := rates[i]
		cfg := base
		cfg.RateMRPS = rate
		cfg.Seed = base.Seed + uint64(i)*1_000_003
		cfg.Policy = base.Policy.Clone()
		if base.GlobalPolicy != nil {
			cfg.GlobalPolicy = base.GlobalPolicy.Clone()
		}
		if cfg.MaxSimTime == 0 {
			cfg.MaxSimTime = capSimTime(ClusterCapacityMRPS(cfg), rate, cfg.Warmup+cfg.Measure)
		}
		res, err := cluster.Run(cfg)
		if err != nil {
			return cluster.Point{}, fmt.Errorf("cluster sweep %s at %.2f MRPS: %w", label, rate, err)
		}
		return cluster.Point{
			RateMRPS:       rate,
			ThroughputMRPS: res.ThroughputMRPS,
			P50:            res.Latency.P50,
			P99:            res.Latency.P99,
			Mean:           res.Latency.Mean,
			Imbalance:      res.Imbalance,
			MeetsSLO:       res.MeetsSLO,
		}, nil
	})
	if err != nil {
		return cluster.Curve{}, err
	}
	return cluster.Curve{Label: label, Points: points}, nil
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
	for _, mode := range hwModes {
		for _, polName := range cluster.PolicyNames {
			cells = append(cells, key{mode, polName})
		}
	}
	// One layer of concurrency: runPoints fans out over the (mode, policy)
	// cells and each cell runs its sweep sequentially (workers=1), so
	// o.Workers caps the number of in-flight simulations exactly. (An
	// earlier version spawned a goroutine per cell around a parallel
	// ClusterSweep, multiplying concurrency to cells × o.Workers.)
	// ClusterSweep's points are deterministic for any worker count, so the
	// flattening is result-identical. With Options.Shards > 1 every in-flight
	// simulation is a team of goroutines, so the cell fan-out narrows by the
	// team size — o.Workers keeps bounding total goroutines either way.
	cellWorkers := BudgetWorkers(o.Workers,
		RunCost(cluster.Config{Nodes: ClusterNodes, Shards: o.Shards}))
	cellCurves, err := runPoints(len(cells), cellWorkers, func(i int) (cluster.Curve, error) {
		c := cells[i]
		pol, err := cluster.PolicyByName(c.policy)
		if err != nil {
			return cluster.Curve{}, err
		}
		base := clusterBase(o, wl, c.mode, pol)
		rates := make([]float64, len(loads))
		for j, f := range loads {
			rates[j] = f * ClusterCapacityMRPS(base)
		}
		return ClusterSweep(base, rates, c.policy+"/"+modeShort(c.mode), 1)
	})
	if err != nil {
		return Figure{}, err
	}
	curves := make(map[key]cluster.Curve, len(cells))
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
	at := func(mode machine.Mode, pol string) cluster.Point {
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
