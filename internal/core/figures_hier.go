package core

import (
	"fmt"
	"math"

	"rpcvalet/internal/cluster"
	"rpcvalet/internal/machine"
	"rpcvalet/internal/report"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/stats"
	"rpcvalet/internal/workload"
)

// HierSizes are the datacenter sizes the hierarchical figure scales across —
// the same 400/1000-node range as the rack study, now split into racks
// behind a global balancer.
var HierSizes = []int{400, 1000}

// HierRacks is the rack count of every hierarchical cell: wide enough that
// the global tier has a real placement decision, small enough that each rack
// still holds a rack's worth of servers at both sizes.
const HierRacks = 8

// HierLoad is the offered load of every hierarchical cell, as a fraction of
// aggregate capacity — the same operating point as the flat rack study, so
// the two figures' tails are directly comparable.
const HierLoad = 0.85

// HierGlobalHop is the extra network hop the global balancer charges on the
// way to a rack balancer — symmetric with the rack-internal hop.
const HierGlobalHop = ClusterHop

// hierTopologies are the figure's columns: the flat single-tier baseline and
// three two-tier stacks over the same jsqfull racks, varying only the global
// policy — full queue-state awareness over rack aggregates, power-of-two
// choices over racks, and blind random placement.
var hierTopologies = []struct {
	label  string
	global string // "" = flat single-tier cluster
	rack   string
}{
	{"flat-jsqfull", "", "jsqfull"},
	{"jsqfullxjsqfull", "jsqfull", "jsqfull"},
	{"jsq2xjsqfull", "jsq2", "jsqfull"},
	{"randomxjsqfull", "random", "jsqfull"},
}

// hierConfigAt assembles one hierarchical (or, with global == "", flat) cell
// config at n nodes and HierLoad of aggregate capacity.
func hierConfigAt(o Options, n int, global, rack string) (cluster.Config, error) {
	pol, err := cluster.PolicyByName(rack)
	if err != nil {
		return cluster.Config{}, err
	}
	cfg := clusterBase(o, workload.SyntheticExp(), "1x16", pol)
	cfg.Nodes = n
	if global != "" {
		gpol, err := cluster.PolicyByName(global)
		if err != nil {
			return cluster.Config{}, err
		}
		cfg.Racks = HierRacks
		cfg.GlobalPolicy = gpol
		cfg.GlobalHop = HierGlobalHop
	}
	cfg.RateMRPS = HierLoad * ClusterCapacityMRPS(cfg)
	cfg.MaxSimTime = clusterCapSimTime(cfg, cfg.RateMRPS)
	return cfg, nil
}

// hierPause sizes the rack-balancer outage of the failover study relative to
// the run's virtual length: long enough to strand a tail's worth of requests
// at any completion count, opening after warmup traffic has filled the
// queues.
func hierPause(cfg cluster.Config) machine.Pause {
	need := float64(cfg.Warmup+cfg.Measure) / cfg.RateMRPS * 1000 // ns
	return machine.Pause{
		Start: sim.FromNanos(0.3 * need),
		Dur:   sim.FromNanos(math.Max(0.25*need, 2000)),
	}
}

// figHier produces the two-tier datacenter study: tail latency versus size
// for a flat balancer against hierarchical stacks (global policy × rack
// policy), plus the failover cost of freezing one rack — the experiment the
// dispatch-tier refactor unlocks, with the rack balancer exposing the same
// depth-observable surface a node does.
func figHier(o Options) (Figure, error) {
	return figHierOver(o, HierSizes)
}

// figHierOver runs the hierarchical study over the given datacenter sizes
// (the smoke tests pass reduced grids). As in the rack figure, per-size
// memory caps keep at most ~1500 node models in flight regardless of worker
// count.
func figHierOver(o Options, ns []int) (Figure, error) {
	results := make(map[int]map[string]cluster.Result, len(ns))
	for _, n := range ns {
		memCap := max(1, 1500/n)
		workers := min(memCap, BudgetWorkers(o.Workers,
			cluster.Engines(cluster.Config{Nodes: n, Racks: HierRacks, Shards: o.Shards})))
		group, err := runPoints(len(hierTopologies), workers, func(i int) (cluster.Result, error) {
			tp := hierTopologies[i]
			cfg, err := hierConfigAt(o, n, tp.global, tp.rack)
			if err != nil {
				return cluster.Result{}, err
			}
			res, err := cluster.Run(cfg)
			if err != nil {
				return cluster.Result{}, fmt.Errorf("hier %s at %d nodes: %w", tp.label, n, err)
			}
			return res, nil
		})
		if err != nil {
			return Figure{}, err
		}
		byLabel := make(map[string]cluster.Result, len(hierTopologies))
		for i, tp := range hierTopologies {
			byLabel[tp.label] = group[i]
		}
		results[n] = byLabel
	}

	// Degraded-rack study at the largest size: rack 0 running at half speed,
	// under a queue-aware global tier versus a blind one — paired seeds.
	// Healthy racks absorb placement skew inside the rack, so this is where
	// the global policy earns its keep: at the figure's load a 2× slower
	// rack is past saturation on its share, and only a global tier that
	// watches rack aggregate depth sheds the excess.
	top := ns[len(ns)-1]
	slowFault := []cluster.NodeFault{{Node: 0, Rack: true, Fault: machine.Fault{Slowdown: 2}}}
	degraded, err := runPoints(2, max(1, 1500/top), func(i int) (cluster.Result, error) {
		global := []string{"jsqfull", "random"}[i]
		cfg, err := hierConfigAt(o, top, global, "jsqfull")
		if err != nil {
			return cluster.Result{}, err
		}
		cfg.Faults = slowFault
		res, err := cluster.Run(cfg)
		if err != nil {
			return cluster.Result{}, fmt.Errorf("hier degraded %sxjsqfull at %d nodes: %w", global, top, err)
		}
		return res, nil
	})
	if err != nil {
		return Figure{}, err
	}
	degJSQFull, degRandom := degraded[0], degraded[1]

	// Failover study at the largest size: the jsqfullxjsqfull stack with rack
	// 0's balancer (and its nodes) frozen mid-measurement, against the healthy
	// run already measured above — paired seeds, identical arrivals.
	failCfg, err := hierConfigAt(o, top, "jsqfull", "jsqfull")
	if err != nil {
		return Figure{}, err
	}
	pause := hierPause(failCfg)
	failCfg.Faults = []cluster.NodeFault{{Node: 0, Rack: true, Fault: machine.Fault{Pauses: []machine.Pause{pause}}}}
	failRes, err := cluster.Run(failCfg)
	if err != nil {
		return Figure{}, fmt.Errorf("hier failover at %d nodes: %w", top, err)
	}
	healthyRes := results[top]["jsqfullxjsqfull"]

	wl := workload.SyntheticExp()
	fig := Figure{
		ID: "hier",
		Title: fmt.Sprintf("Two-tier datacenter: tail latency vs size, flat balancer vs %d racks (global x rack policy), %s workload, load %.2f, %v global hop + %v rack hop",
			HierRacks, wl.Name, HierLoad, HierGlobalHop, ClusterHop),
	}

	labels := make([]string, len(hierTopologies))
	for k, tp := range hierTopologies {
		labels[k] = tp.label
	}
	latency := func(i, k int) stats.Summary { return results[ns[i]][labels[k]].Latency }
	p99Tbl := grid("Hier p99 (ns) vs datacenter size by topology", "nodes", ns, labels, []string{"p99ns_"},
		func(i, k, _ int) any { return latency(i, k).P99 })
	p999Tbl := grid("Hier p99.9 (ns) vs datacenter size by topology", "nodes", ns, labels, []string{"p999ns_"},
		func(i, k, _ int) any { return latency(i, k).P999 })

	share := func(res cluster.Result) float64 {
		if res.Completed == 0 || len(res.RackCompleted) == 0 {
			return 0
		}
		return float64(res.RackCompleted[0]) / float64(res.Completed)
	}
	degTbl := report.NewTable(
		fmt.Sprintf("Degraded rack at %d nodes (rack 0 at x2, global policy varies)", top),
		"variant", "p99ns", "p999ns", "rack0_share")
	degTbl.AddRowf("jsqfullxjsqfull", degJSQFull.Latency.P99, degJSQFull.Latency.P999, share(degJSQFull))
	degTbl.AddRowf("randomxjsqfull", degRandom.Latency.P99, degRandom.Latency.P999, share(degRandom))
	failTbl := report.NewTable(
		fmt.Sprintf("Rack failover at %d nodes (jsqfullxjsqfull, rack 0 %v)", top, pause),
		"variant", "p99ns", "p999ns", "rack0_share")
	failTbl.AddRowf("healthy", healthyRes.Latency.P99, healthyRes.Latency.P999, share(healthyRes))
	failTbl.AddRowf("rack0-paused", failRes.Latency.P99, failRes.Latency.P999, share(failRes))
	fig.Tables = append(fig.Tables, p99Tbl, p999Tbl, degTbl, failTbl)

	// Claims at the largest size: comparative orderings that hold from Quick
	// to Default scales.
	at := func(label string) cluster.Result { return results[top][label] }
	fig.Claims = []Claim{
		noWorse(fmt.Sprintf("hier flat jsqfull p99 <= jsqfullxjsqfull p99 (%d nodes)", top),
			"a second dispatch tier pays its hop: flat routing lower-bounds the stacked tail",
			at("flat-jsqfull").Latency.P99, at("jsqfullxjsqfull").Latency.P99),
		noWorse(fmt.Sprintf("hier degraded-rack jsqfullxjsqfull p99 <= randomxjsqfull p99 (%d nodes)", top),
			"queue-aware global placement routes around a slow rack; blind placement overloads it",
			degJSQFull.Latency.P99, degRandom.Latency.P99),
		noWorse(fmt.Sprintf("hier degraded-rack jsqfull global sheds slow-rack load vs random (%d nodes)", top),
			"only a global tier watching rack aggregate depth can shed a saturating rack's excess",
			share(degJSQFull), share(degRandom)),
		statement{fmt.Sprintf("hier rack failover costs at p99.9 (%d nodes)", top),
			"freezing one rack balancer strands in-flight requests: the outage prices into the far tail"}.
			judge(above(failRes.Latency.P999, healthyRes.Latency.P999), "paused p999=%.4g vs healthy p999=%.4g",
				failRes.Latency.P999, healthyRes.Latency.P999),
		statement{fmt.Sprintf("hier failover shifts load off the frozen rack (%d nodes)", top),
			"the global tier routes around a rack whose aggregate depth stops draining"}.
			judge(below(share(failRes), share(healthyRes)), "rack0 share %.4f paused vs %.4f healthy (fair %.4f)",
				share(failRes), share(healthyRes), 1.0/HierRacks),
	}
	return fig, nil
}
