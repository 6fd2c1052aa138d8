package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"rpcvalet/internal/machine"
	"rpcvalet/internal/trace"
	"rpcvalet/internal/workload"
)

// shardGridCell is one (policy, plan, load) equivalence-test cell.
type shardGridCell struct {
	name string
	cfg  Config
}

// shardGrid is the cell set the equivalence property is checked over —
// every balancer policy, both a shared-CQ and a partitioned node plan,
// light and heavy load.
func shardGrid() []shardGridCell {
	var grid []shardGridCell
	for _, polName := range PolicyNames {
		for _, plan := range []struct {
			label string
			wl    workload.Profile
			plan  *machine.Plan
		}{
			{"1x16-exp", workload.SyntheticExp(), machine.PlanSingleQueue()},
			{"16x1-gev", workload.SyntheticGEV(), machine.PlanPartitioned()},
		} {
			for _, load := range []float64{0.4, 0.8} {
				pol, err := PolicyByName(polName)
				if err != nil {
					panic(err)
				}
				cfg := baseConfig(8, pol, load)
				cfg.Node.Workload = plan.wl
				cfg.Node.Params.Plan = plan.plan
				cfg.RateMRPS = load * float64(cfg.Nodes) * nodeCapacityMRPS(cfg.Node)
				cfg.Warmup = 200
				cfg.Measure = 2500
				grid = append(grid, shardGridCell{
					name: fmt.Sprintf("%s/%s/%.0f%%", polName, plan.label, 100*load),
					cfg:  cfg,
				})
			}
		}
	}
	return grid
}

// TestShardEquivalence is the shard-count property: Shards ∈ {0, 1} must be
// byte-identical to each other (both take the historical single-engine
// path), and Shards ∈ {2, 4, 8} must produce byte-identical Results to each
// other at a fixed seed — the sharded protocol's message merge order and
// round width are partition-independent. Serial and sharded are compared
// structurally (same completions per node) but not byte-wise: the sharded
// balancer learns of completions one hop later by design.
func TestShardEquivalence(t *testing.T) {
	for _, cell := range shardGrid() {
		cfg := cell.cfg
		t.Run(cell.name, func(t *testing.T) {
			t.Parallel()
			results := map[int]Result{}
			for _, shards := range []int{0, 1, 2, 4, 8} {
				c := cfg
				c.Shards = shards
				c.Policy = cfg.Policy.Clone()
				results[shards] = run(t, c)
			}
			if !sameResult(results[0], results[1]) {
				t.Error("Shards=1 differs from the zero-value default")
			}
			for _, shards := range []int{4, 8} {
				if !sameResult(results[2], results[shards]) {
					t.Errorf("Shards=%d result differs from Shards=2:\n  2: %v\n  %d: %v",
						shards, results[2], shards, results[shards])
				}
			}
			// Sharded runs must stay structurally faithful to the serial
			// simulation: same request count, plausible latency scale.
			serial, sharded := results[1], results[2]
			if sharded.Completed != serial.Completed {
				t.Errorf("sharded completed %d, serial %d", sharded.Completed, serial.Completed)
			}
			if sharded.Latency.P50 <= 0 || sharded.ThroughputMRPS <= 0 {
				t.Errorf("degenerate sharded result: %v", sharded)
			}
		})
	}
}

// TestShardedDeterminism: a fixed (seed, shards) pair reproduces the
// identical Result bytes across repeated runs, including timelines, traces,
// and tail spans.
func TestShardedDeterminism(t *testing.T) {
	cfg := baseConfig(8, JSQ{D: 2}, 0.7)
	cfg.Warmup = 200
	cfg.Measure = 4000
	cfg.Shards = 4
	cfg.SampleEvery = cfg.Hop // stale view exercises the snapshot loop too

	runTraced := func() (Result, []trace.Event, []trace.Span) {
		c := cfg
		c.Policy = cfg.Policy.Clone()
		var events []trace.Event
		tail := trace.NewTailSampler(8)
		c.Trace = trace.Tee(tail, trace.Func(func(e trace.Event) { events = append(events, e) }))
		return run(t, c), events, tail.Spans()
	}
	a, aev, atail := runTraced()
	b, bev, btail := runTraced()
	if !sameResult(a, b) {
		t.Fatalf("same (seed, shards) diverged:\n%v\n%v", a, b)
	}
	if !reflect.DeepEqual(aev, bev) {
		t.Fatalf("trace streams diverged: %d vs %d events", len(aev), len(bev))
	}
	if !reflect.DeepEqual(atail, btail) {
		t.Fatal("tail spans diverged")
	}
	// Different seeds must still decorrelate.
	c := cfg
	c.Policy = cfg.Policy.Clone()
	c.Seed = 2
	if other := run(t, c); other.Latency == a.Latency {
		t.Fatal("different seeds produced identical sharded results")
	}
}

// TestShardedFeaturesThread: faults, heterogeneous plans, stale sampling,
// and MaxSimTime all flow through the sharded path.
func TestShardedFeaturesThread(t *testing.T) {
	cfg := baseConfig(6, &BoundedLoad{Factor: 1.25}, 0.6)
	cfg.Warmup = 100
	cfg.Measure = 2000
	cfg.Shards = 3
	cfg.SampleEvery = 2 * cfg.Hop
	cfg.Faults = []NodeFault{{Node: 1, Fault: machine.Fault{Slowdown: 2}}}
	plans := make([]*machine.Plan, cfg.Nodes)
	plans[5] = machine.PlanPartitioned()
	cfg.NodePlans = plans
	res := run(t, cfg)
	if res.NodeFaults[1] == "healthy" {
		t.Errorf("fault label lost: %v", res.NodeFaults)
	}
	if res.NodeDispatch[5] == res.NodeDispatch[0] {
		t.Errorf("per-node plan lost: %v", res.NodeDispatch)
	}
	if n := len(res.NodeTimelines()); n != cfg.Nodes {
		t.Fatalf("%d node timelines for %d nodes", n, cfg.Nodes)
	}

	// A tiny MaxSimTime must abort the sharded run, flagged TimedOut.
	cfg.Policy = cfg.Policy.Clone()
	cfg.MaxSimTime = 10 * cfg.Hop
	if res := run(t, cfg); !res.TimedOut {
		t.Fatal("sharded run ignored MaxSimTime")
	}
}

// TestShardValidation: shard-specific config errors.
func TestShardValidation(t *testing.T) {
	neg := baseConfig(4, Random{}, 0.5)
	neg.Shards = -1
	if _, err := Run(neg); err == nil {
		t.Error("negative shard count accepted")
	}
	noHop := baseConfig(4, Random{}, 0.5)
	noHop.Shards = 2
	noHop.Hop = 0
	if _, err := Run(noHop); err == nil {
		t.Error("Shards>1 with zero hop accepted: no lookahead window exists")
	}
	// Clamping: more shards than nodes is not an error.
	over := baseConfig(2, Random{}, 0.5)
	over.Shards = 16
	over.Warmup, over.Measure = 50, 500
	if _, err := Run(over); err != nil {
		t.Errorf("Shards>Nodes rejected: %v", err)
	}
	// Shards>1 on a single node degrades to the serial path.
	one := baseConfig(1, Random{}, 0.5)
	one.Shards = 4
	one.Warmup, one.Measure = 50, 500
	base := baseConfig(1, Random{}, 0.5)
	base.Warmup, base.Measure = 50, 500
	if a, b := run(t, one), run(t, base); !sameResult(a, b) {
		t.Error("single-node sharded run differs from serial")
	}
}

// TestShardedPolicyError: a misbehaving policy fails the sharded run with an
// attributable error instead of panicking a shard goroutine.
func TestShardedPolicyError(t *testing.T) {
	cfg := baseConfig(4, roguePolicy{}, 0.5)
	cfg.Shards = 2
	if _, err := Run(cfg); err == nil {
		t.Fatal("out-of-range pick not reported")
	}
}

// TestEngines: the engines one Run uses, and so the goroutine team a sweep
// budgets for it — 1 on the serial path; on the sharded path the front tier
// plus min(Shards, Nodes) node groups flat, or one group per rack two-tier.
func TestEngines(t *testing.T) {
	for _, c := range []struct {
		nodes, racks, shards, want int
	}{
		{8, 0, 0, 1},   // zero value: serial
		{8, 0, 1, 1},   // explicit serial
		{8, 0, 4, 5},   // 4 node shards + balancer
		{2, 0, 16, 3},  // clamped to nodes
		{1, 0, 16, 1},  // one node degrades to serial
		{16, 4, 1, 1},  // two-tier, serial
		{16, 4, 2, 5},  // two-tier: a group per rack + global tier
		{16, 4, 64, 5}, // two-tier ignores the shard count past 1
	} {
		if got := Engines(Config{Nodes: c.nodes, Racks: c.racks, Shards: c.shards}); got != c.want {
			t.Errorf("Engines(nodes=%d, racks=%d, shards=%d) = %d, want %d", c.nodes, c.racks, c.shards, got, c.want)
		}
	}
}
