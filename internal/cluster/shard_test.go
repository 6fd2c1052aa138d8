package cluster

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"rpcvalet/internal/machine"
	"rpcvalet/internal/sim"
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

// TestShardedFrontStopsAtItsKey pins where a sharded run stops. A sharded
// completion is a deferred effect on the front engine (run.go), applied
// when the front next reads what it changes: an arrival's pick, the
// MaxSimTime callback, a stale flat tier's refresh, or the end of a round.
// The completion that reaches the target must close the window at its own
// time, and no later arrival, refresh or timeout may act; a timeout must
// count only the completions keyed before it. The grid crosses flat runs at
// 2 and 3 shards and a sharded two-tier run with a run to the target, a
// timeout on a round boundary (3 µs) and one mid-round (7.25 µs), with
// live and stale views. A sparse set adds runs whose arrivals are rare
// against the round, so the completion that reaches the target is often
// the last front key of its round and only the exchange settles it; a
// later settle would run the nodes a round past the stop. Each pin is
// Completed, TimedOut and a digest of the Result and its timelines.
func TestShardedFrontStopsAtItsKey(t *testing.T) {
	// Completed, TimedOut and resultDigest per config.
	want := map[string]string{
		"flat2/max=0/sample=0":       "1000 false fef82a60ed8c9917ab9c63aadf7d6f1eca3659a510e3390b0c18d897716d9f6a",
		"flat2/max=0/sample=300":     "1000 false ad272962bb095e01f9cfaee35dacf7abd3e71899a23ba8cabd28e5e0f728b158",
		"flat2/max=3000/sample=0":    "100 true d4047faa233eb8a09489f8286777400bbc7d7f9f25a9af877e9ce078ce929971",
		"flat2/max=3000/sample=300":  "100 true 5183213cf2469a896cb6783f824e9056ec3c7a305192ccb07cf1792cb5170135",
		"flat2/max=7250/sample=0":    "474 true 0df70ab73b5474ce698541a5da373b713fd8250183821efa573d94522e77391c",
		"flat2/max=7250/sample=300":  "479 true 06d813fdaa861ad3307887be7295671eaedebdf12bf1708b64ca36621acd68f5",
		"flat3/max=0/sample=0":       "1000 false fef82a60ed8c9917ab9c63aadf7d6f1eca3659a510e3390b0c18d897716d9f6a",
		"flat3/max=0/sample=300":     "1000 false ad272962bb095e01f9cfaee35dacf7abd3e71899a23ba8cabd28e5e0f728b158",
		"flat3/max=3000/sample=0":    "100 true d4047faa233eb8a09489f8286777400bbc7d7f9f25a9af877e9ce078ce929971",
		"flat3/max=3000/sample=300":  "100 true 5183213cf2469a896cb6783f824e9056ec3c7a305192ccb07cf1792cb5170135",
		"flat3/max=7250/sample=0":    "474 true 0df70ab73b5474ce698541a5da373b713fd8250183821efa573d94522e77391c",
		"flat3/max=7250/sample=300":  "479 true 06d813fdaa861ad3307887be7295671eaedebdf12bf1708b64ca36621acd68f5",
		"racks2/max=0/sample=0":      "1000 false f5f91e5731366d8ce0886ea4113d3693a8391b3f0673cc15853e81d59706ee00",
		"racks2/max=0/sample=300":    "1000 false aecf71239285dfd56679695d8d46241ecd8bb6277579180ffe6a4392dfb81546",
		"racks2/max=3000/sample=0":   "54 true 074cd912337785d848027a42aefb1042bb89b0ae9d69dcaa125367f44d42f0eb",
		"racks2/max=3000/sample=300": "54 true eb870279b8978f72e437c7e0bf31d078cdc09189a0403fc6b65f292759a53900",
		"racks2/max=7250/sample=0":   "433 true ed827a99b5cd9b0aff2e025e776bec489249539798521e5e46af87a7d8c666f0",
		"racks2/max=7250/sample=300": "431 true 00fc0ebb5ac64d5cd9262f8be813c26139ccef533fe0df47e7ff480b5c13293e",

		"sparse/racks0/seed=1": "45 false 5c0c4ef66afc91e6e88b7fab120ebfc4f52a36f8dc7cef70d86c6b4425c216a3",
		"sparse/racks0/seed=2": "45 false 6e635873bb7e768868c0be5e7103bd1249cf4785417d9862cdc3514f459777d5",
		"sparse/racks0/seed=3": "45 false cf48eb0c8db170a613ca5a720b878c1fac0203e9ec6c0c9234ab6ad0d42ad402",
		"sparse/racks0/seed=4": "45 false bdba4e0f50537e490d972de73810fb94d1fd5230ba27067f0d460d182b17c912",
		"sparse/racks2/seed=1": "45 false 3e7344365238f94cfd953d3e6383b1d140e9b6df0e91e56a62ad726847c861f7",
		"sparse/racks2/seed=2": "45 false b7faeeaf7483c755b556e5c8431adacee8869c190e3f60277c827bbd935c1334",
		"sparse/racks2/seed=3": "45 false c679fc05268746cab85c2e665eae0e289c92920d949999a37ae769828a2f117c",
		"sparse/racks2/seed=4": "45 false 129f35989b5b22ee892aad8446c17ac7cb220de2a41475c5f9fb22da2f19011a",
	}
	check := func(name string, cfg Config) {
		res := run(t, cfg)
		got := fmt.Sprintf("%d %v %s", res.Completed, res.TimedOut, resultDigest(res))
		if got != want[name] {
			t.Errorf("%s: got %s, want %s", name, got, want[name])
		}
	}
	for _, top := range []struct {
		name          string
		shards, racks int
	}{{"flat2", 2, 0}, {"flat3", 3, 0}, {"racks2", 2, 2}} {
		for _, limit := range []sim.Duration{0, 3 * sim.Microsecond, 7250 * sim.Nanosecond} {
			for _, sample := range []sim.Duration{0, 300 * sim.Nanosecond} {
				name := fmt.Sprintf("%s/max=%v/sample=%v", top.name, limit.Nanos(), sample.Nanos())
				cfg := baseConfig(6, JSQ{D: 2}, 0.8)
				if top.racks > 0 {
					cfg = hierConfig(6, top.racks, JSQ{D: 2}, JSQ{D: 2}, 0.8)
				}
				cfg.Shards = top.shards
				cfg.Warmup, cfg.Measure = 100, 900
				cfg.MaxSimTime = limit
				cfg.SampleEvery = sample
				check(name, cfg)
			}
		}
	}
	// Sparse: 2% load behind 2 µs hops, so a 2 µs round holds about five
	// arrivals, against some 50 in a 500 ns round at 80% load above.
	for _, racks := range []int{0, 2} {
		for seed := uint64(1); seed <= 4; seed++ {
			cfg := baseConfig(6, JSQ{D: 2}, 0.02)
			if racks > 0 {
				cfg = hierConfig(6, racks, JSQ{D: 2}, JSQ{D: 2}, 0.02)
				cfg.GlobalHop = 2 * sim.Microsecond
			}
			cfg.Hop = 2 * sim.Microsecond
			cfg.Shards = 2
			cfg.Seed = seed
			cfg.Warmup, cfg.Measure = 5, 40
			check(fmt.Sprintf("sparse/racks%d/seed=%d", racks, seed), cfg)
		}
	}
}

// resultDigest is a SHA-256 of every Result field and the timelines its
// methods summarize.
func resultDigest(r Result) string {
	tl, nodes := r.Timeline(), r.NodeTimelines()
	r.rec, r.nodeRecs = nil, nil
	return fmt.Sprintf("%x", sha256.Sum256(fmt.Appendf(nil, "%+v|%+v|%+v", r, tl, nodes)))
}
