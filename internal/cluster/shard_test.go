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
		"flat2/max=0/sample=0":       "1000 false 3b3826a1d93002955d91b861021a3c2678e9dec95fec5639879f24e685def858",
		"flat2/max=0/sample=300":     "1000 false b79cfd49b6bb6224ee842401c4ab7167fdc1e3e0817af2f97bd2644ae2f14b71",
		"flat2/max=3000/sample=0":    "100 true 6ce61290c8826923dec22b77416286d35bb8a7d577048f68955c701ccf30c8b7",
		"flat2/max=3000/sample=300":  "100 true 0406fa2e41194b99d7fc5b25b8cea732441a124905aa7e467b771751f4487485",
		"flat2/max=7250/sample=0":    "474 true 387cd7c7ea676af3aedba919f8875ee63d8aded440820b4b2e8f02363faca560",
		"flat2/max=7250/sample=300":  "479 true 00e11b8613d14113eab3565097e85c412824df632b2b018852c464a71f3314ee",
		"flat3/max=0/sample=0":       "1000 false 3b3826a1d93002955d91b861021a3c2678e9dec95fec5639879f24e685def858",
		"flat3/max=0/sample=300":     "1000 false b79cfd49b6bb6224ee842401c4ab7167fdc1e3e0817af2f97bd2644ae2f14b71",
		"flat3/max=3000/sample=0":    "100 true 6ce61290c8826923dec22b77416286d35bb8a7d577048f68955c701ccf30c8b7",
		"flat3/max=3000/sample=300":  "100 true 0406fa2e41194b99d7fc5b25b8cea732441a124905aa7e467b771751f4487485",
		"flat3/max=7250/sample=0":    "474 true 387cd7c7ea676af3aedba919f8875ee63d8aded440820b4b2e8f02363faca560",
		"flat3/max=7250/sample=300":  "479 true 00e11b8613d14113eab3565097e85c412824df632b2b018852c464a71f3314ee",
		"racks2/max=0/sample=0":      "1000 false 9275123af884f648024155d3ce98d61855c4a21c0bb7ef5836339e638657d79c",
		"racks2/max=0/sample=300":    "1000 false f9bbcb2c85ffb2af3bf7119a9f651c5214b4e84b054a4135a03167cd2419971d",
		"racks2/max=3000/sample=0":   "54 true 2c055036ccca4ff81d498e82004d7296856156257dfc216865658d74b41979b2",
		"racks2/max=3000/sample=300": "54 true 42260637cb5e159a43463d8e21b264e7be94aada937b7eaa5e13469c080c05f9",
		"racks2/max=7250/sample=0":   "433 true 93ed95aeae82acd0b25b127fb3d8f6894b9984666ebea500a98697a588a7cc5b",
		"racks2/max=7250/sample=300": "431 true 45c46db1cdc124d00fea7793512d9d615537e05bacc85e86207a681b5fc121a2",

		"sparse/racks0/seed=1": "45 false 972e6979b2b26fa25f3645c08faef6c3c8395de32bcc4917c5c172612798ef4b",
		"sparse/racks0/seed=2": "45 false bd2a10924f10439791b20ddfbbdae9a3208db2316774eee370dc7d2ef743661f",
		"sparse/racks0/seed=3": "45 false 43d84c8f6acfb0f1a82d564151931005df2d56654538eb4cb646c19cc14a046d",
		"sparse/racks0/seed=4": "45 false 21f97c0585b0c3cc06b9510bc62985076b1be1f852006a0084ff6d2ff5ccb471",
		"sparse/racks2/seed=1": "45 false 45882c7ec195e6ae5dca5db3dfe498d15547cd0c644d20b54df273b5d89cc825",
		"sparse/racks2/seed=2": "45 false e441e5d90040323b3ac152b84710780d8566aac76df9729d45682cd1bda35305",
		"sparse/racks2/seed=3": "45 false 3ed29c6571cf658266a1f7dad5d42db55e80d3adeea1892a2c56a03d6d4e0da3",
		"sparse/racks2/seed=4": "45 false c0e558de96dbd039341f115eaab7a30073e0b460c71b007fdaab2a1b8d269e6d",
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
