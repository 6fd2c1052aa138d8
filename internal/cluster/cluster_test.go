package cluster

import (
	"math"
	"reflect"
	"testing"

	"rpcvalet/internal/arrival"
	"rpcvalet/internal/machine"
	"rpcvalet/internal/rng"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/workload"
)

// nodeCapacityMRPS mirrors core.CapacityMRPS without importing core (which
// would cycle once core grows cluster figures).
func nodeCapacityMRPS(cfg machine.Config) float64 {
	return float64(cfg.Params.Cores) /
		(cfg.Workload.MeanService() + cfg.Params.CoreOverheadNanos()) * 1000
}

func baseConfig(nodes int, pol Policy, loadFrac float64) Config {
	node := machine.Config{Params: machine.Defaults(), Workload: workload.SyntheticExp()}
	return Config{
		Nodes:    nodes,
		Node:     node,
		Policy:   pol,
		RateMRPS: loadFrac * float64(nodes) * nodeCapacityMRPS(node),
		Hop:      500 * sim.Nanosecond,
		Warmup:   1000,
		Measure:  12000,
		Seed:     1,
	}
}

func run(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValidation(t *testing.T) {
	good := baseConfig(4, Random{}, 0.5)
	cases := map[string]func(c *Config){
		"noNodes":       func(c *Config) { c.Nodes = 0 },
		"nilPolicy":     func(c *Config) { c.Policy = nil },
		"zeroRate":      func(c *Config) { c.RateMRPS = 0 },
		"noMeasure":     func(c *Config) { c.Measure = 0 },
		"negWarmup":     func(c *Config) { c.Warmup = -1 },
		"negHop":        func(c *Config) { c.Hop = -1 },
		"negSample":     func(c *Config) { c.SampleEvery = -1 },
		"badNodeCfg":    func(c *Config) { c.Node.Params.Cores = 0 },
		"planCount":     func(c *Config) { c.NodePlans = []*machine.Plan{machine.PlanSingleQueue()} },
		"badPlanGroups": func(c *Config) { c.Node.Params.Plan = &machine.Plan{Groups: 3} },
	}
	for name, mutate := range cases {
		cfg := good
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := baseConfig(4, JSQ{D: 2}, 0.7)
	cfg.Measure = 6000
	a := run(t, cfg)
	b := run(t, cfg)
	if a.Latency != b.Latency || !reflect.DeepEqual(a.NodeCompleted, b.NodeCompleted) {
		t.Fatal("identical seeds produced different results")
	}
	cfg.Seed = 2
	c := run(t, cfg)
	if a.Latency == c.Latency {
		t.Fatal("different seeds produced identical results")
	}
}

// TestJSQBeatsRandomAt80 is the subsystem's regression gate: a queue-aware
// front end must not lose to a blind one at high load. At 80% offered load
// on the synthetic-exponential workload, JSQ(2)'s cluster p99 must be at or
// below Random's.
func TestJSQBeatsRandomAt80(t *testing.T) {
	random := run(t, baseConfig(4, Random{}, 0.8))
	jsq := run(t, baseConfig(4, JSQ{D: 2}, 0.8))
	if jsq.Latency.P99 > random.Latency.P99 {
		t.Fatalf("JSQ(2) p99 %.0fns above Random %.0fns at 80%% load",
			jsq.Latency.P99, random.Latency.P99)
	}
}

// TestRoundRobinEvensArrivals: RR's completion counts must be nearly
// uniform, and strictly more even than Random's at the same load.
func TestRoundRobinEvensArrivals(t *testing.T) {
	rr := run(t, baseConfig(8, &RoundRobin{}, 0.6))
	random := run(t, baseConfig(8, Random{}, 0.6))
	if rr.Imbalance > 1.02 {
		t.Fatalf("round-robin imbalance %.3f, want ~1", rr.Imbalance)
	}
	if random.Imbalance <= rr.Imbalance {
		t.Fatalf("random imbalance %.3f not above round-robin %.3f",
			random.Imbalance, rr.Imbalance)
	}
}

// TestBoundedLoadCapsImbalance: the bounded policy must keep per-node
// completions within (roughly) its factor of the mean.
func TestBoundedLoadCapsImbalance(t *testing.T) {
	res := run(t, baseConfig(8, &BoundedLoad{Factor: 1.25}, 0.7))
	if res.Imbalance > 1.25 {
		t.Fatalf("bounded-load imbalance %.3f above factor 1.25", res.Imbalance)
	}
}

// TestHopChargesLatency: every measured RPC pays the balancer→node hop, so
// the minimum end-to-end latency must exceed it; raising the hop must move
// the whole distribution up by about the difference.
func TestHopChargesLatency(t *testing.T) {
	cfg := baseConfig(4, Random{}, 0.3)
	near := run(t, cfg)
	if near.Latency.Min < cfg.Hop.Nanos() {
		t.Fatalf("min latency %.0fns below hop %.0fns", near.Latency.Min, cfg.Hop.Nanos())
	}
	cfg.Hop = 5 * sim.Microsecond
	far := run(t, cfg)
	wantDelta := (5*sim.Microsecond - 500*sim.Nanosecond).Nanos()
	delta := far.Latency.P50 - near.Latency.P50
	if math.Abs(delta-wantDelta) > 0.1*wantDelta {
		t.Fatalf("p50 moved %.0fns for a %.0fns hop increase", delta, wantDelta)
	}
}

// TestStaleViewStillBalances: with a 10 µs sampling period JSQ works off
// stale depths; it must still complete deterministically and keep its tail
// within sight of the live-view tail (herding can cost, not diverge).
func TestStaleViewStillBalances(t *testing.T) {
	live := baseConfig(4, JSQ{D: 2}, 0.7)
	stale := live
	stale.SampleEvery = 10 * sim.Microsecond
	a := run(t, stale)
	b := run(t, stale)
	if a.Latency != b.Latency {
		t.Fatal("stale-view run not deterministic")
	}
	lv := run(t, live)
	if a.Latency.P99 > 5*lv.Latency.P99 {
		t.Fatalf("stale JSQ p99 %.0fns implausibly far above live %.0fns",
			a.Latency.P99, lv.Latency.P99)
	}
}

func TestThroughputTracksOffered(t *testing.T) {
	cfg := baseConfig(4, &RoundRobin{}, 0.5)
	cfg.Measure = 20000
	res := run(t, cfg)
	if math.Abs(res.ThroughputMRPS-cfg.RateMRPS)/cfg.RateMRPS > 0.05 {
		t.Fatalf("throughput %.2f MRPS, offered %.2f", res.ThroughputMRPS, cfg.RateMRPS)
	}
	for i, u := range res.NodeUtilization {
		if u <= 0 || u >= 1 {
			t.Fatalf("node %d utilization %v out of range", i, u)
		}
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range PolicyNames {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.String() == "" {
			t.Fatalf("%s: empty description", name)
		}
	}
	if p, err := PolicyByName("jsq5"); err != nil || p.(JSQ).D != 5 {
		t.Fatalf("jsq5 => %v, %v", p, err)
	}
	if p, err := PolicyByName("bounded1.5"); err != nil || p.(*BoundedLoad).Factor != 1.5 {
		t.Fatalf("bounded1.5 => %v, %v", p, err)
	}
	for _, bad := range []string{"", "jsq", "jsq1", "jsqx", "leastconn",
		"bounded0.5", "boundedNaN", "boundedInf", "bounded-1", "boundedx"} {
		if _, err := PolicyByName(bad); err == nil {
			t.Errorf("%q: accepted", bad)
		}
	}
}

// FuzzPolicyByName checks that no name panics PolicyByName and that every
// accepted policy's String() — the name Result.Policy reports — parses back
// to an equal policy.
func FuzzPolicyByName(f *testing.F) {
	for _, seed := range []string{
		"random", "rr", "jsq2", "jsq5", "jsqfull", "bounded", "bounded1.25",
		"bounded1", "bounded0.99", "boundedNaN", "boundedInf", "bounded1e308",
		"jsq1", "jsq99999999999", "jsq+3", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		p, err := PolicyByName(name)
		if err != nil {
			return
		}
		back, err := PolicyByName(p.String())
		if err != nil {
			t.Fatalf("PolicyByName(%q) = %v, which does not parse back: %v", name, p, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("PolicyByName(%q) = %#v, String %q parses back to %#v", name, p, p, back)
		}
	})
}

func TestPolicyPickBounds(t *testing.T) {
	nodes := 5
	depths := []int{3, 0, 7, 2, 5}
	v := newDepthIndex(nodes)
	v.Rebuild(func(i int) int { return depths[i] })
	r := rng.New(3)
	for _, p := range []Policy{Random{}, &RoundRobin{}, JSQ{D: 2}, JSQ{D: 16}, &BoundedLoad{Factor: 1.25}} {
		for i := 0; i < 200; i++ {
			if got := p.Pick(v, r); got < 0 || got >= nodes {
				t.Fatalf("%s picked out-of-range node %d", p, got)
			}
		}
	}
	// Full-scan JSQ on a static view must always find the emptiest node.
	if got := (JSQ{D: 16}).Pick(v, r); got != 1 {
		t.Fatalf("full JSQ picked %d, want 1", got)
	}
}

// TestTailGrowsWithLoad: p99 must be (noise-tolerantly) non-decreasing in
// offered load for a queue-aware cluster.
func TestTailGrowsWithLoad(t *testing.T) {
	var prev float64
	for _, frac := range []float64{0.3, 0.6, 0.9} {
		cfg := baseConfig(2, JSQ{D: 2}, frac)
		cfg.Measure = 6000
		res := run(t, cfg)
		if res.Latency.P99 < prev*0.95 {
			t.Fatalf("p99 decreased with load: %v -> %v at %v", prev, res.Latency.P99, frac)
		}
		prev = res.Latency.P99
	}
}

// TestRoguePolicyRejected: a policy returning an out-of-range node must
// surface as an attributable error, not a panic inside the event loop.
func TestRoguePolicyRejected(t *testing.T) {
	cfg := baseConfig(4, roguePolicy{}, 0.3)
	if _, err := Run(cfg); err == nil {
		t.Fatal("out-of-range pick accepted")
	}
}

type roguePolicy struct{}

func (roguePolicy) Pick(v View, _ *rng.Source) int { return v.Nodes() }
func (roguePolicy) Clone() Policy                  { return roguePolicy{} }
func (roguePolicy) String() string                 { return "rogue" }

// TestArrivalKindsDeterministic: each built-in arrival process drives the
// cluster deterministically and non-Poisson traffic actually changes the
// outcome.
func TestArrivalKindsDeterministic(t *testing.T) {
	base := baseConfig(2, JSQ{D: 2}, 0.6)
	base.Warmup, base.Measure = 500, 6000
	def := run(t, base)
	for _, kind := range arrival.Names {
		arr, err := arrival.ByName(kind, base.RateMRPS)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Arrival = arr
		a := run(t, cfg)
		b := run(t, cfg)
		if a.Latency != b.Latency || a.ThroughputMRPS != b.ThroughputMRPS {
			t.Fatalf("%s: identical configs differ", kind)
		}
		if kind != "poisson" && a.Latency == def.Latency {
			t.Fatalf("%s: produced the exact Poisson result — process not wired in", kind)
		}
		if kind == "poisson" && a.Latency != def.Latency {
			t.Fatal("explicit poisson differs from nil default")
		}
	}
}

// TestHeterogeneousRack: NodePlans mixes dispatch architectures within one
// rack. The run must report each node's resolved plan, stay deterministic,
// and a nil entry must keep the template's plan.
func TestHeterogeneousRack(t *testing.T) {
	cfg := baseConfig(4, JSQ{D: 2}, 0.6)
	cfg.Measure = 8000
	cfg.NodePlans = []*machine.Plan{
		machine.PlanSingleQueue(),
		machine.PlanPartitioned(),
		machine.PlanJBSQ(1),
		nil, // template default (ModeSingleQueue)
	}
	a := run(t, cfg)
	want := []string{"rpcvalet-1x16", "partitioned-16x1", "jbsq1", "rpcvalet-1x16"}
	if !reflect.DeepEqual(a.NodeDispatch, want) {
		t.Fatalf("NodeDispatch = %v, want %v", a.NodeDispatch, want)
	}
	b := run(t, cfg)
	if a.Latency != b.Latency || !reflect.DeepEqual(a.NodeCompleted, b.NodeCompleted) {
		t.Fatal("heterogeneous rack not deterministic")
	}
	for i, c := range a.NodeCompleted {
		if c == 0 {
			t.Fatalf("node %d served nothing", i)
		}
	}
}

// TestNodePlansMatchUniformRun: a NodePlans array repeating the template's
// canned plan must reproduce the plain uniform run exactly.
func TestNodePlansMatchUniformRun(t *testing.T) {
	cfg := baseConfig(3, JSQ{D: 2}, 0.5)
	cfg.Measure = 6000
	uniform := run(t, cfg)
	cfg.NodePlans = []*machine.Plan{
		machine.PlanSingleQueue(), machine.PlanSingleQueue(), machine.PlanSingleQueue(),
	}
	canned := run(t, cfg)
	if uniform.Latency != canned.Latency ||
		!reflect.DeepEqual(uniform.NodeCompleted, canned.NodeCompleted) {
		t.Fatal("canned per-node plans diverge from the uniform run")
	}
}

// fuzzPolicies are the built-in policies FuzzClusterConfig draws from.
var fuzzPolicies = []string{"random", "rr", "jsq2", "jsq3", "jsqfull", "bounded", "bounded1.5"}

// FuzzClusterConfig runs tiny configurations — at most 8 nodes and 2k
// completions, any built-in policy, live or stale views, flat or two-tier,
// serial or sharded, with or without a fault or a time cap — and checks
// the conservation and determinism invariants every Result must keep: the
// per-node counts sum to Completed, which is Warmup+Measure unless the run
// timed out; each rack's nodes sum to its RackCompleted; and a rerun with
// fresh policies is identical. Inputs that fail Validate are skipped.
func FuzzClusterConfig(f *testing.F) {
	// nodes, racks, pol, gpol, shards, sampleNs, gsampleNs, hopNs, ghopNs,
	// warmup, measure, load (% of capacity), fault, maxSimUs, seed.
	f.Add(uint8(4), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0), uint16(0), uint16(500), uint16(0), uint16(200), uint16(1000), uint8(70), uint8(0), uint8(0), uint64(1))
	f.Add(uint8(8), uint8(0), uint8(4), uint8(0), uint8(3), uint16(700), uint16(0), uint16(300), uint16(0), uint16(100), uint16(900), uint8(90), uint8(4*5+1), uint8(0), uint64(2))
	f.Add(uint8(6), uint8(2), uint8(5), uint8(4), uint8(0), uint16(400), uint16(900), uint16(200), uint16(500), uint16(0), uint16(800), uint8(80), uint8(4*1+2), uint8(0), uint64(3))
	f.Add(uint8(8), uint8(4), uint8(2), uint8(6), uint8(4), uint16(0), uint16(0), uint16(100), uint16(250), uint16(300), uint16(700), uint8(110), uint8(3), uint8(0), uint64(4))
	f.Add(uint8(3), uint8(1), uint8(1), uint8(7), uint8(2), uint16(1500), uint16(0), uint16(0), uint16(100), uint16(50), uint16(1000), uint8(60), uint8(4*2+3), uint8(5), uint64(5))
	f.Fuzz(func(t *testing.T, nodes, racks, pol, gpol, shards uint8, sampleNs, gsampleNs, hopNs, ghopNs, warmup, measure uint16, load, fault, maxSimUs uint8, seed uint64) {
		mk := func(i uint8) Policy {
			p, err := PolicyByName(fuzzPolicies[int(i)%len(fuzzPolicies)])
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		cfg := baseConfig(int(nodes%9), mk(pol), float64(load%120+1)/100)
		cfg.Shards = int(shards % 5)
		cfg.SampleEvery = sim.Duration(sampleNs%2000) * sim.Nanosecond
		cfg.Hop = sim.Duration(hopNs%1000) * sim.Nanosecond
		cfg.Warmup = int(warmup % 1000)
		cfg.Measure = int(measure % 1001)
		cfg.Seed = seed
		cfg.MaxSimTime = sim.Duration(maxSimUs) * sim.Microsecond
		if cfg.Racks = int(racks % 5); cfg.Racks > 0 {
			if g := int(gpol) % (len(fuzzPolicies) + 1); g < len(fuzzPolicies) {
				cfg.GlobalPolicy = mk(uint8(g))
			}
			cfg.GlobalHop = sim.Duration(ghopNs%1000) * sim.Nanosecond
			cfg.GlobalSampleEvery = sim.Duration(gsampleNs%2000) * sim.Nanosecond
		}
		pause := machine.Pause{Start: 5 * sim.Microsecond, Dur: 10 * sim.Microsecond}
		switch target := int(fault / 4); fault % 4 {
		case 1:
			cfg.Faults = []NodeFault{{Node: target, Fault: machine.Fault{Slowdown: 2}}}
		case 2:
			cfg.Faults = []NodeFault{{Node: target, Rack: true, Fault: machine.Fault{Pauses: []machine.Pause{pause}}}}
		case 3:
			cfg.Faults = []NodeFault{{Node: target, Fault: machine.Fault{Slowdown: 1.5, Pauses: []machine.Pause{pause}}}}
		}
		if cfg.Validate() != nil {
			return
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("valid config failed: %v", err)
		}
		sum := 0
		for _, c := range res.NodeCompleted {
			sum += c
		}
		if sum != res.Completed {
			t.Fatalf("Σ NodeCompleted = %d, Completed = %d", sum, res.Completed)
		}
		if !res.TimedOut && res.Completed != cfg.Warmup+cfg.Measure {
			t.Fatalf("Completed = %d, want Warmup+Measure = %d", res.Completed, cfg.Warmup+cfg.Measure)
		}
		size, start := rackGeometry(cfg)
		for r := range size {
			sum := 0
			for _, c := range res.NodeCompleted[start[r] : start[r]+size[r]] {
				sum += c
			}
			if sum != res.RackCompleted[r] {
				t.Fatalf("rack %d: nodes sum to %d, RackCompleted = %d", r, sum, res.RackCompleted[r])
			}
		}
		cfg.Policy = cfg.Policy.Clone()
		if cfg.GlobalPolicy != nil {
			cfg.GlobalPolicy = cfg.GlobalPolicy.Clone()
		}
		again, err := Run(cfg)
		if err != nil {
			t.Fatalf("rerun failed: %v", err)
		}
		if !reflect.DeepEqual(res, again) {
			t.Fatalf("rerun with fresh policies differs:\n%v\n%v", res, again)
		}
	})
}
