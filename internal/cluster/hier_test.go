package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rpcvalet/internal/machine"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/trace"
)

// hierConfig builds a two-tier config on top of baseConfig: racks of equal
// size behind a global balancer one GlobalHop away.
func hierConfig(nodes, racks int, global, rack Policy, loadFrac float64) Config {
	cfg := baseConfig(nodes, rack, loadFrac)
	cfg.Racks = racks
	cfg.GlobalPolicy = global
	cfg.GlobalHop = 500 * sim.Nanosecond
	return cfg
}

// flatten strips the hierarchy-only Result fields so a degenerate two-tier
// run can be compared byte-for-byte against a flat run.
func flatten(r Result) Result {
	r.Racks = 0
	r.GlobalPolicy = ""
	r.RackCompleted = nil
	r.RackFaults = nil
	return r
}

// TestHierFlatEquivalence is the flat-equivalence contract: one rack behind
// a zero-latency global tier must reproduce the flat cluster byte for byte —
// for every policy, at light and heavy load, with live and stale rack
// views, and regardless of whether a global policy is even installed (its
// RNG stream is split last, so its draws perturb nothing).
func TestHierFlatEquivalence(t *testing.T) {
	for _, polName := range PolicyNames {
		for _, load := range []float64{0.4, 0.8} {
			for _, stale := range []bool{false, true} {
				name := fmt.Sprintf("%s/%.0f%%/stale=%v", polName, 100*load, stale)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					mk := func() Config {
						pol, err := PolicyByName(polName)
						if err != nil {
							t.Fatal(err)
						}
						cfg := baseConfig(6, pol, load)
						cfg.Warmup = 300
						cfg.Measure = 4000
						if stale {
							cfg.SampleEvery = 2 * cfg.Hop
						}
						return cfg
					}
					flat := run(t, mk())

					hier := mk()
					hier.Racks = 1
					hier.GlobalHop = 0
					if !sameResult(flat, flatten(run(t, hier))) {
						t.Fatal("one-rack/zero-global-hop run differs from the flat cluster")
					}

					// A global policy that draws from its own RNG stream must
					// not perturb the result either.
					withPol := mk()
					withPol.Racks = 1
					withPol.GlobalHop = 0
					withPol.GlobalPolicy = Random{}
					if !sameResult(flat, flatten(run(t, withPol))) {
						t.Fatal("global policy RNG draws perturbed the one-rack run")
					}
				})
			}
		}
	}
}

// TestHierDeterminism: a hierarchical run is a pure function of its config —
// byte-identical across reruns, including timelines, trace streams, and tail
// spans — and different seeds decorrelate.
func TestHierDeterminism(t *testing.T) {
	base := hierConfig(8, 4, JSQ{D: FullScan}, JSQ{D: 2}, 0.7)
	base.Warmup = 200
	base.Measure = 4000
	base.SampleEvery = base.Hop
	base.GlobalSampleEvery = 2 * base.Hop

	runTraced := func(seed uint64) (Result, []trace.Event, []trace.Span) {
		c := base
		c.Seed = seed
		c.Policy = base.Policy.Clone()
		c.GlobalPolicy = base.GlobalPolicy.Clone()
		var events []trace.Event
		tail := trace.NewTailSampler(8)
		c.Trace = trace.Tee(tail, trace.Func(func(e trace.Event) { events = append(events, e) }))
		return run(t, c), events, tail.Spans()
	}
	a, aev, atail := runTraced(1)
	b, bev, btail := runTraced(1)
	if !sameResult(a, b) {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
	if !reflect.DeepEqual(aev, bev) {
		t.Fatalf("trace streams diverged: %d vs %d events", len(aev), len(bev))
	}
	if !reflect.DeepEqual(atail, btail) {
		t.Fatal("tail spans diverged")
	}
	if c, _, _ := runTraced(2); c.Latency == a.Latency {
		t.Fatal("different seeds produced identical hierarchical results")
	}
	if a.Racks != 4 || a.GlobalPolicy == "" || len(a.RackCompleted) != 4 {
		t.Fatalf("hier result fields not populated: %+v", a)
	}
	sum := 0
	for _, c := range a.RackCompleted {
		sum += c
	}
	if sum != a.Completed {
		t.Fatalf("rack completions sum %d, completed %d", sum, a.Completed)
	}
}

// TestHierShardAgreement is the hierarchical shard property grid: for each
// (racks, policy pair, load), Shards ∈ {0, 1} take the serial engine and
// must agree byte-for-byte; every Shards > 1 maps to one shard per rack, so
// all of them must produce byte-identical Results; serial and sharded agree
// structurally (same completions — the global tier merely *learns* of them
// one GlobalHop later on the sharded path).
func TestHierShardAgreement(t *testing.T) {
	for _, tc := range []struct {
		racks  int
		global Policy
		load   float64
	}{
		{2, Random{}, 0.4},
		{2, JSQ{D: FullScan}, 0.8},
		{4, JSQ{D: 2}, 0.7},
		{4, &RoundRobin{}, 0.5},
	} {
		name := fmt.Sprintf("racks=%d/%s/%.0f%%", tc.racks, tc.global, 100*tc.load)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			base := hierConfig(8, tc.racks, tc.global, JSQ{D: 2}, tc.load)
			base.Warmup = 200
			base.Measure = 2500
			results := map[int]Result{}
			for _, shards := range []int{0, 1, 2, tc.racks, 2 * tc.racks} {
				c := base
				c.Shards = shards
				c.Policy = base.Policy.Clone()
				c.GlobalPolicy = tc.global.Clone()
				results[shards] = run(t, c)
			}
			if !sameResult(results[0], results[1]) {
				t.Error("Shards=1 differs from the zero-value default")
			}
			for _, shards := range []int{tc.racks, 2 * tc.racks} {
				if !sameResult(results[2], results[shards]) {
					t.Errorf("Shards=%d differs from Shards=2 (both map to one shard per rack)", shards)
				}
			}
			serial, sharded := results[1], results[2]
			if sharded.Completed != serial.Completed {
				t.Errorf("sharded completed %d, serial %d", sharded.Completed, serial.Completed)
			}
			if !reflect.DeepEqual(sharded.NodeCompleted, serial.NodeCompleted) && sharded.Latency.P50 <= 0 {
				t.Errorf("degenerate sharded hier result: %v", sharded)
			}
			sum := 0
			for _, c := range sharded.RackCompleted {
				sum += c
			}
			if sum != sharded.Completed {
				t.Errorf("sharded rack completions sum %d, completed %d", sum, sharded.Completed)
			}
		})
	}
}

// TestHierShardedDeterminism: the racks-as-shards path reruns byte-identical
// with tracing and tail sampling on.
func TestHierShardedDeterminism(t *testing.T) {
	base := hierConfig(8, 4, JSQ{D: FullScan}, JSQ{D: 2}, 0.7)
	base.Warmup = 200
	base.Measure = 3000
	base.Shards = 4
	base.SampleEvery = base.Hop

	runTraced := func() (Result, []trace.Event, []trace.Span) {
		c := base
		c.Policy = base.Policy.Clone()
		c.GlobalPolicy = base.GlobalPolicy.Clone()
		var events []trace.Event
		tail := trace.NewTailSampler(8)
		c.Trace = trace.Tee(tail, trace.Func(func(e trace.Event) { events = append(events, e) }))
		return run(t, c), events, tail.Spans()
	}
	a, aev, atail := runTraced()
	b, bev, btail := runTraced()
	if !sameResult(a, b) {
		t.Fatalf("sharded hier run diverged:\n%v\n%v", a, b)
	}
	if !reflect.DeepEqual(aev, bev) {
		t.Fatalf("sharded hier trace streams diverged: %d vs %d events", len(aev), len(bev))
	}
	if !reflect.DeepEqual(atail, btail) {
		t.Fatal("sharded hier tail spans diverged")
	}
}

// TestHierRackFaultScoping: a rack-scoped fault degrades every node in the
// rack (and only that rack), labels the rack in RackFaults, and composes
// with node-scoped entries in last-entry-wins order like flat fault lists.
func TestHierRackFaultScoping(t *testing.T) {
	cfg := hierConfig(6, 2, JSQ{D: FullScan}, JSQ{D: 2}, 0.5)
	cfg.Warmup = 200
	cfg.Measure = 2500
	cfg.Faults = []NodeFault{
		{Node: 1, Rack: true, Fault: machine.Fault{Slowdown: 2}},
		{Node: 4, Fault: machine.Fault{Slowdown: 3}}, // node 4 is in rack 1: overrides the rack entry
	}
	res := run(t, cfg)
	wantNode := []string{"healthy", "healthy", "healthy", "x2", "x3", "x2"}
	if !reflect.DeepEqual(res.NodeFaults, wantNode) {
		t.Fatalf("node fault labels = %v, want %v", res.NodeFaults, wantNode)
	}
	if !reflect.DeepEqual(res.RackFaults, []string{"healthy", "x2"}) {
		t.Fatalf("rack fault labels = %v", res.RackFaults)
	}
	// The degraded rack must complete less than the healthy one under a
	// queue-aware global tier.
	if res.RackCompleted[1] >= res.RackCompleted[0] {
		t.Fatalf("degraded rack out-completed the healthy one: %v", res.RackCompleted)
	}
}

// TestHierBalancerPause: a rack-scoped pause freezes the rack *balancer* —
// requests already routed to the rack wait out the window — so the paused
// run's extreme tail must blow up relative to the identical healthy run,
// and a queue-aware global tier must shift load off the frozen rack.
func TestHierBalancerPause(t *testing.T) {
	base := hierConfig(4, 2, JSQ{D: FullScan}, JSQ{D: FullScan}, 0.6)
	base.Warmup = 500
	base.Measure = 8000

	healthy := run(t, base)

	paused := base
	paused.Policy = base.Policy.Clone()
	paused.GlobalPolicy = base.GlobalPolicy.Clone()
	paused.Faults = []NodeFault{{Node: 0, Rack: true,
		Fault: machine.Fault{Pauses: []machine.Pause{{Start: 50 * sim.Microsecond, Dur: 40 * sim.Microsecond}}}}}
	pres := run(t, paused)

	if pres.Latency.P999 <= healthy.Latency.P999 {
		t.Fatalf("paused rack balancer did not raise p99.9: %.0f <= %.0f",
			pres.Latency.P999, healthy.Latency.P999)
	}
	if pres.RackFaults[0] == "healthy" {
		t.Fatalf("rack fault label missing: %v", pres.RackFaults)
	}
	// The frozen rack's outstanding stays high through the window, so full
	// global JSQ routes around it.
	if pres.RackCompleted[0] >= healthy.RackCompleted[0] {
		t.Fatalf("global tier did not shift load off the frozen rack: paused %v healthy %v",
			pres.RackCompleted, healthy.RackCompleted)
	}
}

// TestHierValidation: every new config rule rejects with the package's
// "cluster:"-prefixed message style.
func TestHierValidation(t *testing.T) {
	good := hierConfig(8, 2, JSQ{D: FullScan}, JSQ{D: 2}, 0.5)
	cases := []struct {
		name    string
		mutate  func(c *Config)
		wantMsg string
	}{
		{"negRacks", func(c *Config) { c.Racks = -1 }, "negative rack count"},
		{"tooManyRacks", func(c *Config) { c.Racks = 9 }, "racks for"},
		{"globalFieldsFlat", func(c *Config) { c.Racks = 0 }, "need Racks >= 1"},
		{"negGlobalHop", func(c *Config) { c.GlobalHop = -1 }, "negative global hop"},
		{"negGlobalSample", func(c *Config) { c.GlobalSampleEvery = -1 }, "negative global sampling"},
		{"noGlobalPolicy", func(c *Config) { c.GlobalPolicy = nil }, "needs a GlobalPolicy"},
		{"unevenRacks", func(c *Config) { c.Racks = 3; c.GlobalHop = 0 }, "evenly partition"},
		{"rackFaultRange", func(c *Config) { c.Faults = []NodeFault{{Node: 2, Rack: true, Fault: machine.Fault{Slowdown: 2}}} }, "fault for rack"},
		{"rackFaultFlat", func(c *Config) {
			c.Racks = 0
			c.GlobalPolicy = nil
			c.GlobalHop = 0
			c.Faults = []NodeFault{{Node: 0, Rack: true, Fault: machine.Fault{Slowdown: 2}}}
		}, "needs Racks >= 1"},
		{"shardsNoGlobalHop", func(c *Config) { c.Shards = 2; c.GlobalHop = 0 }, "positive GlobalHop"},
		{"shardsScrape", func(c *Config) { c.Shards = 2; c.GlobalSampleEvery = c.Hop }, "cannot scrape"},
	}
	for _, tc := range cases {
		cfg := good
		tc.mutate(&cfg)
		_, err := Run(cfg)
		if err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
			continue
		}
		if !strings.HasPrefix(err.Error(), "cluster:") {
			t.Errorf("%s: error %q not cluster:-prefixed", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.wantMsg) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.wantMsg)
		}
	}
}

// TestHierGlobalScrape: a scraping global view (GlobalSampleEvery > 0) runs,
// stays deterministic, and differs from the live-view run — the staleness is
// observable.
func TestHierGlobalScrape(t *testing.T) {
	base := hierConfig(8, 4, JSQ{D: FullScan}, JSQ{D: 2}, 0.8)
	base.Warmup = 200
	base.Measure = 3000

	live := run(t, base)
	scraped := base
	scraped.Policy = base.Policy.Clone()
	scraped.GlobalPolicy = base.GlobalPolicy.Clone()
	scraped.GlobalSampleEvery = 10 * base.GlobalHop
	a := run(t, scraped)
	scraped.Policy = base.Policy.Clone()
	scraped.GlobalPolicy = base.GlobalPolicy.Clone()
	b := run(t, scraped)
	if !sameResult(a, b) {
		t.Fatal("scraping global view is nondeterministic")
	}
	if reflect.DeepEqual(a.NodeCompleted, live.NodeCompleted) && a.Latency == live.Latency {
		t.Fatal("scraped global view indistinguishable from live view")
	}
}

// TestHierShardedRackCompletions: on the racks-as-shards engine each rack
// balancer must learn of a completion the instant its node drains, exactly
// as on the serial engine — only the global tier's feedback crosses the
// network. Under a global policy that ignores depths, no decision depends on
// that one-hop delay, so the sharded run must reproduce the serial run's
// per-node and per-rack completions and its latency summary. A rack tier
// that never hears of completions decides on cumulative dispatch counts and
// diverges under every queue-aware rack policy.
func TestHierShardedRackCompletions(t *testing.T) {
	for _, global := range []Policy{Random{}, &RoundRobin{}} {
		for _, rackPol := range []Policy{JSQ{D: 2}, JSQ{D: FullScan}, &BoundedLoad{Factor: 1.25}} {
			t.Run(fmt.Sprintf("%s/%s", global, rackPol), func(t *testing.T) {
				t.Parallel()
				runAt := func(shards int) Result {
					c := hierConfig(8, 4, global.Clone(), rackPol.Clone(), 0.8)
					c.Warmup = 200
					c.Measure = 3000
					c.Shards = shards
					return run(t, c)
				}
				serial, sharded := runAt(1), runAt(4)
				if !reflect.DeepEqual(sharded.NodeCompleted, serial.NodeCompleted) {
					t.Errorf("node completions: sharded %v, serial %v", sharded.NodeCompleted, serial.NodeCompleted)
				}
				if !reflect.DeepEqual(sharded.RackCompleted, serial.RackCompleted) {
					t.Errorf("rack completions: sharded %v, serial %v", sharded.RackCompleted, serial.RackCompleted)
				}
				if sharded.Latency != serial.Latency {
					t.Errorf("latency: sharded %+v, serial %+v", sharded.Latency, serial.Latency)
				}
			})
		}
	}
}
