package cluster

import (
	"testing"

	"rpcvalet/internal/sim"
	"rpcvalet/internal/trace"
)

// TestCrossNodeTraceCausality runs a traced cluster under every balancer
// policy and asserts, request by request, that the lifecycle is causally
// ordered across the balancer/node boundary: balancer-recv → forward →
// arrive → dispatch → start → complete, with monotonically non-decreasing
// timestamps, a consistent serving node from forward onward, and a positive
// hop (forward → arrive spans the configured network latency).
func TestCrossNodeTraceCausality(t *testing.T) {
	for _, name := range PolicyNames {
		t.Run(name, func(t *testing.T) {
			pol, err := PolicyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := baseConfig(4, pol, 0.6)
			cfg.Warmup = 50
			cfg.Measure = 500
			var events []trace.Event
			cfg.Trace = trace.Func(func(e trace.Event) { events = append(events, e) })
			res := run(t, cfg)

			byReq := make(map[uint64][]trace.Event)
			for _, e := range events {
				byReq[e.ReqID] = append(byReq[e.ReqID], e)
			}
			if len(byReq) < res.Completed {
				t.Fatalf("traced %d requests, completed %d", len(byReq), res.Completed)
			}
			completed := 0
			for id, evs := range byReq {
				last := evs[len(evs)-1]
				if last.Phase != trace.PhaseComplete {
					continue // still in flight when the run stopped
				}
				completed++
				node := -2 // unassigned
				for i, e := range evs {
					if i == 0 {
						if e.Phase != trace.PhaseBalancerRecv {
							t.Fatalf("req %d: first phase %v, want balancer-recv", id, e.Phase)
						}
						continue
					}
					prev := evs[i-1]
					if e.Phase.Rank() <= prev.Phase.Rank() {
						t.Fatalf("req %d: %v after %v", id, e.Phase, prev.Phase)
					}
					if e.At < prev.At {
						t.Fatalf("req %d: time ran backwards at %v", id, e.Phase)
					}
					if e.Phase == trace.PhaseForward {
						node = e.Node
					} else if node != -2 && e.Node != node {
						t.Fatalf("req %d: forwarded to node %d, %v on node %d", id, node, e.Phase, e.Node)
					}
					if e.Phase == trace.PhaseArrive && e.At.Sub(prev.At) < cfg.Hop {
						t.Fatalf("req %d: hop %v shorter than configured %v", id, e.At.Sub(prev.At), cfg.Hop)
					}
				}
				if len(evs) != 6 {
					t.Fatalf("req %d: %d events, want the full 6-phase lifecycle", id, len(evs))
				}
			}
			if completed < res.Completed {
				t.Fatalf("%d fully traced completions for %d completed requests", completed, res.Completed)
			}
		})
	}
}

// checkHierLifecycles asserts, request by request, the full 8-phase
// hierarchical lifecycle: global-recv → global-forward → balancer-recv →
// forward → arrive → dispatch → start → complete, ranks strictly increasing,
// time never running backwards, the global-forward naming a real rack, the
// serving node inside that rack, and both hops at least as wide as
// configured. Returns the number of fully traced completions.
func checkHierLifecycles(t *testing.T, cfg Config, byReq map[uint64][]trace.Event) int {
	t.Helper()
	perRack := cfg.Nodes / cfg.Racks
	completed := 0
	for id, evs := range byReq {
		if evs[len(evs)-1].Phase != trace.PhaseComplete {
			continue // still in flight when the run stopped
		}
		completed++
		if evs[0].Phase != trace.PhaseGlobalRecv {
			t.Fatalf("req %d: first phase %v, want global-recv", id, evs[0].Phase)
		}
		rack, node := -1, -2 // unassigned
		for i, e := range evs {
			if i == 0 {
				continue
			}
			prev := evs[i-1]
			if e.Phase.Rank() <= prev.Phase.Rank() {
				t.Fatalf("req %d: %v after %v", id, e.Phase, prev.Phase)
			}
			if e.At < prev.At {
				t.Fatalf("req %d: time ran backwards at %v", id, e.Phase)
			}
			switch e.Phase {
			case trace.PhaseGlobalForward:
				rack = e.Node // Node carries the rack index on this phase
				if rack < 0 || rack >= cfg.Racks {
					t.Fatalf("req %d: global-forward to rack %d of %d", id, rack, cfg.Racks)
				}
			case trace.PhaseBalancerRecv:
				if hop := e.At.Sub(prev.At); hop < cfg.GlobalHop {
					t.Fatalf("req %d: global hop %v shorter than configured %v", id, hop, cfg.GlobalHop)
				}
			case trace.PhaseForward:
				node = e.Node
				if node < rack*perRack || node >= (rack+1)*perRack {
					t.Fatalf("req %d: rack %d forwarded to node %d outside [%d,%d)",
						id, rack, node, rack*perRack, (rack+1)*perRack)
				}
			case trace.PhaseArrive:
				if e.At.Sub(prev.At) < cfg.Hop {
					t.Fatalf("req %d: hop %v shorter than configured %v", id, e.At.Sub(prev.At), cfg.Hop)
				}
				fallthrough
			default:
				if node != -2 && e.Node != node {
					t.Fatalf("req %d: forwarded to node %d, %v on node %d", id, node, e.Phase, e.Node)
				}
			}
		}
		if len(evs) != 8 {
			t.Fatalf("req %d: %d events, want the full 8-phase lifecycle", id, len(evs))
		}
	}
	return completed
}

// checkHierSpanLegs asserts every tail span telescopes: the six legs between
// the eight hierarchical milestones sum exactly to the end-to-end latency,
// the added global leg is at least the configured global hop, the recorded
// rack matches the serving node, and WaitShare stays a fraction.
func checkHierSpanLegs(t *testing.T, cfg Config, spans []trace.Span) {
	t.Helper()
	perRack := cfg.Nodes / cfg.Racks
	for i, s := range spans {
		if !s.Completed() {
			t.Fatalf("tail span %d incomplete: %v", i, s)
		}
		if s.GlobalRecv == trace.Unset || s.GlobalForward == trace.Unset {
			t.Fatalf("tail span %d missing global milestones: %+v", i, s)
		}
		if s.Rack != s.Node/perRack {
			t.Fatalf("tail span %d: rack %d but node %d (per-rack %d)", i, s.Rack, s.Node, perRack)
		}
		if s.GlobalHopNs() < cfg.GlobalHop.Nanos() {
			t.Fatalf("tail span %d: global hop %.0fns < configured %.0fns", i, s.GlobalHopNs(), cfg.GlobalHop.Nanos())
		}
		legs := (s.GlobalForward.Sub(s.GlobalRecv).Nanos()) +
			s.GlobalHopNs() +
			(s.Forward.Sub(s.BalancerRecv).Nanos()) +
			s.HopNs() +
			s.QueueWaitNs() +
			s.ServiceNs()
		if diff := legs - s.TotalNs(); diff < -1e-6 || diff > 1e-6 {
			t.Fatalf("tail span %d: legs sum %.3fns != total %.3fns", i, legs, s.TotalNs())
		}
		if ws := s.WaitShare(); ws < 0 || ws > 1 {
			t.Fatalf("tail span %d: WaitShare %v outside [0,1]", i, ws)
		}
	}
}

// TestHierTraceCausality runs a traced two-tier cluster under every
// global×rack policy combination and asserts the 8-phase lifecycle is
// causally ordered across both hops: the global dispatch decision precedes
// the rack balancer's, each hop spans its configured latency, and the tail
// spans' legs still telescope to the end-to-end latency with the global leg
// added.
func TestHierTraceCausality(t *testing.T) {
	for _, globalName := range PolicyNames {
		for _, rackName := range PolicyNames {
			t.Run(globalName+"x"+rackName, func(t *testing.T) {
				gpol, err := PolicyByName(globalName)
				if err != nil {
					t.Fatal(err)
				}
				rpol, err := PolicyByName(rackName)
				if err != nil {
					t.Fatal(err)
				}
				cfg := baseConfig(4, rpol, 0.6)
				cfg.Racks = 2
				cfg.GlobalPolicy = gpol
				cfg.GlobalHop = 300 * sim.Nanosecond
				cfg.Warmup = 50
				cfg.Measure = 300
				var events []trace.Event
				tail := trace.NewTailSampler(8)
				cfg.Trace = trace.Tee(tail, trace.Func(func(e trace.Event) { events = append(events, e) }))
				res := run(t, cfg)

				byReq := make(map[uint64][]trace.Event)
				for _, e := range events {
					byReq[e.ReqID] = append(byReq[e.ReqID], e)
				}
				if len(byReq) < res.Completed {
					t.Fatalf("traced %d requests, completed %d", len(byReq), res.Completed)
				}
				if completed := checkHierLifecycles(t, cfg, byReq); completed < res.Completed {
					t.Fatalf("%d fully traced completions for %d completed requests", completed, res.Completed)
				}
				checkHierSpanLegs(t, cfg, tail.Spans())
			})
		}
	}
}

// TestHierShardedTraceCausality is the same 8-phase causality property on
// the racks-as-shards path: per-rack engines plus a global engine, trace
// events merged between global-hop-wide rounds, must still yield causally
// ordered lifecycles and telescoping span legs for every policy combination.
func TestHierShardedTraceCausality(t *testing.T) {
	for _, globalName := range PolicyNames {
		for _, rackName := range PolicyNames {
			t.Run(globalName+"x"+rackName, func(t *testing.T) {
				gpol, err := PolicyByName(globalName)
				if err != nil {
					t.Fatal(err)
				}
				rpol, err := PolicyByName(rackName)
				if err != nil {
					t.Fatal(err)
				}
				cfg := baseConfig(8, rpol, 0.6)
				cfg.Racks = 4
				cfg.Shards = 4
				cfg.GlobalPolicy = gpol
				cfg.GlobalHop = 300 * sim.Nanosecond
				cfg.Warmup = 50
				cfg.Measure = 400
				var events []trace.Event
				tail := trace.NewTailSampler(8)
				cfg.Trace = trace.Tee(tail, trace.Func(func(e trace.Event) { events = append(events, e) }))
				res := run(t, cfg)

				byReq := make(map[uint64][]trace.Event)
				for _, e := range events {
					byReq[e.ReqID] = append(byReq[e.ReqID], e)
				}
				if completed := checkHierLifecycles(t, cfg, byReq); completed < res.Completed {
					t.Fatalf("%d fully traced completions for %d completed requests", completed, res.Completed)
				}
				checkHierSpanLegs(t, cfg, tail.Spans())
			})
		}
	}
}

// TestShardedTraceCausality is the cross-shard causality property: the
// anatomy/trace path run on a *sharded* cluster — nodes split across
// parallel engines, trace events merged between hop-wide rounds — must
// still deliver, for every balancer policy, per-request lifecycles whose
// phases are causally ordered across the shard boundaries. Both views are
// checked: the merged event stream (full 6-phase lifecycle, ranks strictly
// increasing, time never running backwards, one serving node, hop-wide
// forward→arrive) and every TailSpan's milestone ranks
// (balancer-recv ≤ forward ≤ arrive ≤ dispatch ≤ start ≤ complete).
func TestShardedTraceCausality(t *testing.T) {
	for _, name := range PolicyNames {
		t.Run(name, func(t *testing.T) {
			pol, err := PolicyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := baseConfig(8, pol, 0.6)
			cfg.Shards = 4
			cfg.Warmup = 50
			cfg.Measure = 800
			const tailK = 16
			var events []trace.Event
			tail := trace.NewTailSampler(tailK)
			cfg.Trace = trace.Tee(tail, trace.Func(func(e trace.Event) { events = append(events, e) }))
			res := run(t, cfg)

			byReq := make(map[uint64][]trace.Event)
			for _, e := range events {
				byReq[e.ReqID] = append(byReq[e.ReqID], e)
			}
			completed := 0
			for id, evs := range byReq {
				if evs[len(evs)-1].Phase != trace.PhaseComplete {
					continue // still in flight when the run stopped
				}
				completed++
				node := -2 // unassigned
				for i, e := range evs {
					if i == 0 {
						if e.Phase != trace.PhaseBalancerRecv {
							t.Fatalf("req %d: first phase %v, want balancer-recv", id, e.Phase)
						}
						continue
					}
					prev := evs[i-1]
					if e.Phase.Rank() <= prev.Phase.Rank() {
						t.Fatalf("req %d: %v after %v", id, e.Phase, prev.Phase)
					}
					if e.At < prev.At {
						t.Fatalf("req %d: time ran backwards at %v", id, e.Phase)
					}
					if e.Phase == trace.PhaseForward {
						node = e.Node
					} else if node != -2 && e.Node != node {
						t.Fatalf("req %d: forwarded to node %d, %v on node %d", id, node, e.Phase, e.Node)
					}
					if e.Phase == trace.PhaseArrive && e.At.Sub(prev.At) < cfg.Hop {
						t.Fatalf("req %d: hop %v shorter than configured %v", id, e.At.Sub(prev.At), cfg.Hop)
					}
				}
				if len(evs) != 6 {
					t.Fatalf("req %d: %d events, want the full 6-phase lifecycle", id, len(evs))
				}
			}
			if completed < res.Completed {
				t.Fatalf("%d fully traced completions for %d completed requests", completed, res.Completed)
			}

			spans := tail.Spans()
			if len(spans) != tailK {
				t.Fatalf("tail spans = %d, want %d", len(spans), tailK)
			}
			for i, s := range spans {
				milestones := []struct {
					phase string
					at    sim.Time
				}{
					{"balancer-recv", s.BalancerRecv},
					{"forward", s.Forward},
					{"arrive", s.Arrive},
					{"dispatch", s.Dispatch},
					{"start", s.Start},
					{"complete", s.Complete},
				}
				for j, m := range milestones {
					if m.at == trace.Unset {
						t.Fatalf("tail span %d (req %d): %s unobserved", i, s.ReqID, m.phase)
					}
					if j > 0 && m.at < milestones[j-1].at {
						t.Fatalf("tail span %d (req %d): %s at %v before %s at %v — causality broke at a shard boundary",
							i, s.ReqID, m.phase, m.at, milestones[j-1].phase, milestones[j-1].at)
					}
				}
				if s.Node < 0 || s.Node >= cfg.Nodes {
					t.Fatalf("tail span %d: serving node %d of %d", i, s.Node, cfg.Nodes)
				}
				if s.HopNs() < cfg.Hop.Nanos() {
					t.Fatalf("tail span %d: hop %.0fns < configured %.0fns", i, s.HopNs(), cfg.Hop.Nanos())
				}
			}
		})
	}
}

// TestClusterTailSpans checks tail capture end to end: exactly K spans,
// slowest first, all completed, hops spliced in.
func TestClusterTailSpans(t *testing.T) {
	cfg := baseConfig(4, JSQ{D: 2}, 0.7)
	cfg.Warmup = 50
	cfg.Measure = 1000
	tail := trace.NewTailSampler(8)
	cfg.Trace = tail
	res := run(t, cfg)
	spans := tail.Spans()
	if len(spans) != 8 {
		t.Fatalf("tail spans = %d, want 8", len(spans))
	}
	for i, s := range spans {
		if !s.Completed() {
			t.Fatalf("tail span %d incomplete: %v", i, s)
		}
		if s.BalancerRecv == trace.Unset || s.Forward == trace.Unset {
			t.Fatalf("tail span %d missing balancer hops: %+v", i, s)
		}
		if s.Node < 0 || s.Node >= cfg.Nodes {
			t.Fatalf("tail span %d node %d", i, s.Node)
		}
		if s.HopNs() < cfg.Hop.Nanos() {
			t.Fatalf("tail span %d hop %.0fns < configured %.0fns", i, s.HopNs(), cfg.Hop.Nanos())
		}
		if i > 0 && s.TotalNs() > spans[i-1].TotalNs() {
			t.Fatal("tail spans not slowest-first")
		}
	}
	// The slowest span must be at least as slow as the measured p99: the
	// tail sampler saw every request, the summary only the window.
	if spans[0].TotalNs() < res.Latency.P99 {
		t.Fatalf("slowest span %.0fns below p99 %.0fns", spans[0].TotalNs(), res.Latency.P99)
	}
}

// TestClusterTraceSampling: a sampled recorder beside the tail sampler sees
// one request in 8 by cluster ID, without touching results or the tail.
func TestClusterTraceSampling(t *testing.T) {
	cfg := baseConfig(2, Random{}, 0.5)
	cfg.Warmup = 20
	cfg.Measure = 400
	fullTail := trace.NewTailSampler(4)
	cfg.Trace = fullTail

	full := run(t, cfg)

	var sampled int
	tail := trace.NewTailSampler(4)
	cfg.Trace = trace.Tee(tail, trace.Sample(trace.Func(func(e trace.Event) {
		if e.ReqID%8 != 0 {
			t.Fatalf("sampled stream leaked req %d", e.ReqID)
		}
		sampled++
	}), 8))
	got := run(t, cfg)
	if sampled == 0 {
		t.Fatal("sampling recorded nothing")
	}
	if got.Latency != full.Latency {
		t.Fatal("tracing perturbed the measured latency stream")
	}
	gotSpans, fullSpans := tail.Spans(), fullTail.Spans()
	if len(gotSpans) != len(fullSpans) {
		t.Fatal("sampling changed the tail set size")
	}
	for i := range gotSpans {
		if gotSpans[i] != fullSpans[i] {
			t.Fatalf("sampling changed tail span %d", i)
		}
	}
}

// TestClusterTracingOffIsByteIdentical: enabling then disabling tracing must
// leave the result stream untouched.
func TestClusterTracingOffIsByteIdentical(t *testing.T) {
	cfg := baseConfig(2, &RoundRobin{}, 0.6)
	cfg.Warmup = 20
	cfg.Measure = 400
	plain := run(t, cfg)

	cfg.Policy = cfg.Policy.Clone() // RoundRobin carries rotation state
	cfg.Trace = trace.Tee(trace.NewTailSampler(16), trace.Func(func(trace.Event) {}))
	traced := run(t, cfg)
	if plain.Latency != traced.Latency || plain.ThroughputMRPS != traced.ThroughputMRPS {
		t.Fatal("tracing changed the simulation")
	}
}
