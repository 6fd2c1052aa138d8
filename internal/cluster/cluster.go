// Package cluster simulates a rack of RPCValet servers behind a
// cluster-level load balancer: N independent per-node machine models
// (internal/machine) sharing one virtual clock (internal/sim), fed by an
// aggregate open-loop arrival stream (Poisson by default; any
// arrival.Process via Config.Arrival) that a front-end Policy routes node by
// node.
//
// The paper balances µs-scale RPCs across the cores of one server; this
// package composes that intra-node dispatch (16×1 / 4×4 / 1×16) with
// inter-node policy (random / round-robin / JSQ(d) / bounded-load), so
// experiments can show where cluster-level imbalance re-creates the
// single-node partitioned pathology one level up — and how much a
// queue-aware front end recovers. Every routed RPC is charged a configurable
// network hop before the chosen node's NI sees the message, and the
// balancer's queue-depth view can be delayed (periodic sampling) to model
// stale telemetry.
//
// One driver, Run (run.go), executes every configuration. It varies along
// two axes. The endpoint kind: the front tier (tier.go) balances over the
// nodes themselves (Racks = 0) or over rack balancers, each a tier over its
// own slice of nodes (Racks ≥ 1, a two-tier datacenter). The link: a serial
// run (Shards ≤ 1) puts everything on one engine, while a sharded run gives
// the front tier its own engine and the nodes engines of their own —
// contiguous groups flat, one per rack two-tier — advanced in conservative
// rounds (internal/sim/pdes) whose width is the front hop.
package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"rpcvalet/internal/arrival"
	"rpcvalet/internal/machine"
	"rpcvalet/internal/metrics"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/stats"
	"rpcvalet/internal/trace"
)

// Config describes one cluster simulation.
type Config struct {
	// Nodes is the number of servers behind the balancer.
	Nodes int
	// Node is the per-node machine template: architecture, NI dispatch
	// plan, and workload. Its RateMRPS/Warmup/Measure/Seed fields are
	// ignored — the cluster generates the traffic and the measurements.
	Node machine.Config
	// NodePlans, when non-empty, overrides the template's dispatch plan
	// node by node (length must equal Nodes; nil entries keep the
	// template's plan). This is how heterogeneous racks are built — e.g.
	// half the nodes running RPCValet 1×16, half the RSS baseline —
	// without duplicating the rest of the machine template.
	NodePlans []*machine.Plan
	// Policy routes each arriving RPC to a node. See PolicyByName.
	Policy Policy
	// RateMRPS is the aggregate offered load across the whole cluster, in
	// millions of requests per second.
	RateMRPS float64
	// Arrival, when non-nil, selects the traffic model of the aggregate
	// stream; it is re-rated to RateMRPS (shape preserved). Nil means
	// Poisson at RateMRPS — the historical behavior, byte-for-byte
	// identical result streams for existing seeds.
	Arrival arrival.Process
	// Hop is the one-way balancer→node network latency charged to every
	// RPC before the chosen node's NI sees the message.
	Hop sim.Duration
	// SampleEvery is the period at which the balancer refreshes its
	// per-node queue-depth view. Zero means a live (zero-staleness) view.
	SampleEvery sim.Duration
	Warmup      int // completions discarded before measuring
	Measure     int // completions measured
	Seed        uint64
	// MaxSimTime aborts the run after this much virtual time (0 = none).
	MaxSimTime sim.Duration
	// Faults injects per-node degradation — service slowdown factors and
	// pause windows — without touching the healthy nodes' result streams.
	// See NodeFault and ParseFaults.
	Faults []NodeFault
	// Epoch sets the Result timelines' initial epoch length; 0 uses the
	// metrics default (1 µs, doubling as the run outgrows it). The slice
	// count is bounded at the metrics default, 64.
	Epoch sim.Duration
	// Trace, when non-nil, receives the cluster-wide lifecycle stream:
	// the balancer's hop milestones (balancer-recv, forward) plus every
	// node's machine events, with request IDs remapped to cluster-wide
	// sequence numbers and the serving node stamped on each event — one
	// causally ordered stream per request across the whole rack. A
	// trace.TailSampler here keeps the K slowest requests end to end, hop
	// included; trace.Sample thins by cluster sequence number. Passive:
	// result streams stay byte-identical.
	Trace trace.Recorder
	// Shards splits the simulation across parallel event engines: the
	// node set is partitioned into Shards contiguous groups, each with its
	// own clock and goroutine, plus the balancer on its own shard, all
	// synchronized conservatively in Hop-wide rounds (internal/sim/pdes).
	// 0 and 1 run the historical single-engine path, byte-identical to
	// every pinned result. Shards > 1 requires Hop > 0 (the lookahead) and
	// is clamped to Nodes; it changes when the balancer *learns* of
	// completions (one hop later — the notification crosses the network
	// back) but is itself deterministic: a fixed (Seed, Shards>1) pair
	// reproduces the identical Result at any shard count ≥ 2.
	//
	// On a hierarchical run (Racks > 0) the shards are the racks: any
	// Shards > 1 runs one engine per rack plus the global balancer's, with
	// GlobalHop as the conservative lookahead (so it must be positive).
	// The rack-internal hop stays intra-shard, so each rack balancer learns
	// of its completions at once; only the global tier's feedback runs one
	// GlobalHop late. See run.go.
	Shards int

	// Racks arranges the cluster as a two-tier datacenter: a global
	// balancer dispatching over Racks rack balancers, each running the
	// full flat-cluster machinery (policy, depth index, staleness, faults,
	// traces) over its contiguous slice of the node set. Racks split the
	// nodes evenly, so Racks must divide Nodes. 0 means the
	// historical flat topology — one balancer in front of every node —
	// and is byte-identical to every pinned result. Racks = 1 with
	// GlobalHop = 0 is the degenerate hierarchy: one rack behind a
	// pass-through global tier, byte-identical to the flat cluster (the
	// pin suite enforces it).
	Racks int
	// GlobalPolicy routes each arriving RPC to a rack; the rack's own
	// Policy then picks the node. Any Policy works — the global tier sees
	// each rack as one endpoint whose depth is the rack balancer's
	// aggregate outstanding. Required for Racks >= 2; with Racks = 1 it
	// may be nil (every request goes to the only rack, no RNG drawn).
	GlobalPolicy Policy
	// GlobalHop is the one-way global→rack-balancer network latency
	// charged before the rack balancer sees the request. The return
	// completion notification is charged symmetrically on the sharded
	// path, which uses GlobalHop as its lookahead window.
	GlobalHop sim.Duration
	// GlobalSampleEvery is the period at which the global balancer scrapes
	// each rack balancer's published aggregate depth. Zero means a live
	// view of its own dispatch/completion accounting. Serial runs only
	// (Shards <= 1): a sharded global tier cannot scrape engines mid-round.
	GlobalSampleEvery sim.Duration
}

// NodeFault assigns one node — or, with Rack set, one whole rack — a
// machine-level fault: a service-time slowdown and/or stall windows. Nodes
// without an entry stay healthy. A rack-scoped fault (hierarchical runs
// only) applies the fault to every node in the rack, and additionally stalls
// the rack *balancer* itself through the fault's pause windows: requests
// reaching a paused rack balancer wait for the window to end before a node
// is picked.
type NodeFault struct {
	Node int  // node index, or rack index when Rack is set
	Rack bool // scope Node as a rack index (needs Config.Racks >= 1)
	machine.Fault
}

func (f NodeFault) String() string {
	scope := ""
	if f.Rack {
		scope = "rack"
	}
	return fmt.Sprintf("%s%d:%s", scope, f.Node, f.Fault)
}

// ParseFaults parses the -degrade grammar: a semicolon-separated list of
// SCOPE:FAULT entries, each scope a node index ("3") or a rack index
// ("rack2"), each fault a comma-separated mix of "x<factor>" slowdowns and
// "pause@START+DUR" windows — e.g. "0:x1.5",
// "0:x2,pause@1ms+200us;3:pause@500us+100us", or "rack0:pause@1ms+500us".
func ParseFaults(spec string) ([]NodeFault, error) {
	var out []NodeFault
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		nodeStr, faultStr, ok := strings.Cut(entry, ":")
		if !ok {
			return nil, fmt.Errorf("cluster: bad fault entry %q (want NODE:FAULT or rackR:FAULT)", entry)
		}
		nodeStr = strings.TrimSpace(nodeStr)
		rack := false
		if rest, found := strings.CutPrefix(nodeStr, "rack"); found {
			rack = true
			nodeStr = rest
		}
		node, err := strconv.Atoi(nodeStr)
		if err != nil || node < 0 {
			if rack {
				return nil, fmt.Errorf("cluster: bad fault rack %q", "rack"+nodeStr)
			}
			return nil, fmt.Errorf("cluster: bad fault node %q", nodeStr)
		}
		f, err := machine.ParseFault(faultStr)
		if err != nil {
			return nil, err
		}
		out = append(out, NodeFault{Node: node, Rack: rack, Fault: f})
	}
	return out, nil
}

// Hierarchical reports whether the config describes a two-tier topology
// (Racks >= 1) rather than the flat single-balancer cluster.
func (c Config) Hierarchical() bool { return c.Racks > 0 }

// SLONanos is the run's p99 SLO: the workload's own, or its SLO factor
// times the mean service time CapacityMRPS assumes (handler plus overhead).
func (c Config) SLONanos() float64 {
	wl := c.Node.Workload
	if wl.SLONanos > 0 {
		return wl.SLONanos
	}
	return wl.SLOFactor * (wl.MeanService() + machine.CoreOverheadNanos)
}

// Validate reports whether Run would accept the config; the CLIs call it
// before their first run.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("cluster: need at least one node, got %d", c.Nodes)
	case c.Policy == nil:
		return fmt.Errorf("cluster: nil policy")
	case !(c.RateMRPS > 0):
		return fmt.Errorf("cluster: rate %v MRPS must be positive", c.RateMRPS)
	case c.Measure <= 0:
		return fmt.Errorf("cluster: Measure must be positive")
	case c.Warmup < 0:
		return fmt.Errorf("cluster: negative warmup")
	case c.Hop < 0:
		return fmt.Errorf("cluster: negative hop latency")
	case c.SampleEvery < 0:
		return fmt.Errorf("cluster: negative sampling period")
	case len(c.NodePlans) != 0 && len(c.NodePlans) != c.Nodes:
		return fmt.Errorf("cluster: %d per-node plans for %d nodes", len(c.NodePlans), c.Nodes)
	case c.Epoch < 0:
		return fmt.Errorf("cluster: negative epoch length")
	case c.Shards < 0:
		return fmt.Errorf("cluster: negative shard count %d", c.Shards)
	case c.Shards > 1 && !c.Hierarchical() && c.Hop <= 0:
		return fmt.Errorf("cluster: Shards=%d needs a positive Hop (the conservative lookahead window)", c.Shards)
	case c.Racks < 0:
		return fmt.Errorf("cluster: negative rack count %d", c.Racks)
	case c.Racks > c.Nodes:
		return fmt.Errorf("cluster: %d racks for %d nodes", c.Racks, c.Nodes)
	case !c.Hierarchical() && (c.GlobalPolicy != nil || c.GlobalHop != 0 || c.GlobalSampleEvery != 0):
		return fmt.Errorf("cluster: global-tier fields (GlobalPolicy/GlobalHop/GlobalSampleEvery) need Racks >= 1")
	case c.GlobalHop < 0:
		return fmt.Errorf("cluster: negative global hop latency")
	case c.GlobalSampleEvery < 0:
		return fmt.Errorf("cluster: negative global sampling period")
	case c.Racks >= 2 && c.GlobalPolicy == nil:
		return fmt.Errorf("cluster: Racks=%d needs a GlobalPolicy to pick racks", c.Racks)
	case c.Hierarchical() && c.Nodes%c.Racks != 0:
		return fmt.Errorf("cluster: %d nodes do not evenly partition into %d racks", c.Nodes, c.Racks)
	case c.Hierarchical() && c.Shards > 1 && c.GlobalHop <= 0:
		return fmt.Errorf("cluster: hierarchical Shards=%d needs a positive GlobalHop (the conservative lookahead window)", c.Shards)
	case c.Hierarchical() && c.Shards > 1 && c.GlobalSampleEvery > 0:
		return fmt.Errorf("cluster: hierarchical Shards>1 cannot scrape rack aggregates (GlobalSampleEvery must be 0)")
	}
	capacity := float64(c.Nodes) * machine.CapacityMRPS(c.Node.Params, c.Node.Workload)
	if err := machine.CheckRate("cluster", c.RateMRPS, capacity, c.Warmup+c.Measure); err != nil {
		return err
	}
	for _, f := range c.Faults {
		if f.Rack {
			if !c.Hierarchical() {
				return fmt.Errorf("cluster: rack-scoped fault %s needs Racks >= 1", f)
			}
			if f.Node < 0 || f.Node >= c.Racks {
				return fmt.Errorf("cluster: fault for rack %d of %d", f.Node, c.Racks)
			}
		} else if f.Node < 0 || f.Node >= c.Nodes {
			return fmt.Errorf("cluster: fault for node %d of %d", f.Node, c.Nodes)
		}
		if f.Slowdown < 0 {
			return fmt.Errorf("cluster: node %d negative slowdown %g", f.Node, f.Slowdown)
		}
	}
	return nil
}

// Result is the measured outcome of one cluster run.
type Result struct {
	Policy   string
	Nodes    int
	RateMRPS float64
	Seed     uint64

	// Racks and GlobalPolicy echo the two-tier topology of a hierarchical
	// run (0 and "" on the flat cluster). RackCompleted counts completions
	// per rack — the global balancer's routing fingerprint — and
	// RackFaults labels each rack's rack-scoped degradation ("healthy"
	// otherwise). All nil/zero on flat runs.
	Racks         int
	GlobalPolicy  string
	RackCompleted []int
	RackFaults    []string

	// Latency is end-to-end: balancer ingress → handler completion,
	// including the network hop, for latency-measured classes only. Ns.
	Latency        stats.Summary
	ThroughputMRPS float64 // measured cluster-wide completion rate

	// NodeCompleted counts completions per node over the whole run; the
	// spread is the balancer's arrival-imbalance fingerprint.
	NodeCompleted []int
	// Imbalance is max/mean of NodeCompleted — 1.0 is perfectly even.
	Imbalance float64
	// NodeUtilization is each node's mean core busy fraction.
	NodeUtilization []float64
	// NodeDispatch names each node's resolved dispatch plan — uniform
	// racks repeat one label; heterogeneous racks show the mix.
	NodeDispatch []string
	// NodeFaults labels each node's injected degradation ("healthy",
	// "x1.5", "pause@1ms+200us", ...).
	NodeFaults []string

	SLONanos float64 // workload SLO (absolute, or factor × estimated S̄)
	MeetsSLO bool

	Completed int
	TimedOut  bool

	// rec and nodeRecs are the finished run's balancer recorder and each
	// node's, which Timeline and NodeTimelines summarize.
	rec      *metrics.Recorder
	nodeRecs []*metrics.Recorder
}

// Timeline is the balancer's epoch-sliced view of the whole run: per-epoch
// cluster throughput, end-to-end latency, and total outstanding RPCs. It is
// summarized from the run's recorder on each call, so a run whose timeline
// nobody reads pays nothing for it; calls may run concurrently.
func (r Result) Timeline() metrics.Timeline {
	if r.rec == nil {
		return metrics.Timeline{}
	}
	return r.rec.Timeline()
}

// NodeTimelines are the per-node recorders' views (node-local latency,
// queue depth, core utilization), index-aligned with NodeCompleted,
// summarized on each call like Timeline.
func (r Result) NodeTimelines() []metrics.Timeline {
	tls := make([]metrics.Timeline, len(r.nodeRecs))
	for i, rec := range r.nodeRecs {
		tls[i] = rec.Timeline()
	}
	return tls
}

func (r Result) String() string {
	return fmt.Sprintf("%s×%d @%.2fMRPS: thr=%.2fMRPS p99=%.0fns imbalance=%.2f",
		r.Policy, r.Nodes, r.RateMRPS, r.ThroughputMRPS, r.Latency.P99, r.Imbalance)
}
