package cluster

// run.go: the one driver behind every cluster configuration. A run is a
// front tier (tier.go) dispatching over endpoints — the nodes themselves on a
// flat cluster (Racks = 0), rack balancers on a two-tier one, each rack a
// tier over its own slice of nodes — joined by a front link that is either
// serial (inline or an event on the one engine) or sharded (a pdes.Mailbox
// whose delay is the conservative lookahead). Topology and link are the only
// two axes; tracing, faults, node construction, request tracking, completion
// and the between-round exchange are built once for all four combinations.

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"rpcvalet/internal/arrival"
	"rpcvalet/internal/machine"
	"rpcvalet/internal/metrics"
	"rpcvalet/internal/rng"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/sim/pdes"
	"rpcvalet/internal/trace"
)

// request is the pooled per-request tracker: one RPC from front-tier ingress
// until the front tier learns of its completion, when it returns to the
// free-list. Only the front tier's engine pops and pushes it; on a sharded
// run the node shards touch it in between, ordered by the round barrier.
type request struct {
	id       uint64   // cluster-wide sequence number
	ep       int      // front-tier endpoint: the node (flat) or the rack
	node     int      // serving node, global index
	sent     sim.Time // front-tier ingress, the latency epoch
	measured bool     // set at node completion
}

// shard is one event engine and what lives on it. A serial run has one
// shard; a sharded run has the front tier's plus one per node group.
type shard struct {
	eng  *sim.Engine
	emit func(trace.Event)      // trace sink for this engine's events; nil when off
	buf  []trace.Event          // sharded: this round's events, flushed at exchange
	in   pdes.Mailbox[*request] // sharded: requests routed to this group
	done pdes.Mailbox[*request] // sharded: completions bound for the front
	err  error                  // a failed pick, surfaced when the engine yields
}

// newBufferedShard is a node-group or front shard of a sharded run: trace
// events buffer per round so the exchange can flush them in a
// partition-independent order.
func newBufferedShard(tracing bool) *shard {
	sh := &shard{eng: sim.New()}
	if tracing {
		sh.emit = func(e trace.Event) { sh.buf = append(sh.buf, e) }
	}
	return sh
}

func (sh *shard) fail(err error) {
	sh.err = err
	sh.eng.Stop()
}

// rack is one rack balancer of a two-tier run: its tier over the rack's
// contiguous node slice, and balancer pause windows from rack-scoped faults.
type rack struct {
	t      *tier
	pauses []machine.Pause
}

// nodeTracer adapts one node's machine-internal trace stream to the
// cluster-wide view: machines number injected requests 0,1,2,... in inject
// order, so the cluster appends each request's cluster-wide sequence number
// to ids at inject time and the machine's request ID indexes it directly.
// Every event is re-labeled with the cluster ID and the node index before
// reaching the shard's sink.
type nodeTracer struct {
	node int
	ids  []uint64
	emit func(trace.Event)
}

// Record implements trace.Recorder.
func (t *nodeTracer) Record(e trace.Event) {
	e.ReqID = t.ids[e.ReqID]
	e.Node = t.node
	t.emit(e)
}

// Run simulates the configured cluster and returns its measurements.
// Identical configurations produce identical results: the nodes, the
// arrival stream and the policies all draw from streams split off cfg.Seed,
// and the cluster executes on one deterministic engine or, with Shards > 1,
// on several engines advanced in deterministic lookahead rounds.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	hier := cfg.Hierarchical()
	engines := Engines(cfg)
	sharded := engines > 1

	// RNG split order: arrivals, one policy stream per rack (a flat cluster
	// is one rack), node seeds in node order, and the global tier last — so
	// a one-rack hierarchy's prefix matches the flat derivation exactly.
	root := rng.New(cfg.Seed)
	arrRNG := root.Split()
	polRNG := make([]*rng.Source, max(cfg.Racks, 1))
	for r := range polRNG {
		polRNG[r] = root.Split()
	}

	// With Trace nil no trace code touches the run — byte-identical streams.
	var record func(trace.Event)
	if cfg.Trace != nil {
		record = cfg.Trace.Record
	}
	tracing := record != nil

	// Racks split the nodes evenly: rack r owns nodes [r*per, (r+1)*per).
	per := cfg.Nodes / max(cfg.Racks, 1)

	// Engines. Serial: one shard, recording inline. Sharded: the front tier
	// on its own shard, the nodes in engines-1 contiguous groups — one per
	// rack two-tier — with group g owning nodes [bounds[g], bounds[g+1]).
	var front *shard
	var groups []*shard
	bounds := []int{0, cfg.Nodes}
	if sharded {
		front = newBufferedShard(tracing)
		n := engines - 1
		bounds = bounds[:0]
		for s := 0; s <= n; s++ {
			bounds = append(bounds, s*cfg.Nodes/n)
		}
		groups = make([]*shard, len(bounds)-1)
		for g := range groups {
			groups[g] = newBufferedShard(tracing)
		}
	} else {
		front = &shard{eng: sim.New(), emit: record}
		groups = []*shard{front}
	}

	faultByNode, balPauses, rackLabel := expandFaults(cfg, per)
	share := nodeShare(cfg)
	nodes := make([]*machine.Machine, cfg.Nodes)
	nodeShard := make([]*shard, cfg.Nodes)
	tracers := make([]*nodeTracer, cfg.Nodes)
	for i, g := 0, 0; i < cfg.Nodes; i++ {
		for i >= bounds[g+1] {
			g++
		}
		sh := groups[g]
		nodeShard[i] = sh
		ncfg := cfg.Node
		ncfg.Seed = root.Split().Uint64()
		ncfg.Warmup, ncfg.Measure = 0, share
		ncfg.Epoch = cfg.Epoch
		if len(cfg.NodePlans) > 0 && cfg.NodePlans[i] != nil {
			ncfg.Params.Plan = cfg.NodePlans[i]
		}
		ncfg.Fault = faultByNode[i]
		if tracing {
			tracers[i] = &nodeTracer{node: i, emit: sh.emit}
			ncfg.Trace = tracers[i]
		}
		m, err := machine.NewShared(ncfg, sh.eng)
		if err != nil {
			return Result{}, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		nodes[i] = m
	}
	globalRNG := root.Split()

	// The front tier and its endpoints' shards. Flat: a balancer over the
	// nodes, whose link charges the node hop. Two-tier: a global balancer
	// over the racks, whose link charges the global hop; rack 0 reuses
	// cfg.Policy itself (the flat balancer's stream position), later racks
	// run clones. Stale views refresh on the engine of the tier they serve.
	var (
		ft       *tier
		home     = nodeShard // endpoint → the shard it runs on
		racks    []*rack
		frontHop = cfg.Hop
	)
	if !hier {
		ft = newTier(cfg.Policy, polRNG[0], cfg.Nodes, cfg.SampleEvery == 0)
		ft.scheduleRefresh(front.eng, cfg.SampleEvery, nil)
	} else {
		home = make([]*shard, cfg.Racks)
		for r := range home {
			pol := cfg.Policy
			if r > 0 {
				pol = cfg.Policy.Clone()
			}
			home[r] = nodeShard[r*per]
			rk := &rack{t: newTier(pol, polRNG[r], per, cfg.SampleEvery == 0), pauses: balPauses[r]}
			rk.t.scheduleRefresh(home[r].eng, cfg.SampleEvery, nil)
			racks = append(racks, rk)
		}
		ft = newTier(cfg.GlobalPolicy, globalRNG, cfg.Racks, cfg.GlobalSampleEvery == 0)
		ft.scheduleRefresh(front.eng, cfg.GlobalSampleEvery, func(r int) int { return racks[r].t.index.Total() })
		frontHop = cfg.GlobalHop
	}

	var (
		completed     int
		totalOut      int // dispatched and not yet known complete, cluster-wide
		nodeCompleted = make([]int, cfg.Nodes)
		rackCompleted = make([]int, cfg.Racks)
		target        = cfg.Warmup + cfg.Measure
		timedOut      bool
		halt          bool
		pool          []*request
		// finished holds a sharded run's completions that have reached
		// the front, each under the key its deliver event would have had,
		// until settle applies them.
		finished sim.Deferred[*request]
	)
	rec := metrics.NewRecorder(metrics.Config{EpochNanos: cfg.Epoch.Nanos(), Expect: cfg.Warmup + cfg.Measure})
	stop := func() {
		halt = true
		front.eng.Stop()
	}

	// complete is the front tier learning that q's handler finished at c.
	complete := func(c sim.Time, q *request) {
		ft.completed(q.ep)
		totalOut--
		completed++
		nodeCompleted[q.node]++
		if hier {
			rackCompleted[q.ep]++
		}
		if completed == cfg.Warmup+1 {
			rec.OpenWindow(c)
		}
		rec.Complete(c, metrics.Completion{
			Class:     -1,
			Measured:  q.measured,
			LatencyNs: c.Sub(q.sent).Nanos(),
			WaitNs:    -1,
			ServiceNs: -1,
			Depth:     totalOut,
		})
		pool = append(pool, q)
		if completed >= target {
			rec.CloseWindow(c)
			stop()
		}
	}

	// settle applies, in key order, a sharded run's finished completions
	// whose keys have passed on the front engine (DESIGN.md §9), and
	// reports whether the run goes on. It stops at the completion that
	// reaches the target: the window closes at that completion's time, and
	// the front event that settled it does nothing else, as if it had never
	// fired. Every front event that reads what complete writes settles
	// first: an arrival's pick and tracker, the timeout's count and a stale
	// refresh's truth. A serial run completes inline and never settles.
	settle := func() bool {
		for {
			k, ok := finished.PopDue(front.eng)
			if !ok {
				return true
			}
			complete(k.At.Add(-frontHop), k.Val)
			if halt {
				return false
			}
		}
	}
	if sharded {
		ft.settle = settle
	}
	if cfg.MaxSimTime > 0 {
		front.eng.Schedule(cfg.MaxSimTime, func() {
			if sharded && !settle() {
				return
			}
			timedOut = true
			stop()
		})
	}

	// The per-request callbacks, bound once so the hot path allocates no
	// closures. nodeDone runs on the node's engine: the rack learns of the
	// drain at once, the front tier inline on a serial run and one front hop
	// later on a sharded one, where the notification crosses the network.
	nodeDone := func(arg any, _ int, measured bool) {
		q := arg.(*request)
		q.measured = measured
		sh := home[q.ep]
		if hier {
			racks[q.ep].t.completed(q.node - q.ep*per)
		}
		if sharded {
			sh.done.Send(sh.eng.Now().Add(frontHop), q.id, q)
		} else {
			complete(sh.eng.Now(), q)
		}
	}
	inject := func(arg any) {
		q := arg.(*request)
		if tracing {
			// The machine numbers this inject len(ids); remember its
			// cluster-wide identity at that index.
			tracers[q.node].ids = append(tracers[q.node].ids, q.id)
		}
		nodes[q.node].InjectArg(nodeDone, q)
	}
	// rackRecv is a rack balancer receiving a request off the front link. A
	// frozen balancer (rack-scoped pause window) defers the whole decision
	// to the window's end — engine seq order keeps deferred requests FIFO —
	// and re-checks, so chained windows compound. The node hop is always an
	// event on the rack's own engine.
	var rackRecv func(arg any)
	rackRecv = func(arg any) {
		q := arg.(*request)
		rk, sh := racks[q.ep], home[q.ep]
		eng := sh.eng
		if stall := machine.PauseStall(rk.pauses, eng.Now()); stall > 0 {
			eng.ScheduleArg(stall, rackRecv, q)
			return
		}
		local := rk.t.pick()
		if local < 0 || local >= per {
			sh.fail(fmt.Errorf("cluster: policy %s picked node %d of %d in rack %d", rk.t.pol, local, per, q.ep))
			return
		}
		q.node = q.ep*per + local
		if tracing {
			now := eng.Now()
			sh.emit(trace.Event{ReqID: q.id, Phase: trace.PhaseBalancerRecv, At: now, Core: -1, Node: -1, Depth: rk.t.index.Total()})
			sh.emit(trace.Event{ReqID: q.id, Phase: trace.PhaseForward, At: now, Core: -1, Node: q.node, Depth: rk.t.index.Depth(local)})
		}
		rk.t.dispatched(local)
		eng.ScheduleArg(cfg.Hop, inject, q)
	}

	// The front link lands a request on its endpoint: straight into the
	// node's NI (flat), or at the rack balancer (two-tier). A serial
	// two-tier run with a zero global hop delivers inline — no intermediate
	// event, so a one-rack run's (time, seq) interleaving matches the flat
	// path byte for byte.
	land := inject
	recvPhase, fwdPhase, who, what := trace.PhaseBalancerRecv, trace.PhaseForward, "policy", "node"
	if hier {
		land = rackRecv
		recvPhase, fwdPhase, who, what = trace.PhaseGlobalRecv, trace.PhaseGlobalForward, "global policy", "rack"
	}
	inline := hier && !sharded && cfg.GlobalHop == 0

	gaps := arrival.NewBatch(arrival.Resolve(cfg.Arrival, cfg.RateMRPS), arrRNG, 0)
	var seq uint64
	var arrive func()
	arrive = func() {
		if sharded && !settle() {
			return
		}
		id := seq
		seq++
		e := 0 // a one-rack run may have no global policy: no draw
		if ft.pol != nil {
			e = ft.pick()
			if e < 0 || e >= ft.index.Nodes() {
				// A custom policy misbehaved; fail attributably rather
				// than panicking deep inside a deferred engine callback.
				front.fail(fmt.Errorf("cluster: %s %s picked %s %d of %d", who, ft.pol, what, e, ft.index.Nodes()))
				return
			}
		}
		now := front.eng.Now()
		if tracing {
			// Depths are the front tier's pre-decision view: cluster-wide
			// outstanding at ingress, the chosen endpoint's depth at forward.
			front.emit(trace.Event{ReqID: id, Phase: recvPhase, At: now, Core: -1, Node: -1, Depth: totalOut})
			front.emit(trace.Event{ReqID: id, Phase: fwdPhase, At: now, Core: -1, Node: e, Depth: ft.index.Depth(e)})
		}
		ft.dispatched(e)
		totalOut++
		if len(pool) == 0 {
			// Trackers come in slabs: the pool grows to the peak number in
			// flight, tens of thousands on a 1000-node cluster.
			slab := make([]request, 64)
			for i := range slab {
				pool = append(pool, &slab[i])
			}
		}
		q := pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		q.id, q.ep, q.node, q.sent = id, e, e, now
		switch {
		case sharded:
			home[e].in.Send(now.Add(frontHop), id, q)
		case inline:
			land(q)
		default:
			front.eng.ScheduleArg(frontHop, land, q)
		}
		front.eng.Schedule(gaps.Next(), arrive)
	}
	front.eng.Schedule(gaps.Next(), arrive)

	if !sharded {
		front.eng.Run()
	} else {
		// A completion notification lands one front hop after its handler
		// finished; settle stamps it back, which keeps latency and epoch
		// slicing at the serial definitions. finished holds the
		// completions crossing the front hop, about rate × hop of them,
		// as the front heap held their deliver events; presize that many,
		// within metrics.MaxPresize.
		finished.Grow(int(min(cfg.RateMRPS*frontHop.Nanos()/1e3, metrics.MaxPresize)))
		runRounds(front, groups, frontHop, land, &finished, settle, record, func() bool { return halt })
	}
	for _, sh := range append([]*shard{front}, groups...) {
		if sh.err != nil {
			return Result{}, sh.err
		}
	}
	return assemble(cfg, rec, nodes, faultByNode, rackLabel, nodeCompleted, rackCompleted, completed, timedOut), nil
}

// runRounds drives a sharded run: every shard advances one lookahead-wide
// round on its own goroutine (internal/sim/pdes), then a single-threaded
// exchange delivers the round's cross-shard messages merged by (At, request
// id) — routed requests to land on their group, completions to finished
// under the keys their deliver events would have had on the front — and
// flushes its trace events to record sorted by (At, ReqID, phase rank).
// Both keys are partition-independent, so the Result is the same at every
// shard count ≥ 2.
func runRounds(front *shard, groups []*shard, lookahead sim.Duration, land func(any),
	finished *sim.Deferred[*request], settle func() bool, record func(trace.Event), halted func() bool) {
	var (
		msgs   []pdes.Msg[*request]
		events []trace.Event
		dones  = make([]*pdes.Mailbox[*request], len(groups))
	)
	for g, sh := range groups {
		dones[g] = &sh.done
	}
	all := append([]*shard{front}, groups...)
	exchange := func(sim.Time) bool {
		// A front that ran its whole round has passed every key through
		// the deadline. One that halted mid-round must not settle: its
		// RunUntil marked those keys passed all the same.
		if !halted() {
			settle()
		}
		for _, sh := range groups {
			msgs = pdes.Gather(msgs, &sh.in)
			for _, m := range msgs {
				sh.eng.ScheduleArgAt(m.At, land, m.Payload)
			}
		}
		msgs = pdes.Gather(msgs, dones...)
		for _, m := range msgs {
			finished.Insert(m.At, front.eng.Reserve(), m.Payload)
		}
		if record != nil {
			events = events[:0]
			for _, sh := range all {
				events = append(events, sh.buf...)
				sh.buf = sh.buf[:0]
			}
			sort.Slice(events, func(i, j int) bool {
				a, b := events[i], events[j]
				if a.At != b.At {
					return a.At < b.At
				}
				if a.ReqID != b.ReqID {
					return a.ReqID < b.ReqID
				}
				return a.Phase.Rank() < b.Phase.Rank()
			})
			for _, e := range events {
				record(e)
			}
		}
		for _, sh := range all {
			if sh.err != nil {
				return false
			}
		}
		return !halted()
	}
	rounds := make([]pdes.RoundFunc, 0, len(groups)+1)
	for _, sh := range groups {
		rounds = append(rounds, func(d sim.Time) { sh.eng.RunUntil(d) })
	}
	rounds = append(rounds, func(d sim.Time) { front.eng.RunUntil(d) })
	pdes.Run(lookahead, rounds, exchange)
}

// Engines reports how many event engines one Run of a validated cfg uses:
// 1 on the serial path, else the front tier's plus one per node group — a
// group per rack two-tier, min(Shards, Nodes) contiguous groups flat. A
// sharded run gives each engine its own goroutine each round.
func Engines(cfg Config) int {
	switch {
	case cfg.Shards <= 1:
		return 1
	case cfg.Hierarchical():
		return cfg.Racks + 1
	case cfg.Nodes > 1:
		return min(cfg.Shards, cfg.Nodes) + 1
	}
	return 1
}

// nodeShare is the run-log presize each node gets: its even share of the
// run's completions, rounded up to the power of two that append growth
// would reach anyway. About half the nodes serve a little more than an even
// share; an exact share would make each of them double its log. The share
// stays within metrics.MaxPresize.
func nodeShare(cfg Config) int {
	share := min((cfg.Warmup+cfg.Measure+cfg.Nodes-1)/cfg.Nodes, metrics.MaxPresize)
	return 1 << bits.Len(uint(share-1))
}

// expandFaults resolves Config.Faults into per-node machine faults
// (rack-scoped entries fan out to every node in the rack; later entries
// overwrite earlier ones), per-rack balancer pause windows, and the per-rack
// labels for Result.RackFaults. Rack r owns nodes [r*per, (r+1)*per).
func expandFaults(cfg Config, per int) (faultByNode []machine.Fault, balPauses [][]machine.Pause, rackLabel []machine.Fault) {
	faultByNode = make([]machine.Fault, cfg.Nodes)
	balPauses = make([][]machine.Pause, cfg.Racks)
	rackLabel = make([]machine.Fault, cfg.Racks)
	for _, f := range cfg.Faults {
		if !f.Rack {
			faultByNode[f.Node] = f.Fault
			continue
		}
		r := f.Node
		for i := r * per; i < (r+1)*per; i++ {
			faultByNode[i] = f.Fault
		}
		balPauses[r] = append(balPauses[r], f.Pauses...)
		rackLabel[r] = f.Fault
	}
	return faultByNode, balPauses, rackLabel
}

// assemble builds the Result from a finished run's recorders and machines.
// The two-tier fields are set only on two-tier runs.
func assemble(cfg Config, rec *metrics.Recorder,
	nodes []*machine.Machine, faultByNode, rackLabel []machine.Fault,
	nodeCompleted, rackCompleted []int, completed int, timedOut bool) Result {
	res := Result{
		Policy:        cfg.Policy.String(),
		Nodes:         cfg.Nodes,
		RateMRPS:      cfg.RateMRPS,
		Seed:          cfg.Seed,
		Latency:       rec.Latency(),
		NodeCompleted: nodeCompleted,
		Completed:     completed,
		TimedOut:      timedOut,
		rec:           rec,
	}
	if cfg.Hierarchical() {
		res.Racks = cfg.Racks
		if cfg.GlobalPolicy != nil {
			res.GlobalPolicy = cfg.GlobalPolicy.String()
		}
		res.RackCompleted = rackCompleted
		for _, l := range rackLabel {
			res.RackFaults = append(res.RackFaults, l.String())
		}
	}
	if start, end := rec.Window(); end > start {
		res.ThroughputMRPS = float64(cfg.Measure-1) / end.Sub(start).Nanos() * 1000
	}
	if mean := float64(completed) / float64(cfg.Nodes); mean > 0 {
		res.Imbalance = float64(slices.Max(nodeCompleted)) / mean
	}
	for i, m := range nodes {
		res.NodeUtilization = append(res.NodeUtilization, m.MeanCoreUtilization())
		res.NodeDispatch = append(res.NodeDispatch, m.DispatchLabel())
		res.NodeFaults = append(res.NodeFaults, faultByNode[i].String())
		res.nodeRecs = append(res.nodeRecs, m.Recorder())
	}

	res.SLONanos = cfg.SLONanos()
	res.MeetsSLO = !timedOut && res.Latency.Count > 0 && res.Latency.P99 <= res.SLONanos
	return res
}
