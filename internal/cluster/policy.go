package cluster

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"rpcvalet/internal/depth"
	"rpcvalet/internal/rng"
)

// View is the balancer's knowledge of node state at decision time. With a
// nonzero sampling period the depths are stale snapshots, modeling the
// telemetry delay a real rack-scale balancer pays; with live sampling it is
// the cluster-level analogue of the paper's NI occupancy feedback.
//
// Only a tier's depth index (depthIndex) implements View: the unexported
// index method hands the whole-cluster policies (full JSQ, BoundedLoad) the
// bitmap rows they decide over in O(N/64), so no unindexed view can reach a
// policy. policy_equiv_test.go keeps the O(N) reference scans and checks
// the indexed picks against them.
type View interface {
	// Nodes reports the cluster size.
	Nodes() int
	// Depth reports the (possibly stale) queue depth of node i: RPCs
	// dispatched to it and not yet completed.
	Depth(i int) int
	index() *depth.Index
}

// depthIndex is a tier's view: the depth index (internal/depth) over its
// endpoints, the only store of their visible depths, with 64 rows so any
// BoundedLoad bound up to depth.Clamp is a row union.
type depthIndex struct{ *depth.Index }

func newDepthIndex(n int) depthIndex     { return depthIndex{depth.New(n, depth.Clamp)} }
func (x depthIndex) index() *depth.Index { return x.Index }

// Policy selects the destination node for each incoming RPC at the cluster
// front end. Implementations may carry state (rotation position) and are
// driven by exactly one balancer, never concurrently.
type Policy interface {
	// Pick returns the index of the node the next RPC is routed to.
	Pick(v View, r *rng.Source) int
	// Clone returns a fresh instance with the same parameters but reset
	// state, so sweeps can run points concurrently and independently.
	Clone() Policy
	String() string
}

// Random routes each RPC to a uniformly random node — the cluster-level
// analogue of the paper's uni[0,Q−1] arrival stage (Model Q×U, §2.2). It
// ignores the view, so per-node arrival bursts re-create the partitioned
// 16×1 pathology one level up.
type Random struct{}

func (Random) Pick(v View, r *rng.Source) int { return r.IntN(v.Nodes()) }
func (Random) Clone() Policy                  { return Random{} }
func (Random) String() string                 { return "random" }

// RoundRobin cycles through the nodes in order: perfectly even arrival
// counts, but oblivious to service-time variance piling work on one node.
type RoundRobin struct {
	next int
}

func (p *RoundRobin) Pick(v View, _ *rng.Source) int {
	n := v.Nodes()
	i := p.next % n
	// Keep the cursor in [0, n) so it cannot overflow on ultra-long runs;
	// byte-identical to the old ever-growing cursor because reads are mod n.
	p.next = (i + 1) % n
	return i
}

func (p *RoundRobin) Clone() Policy  { return &RoundRobin{} }
func (p *RoundRobin) String() string { return "rr" }

// FullScan, used as JSQ.D, selects whole-cluster join-shortest-queue at any
// cluster size ("jsqfull" in reports): the decision considers every node,
// through the view's depth index.
const FullScan = math.MaxInt32

// JSQ is join-shortest-queue over d sampled nodes (power-of-d-choices). With
// d ≥ the cluster size (use FullScan) it degenerates to full JSQ: the first
// least-loaded node in circular order from a random start, so persistent
// ties do not all land on node 0. Sampled ties break toward the earlier
// sampled node, which the random sampling order already de-biases.
type JSQ struct {
	D int // choices per decision; ≥ 2 (FullScan = whole cluster)
}

func (p JSQ) Pick(v View, r *rng.Source) int {
	n := v.Nodes()
	d := p.D
	if d >= n {
		// Full scan: one draw for the tie-break offset, then a
		// find-first-set over the min-depth bitmap row from it.
		return v.index().FirstAtMin(r.IntN(n))
	}
	best := r.IntN(n)
	for k := 1; k < d; k++ {
		c := r.IntN(n)
		if v.Depth(c) < v.Depth(best) {
			best = c
		}
	}
	return best
}

func (p JSQ) Clone() Policy { return JSQ{D: p.D} }

func (p JSQ) String() string {
	if p.D >= FullScan {
		return "jsqfull"
	}
	return fmt.Sprintf("jsq%d", p.D)
}

// BoundedLoad is round-robin with a load bound, in the spirit of consistent
// hashing with bounded loads: the rotation skips any node whose sampled
// depth exceeds Factor × the cluster-mean depth, falling back to the
// least-loaded node when every node is over the bound.
type BoundedLoad struct {
	Factor float64 // bound as a multiple of mean depth; ≥ 1 (e.g. 1.25)
	next   int
}

// loadBound is BoundedLoad's admission threshold. The bound counts the
// incoming RPC, so an idle cluster admits anywhere:
// ceil(Factor × (total+1)/n).
func loadBound(factor float64, total, n int) int {
	return int(math.Ceil(factor * float64(total+1) / float64(n)))
}

func (p *BoundedLoad) Pick(v View, _ *rng.Source) int {
	// The index's running total gives the mean depth; the rotation takes
	// the first node under the bound from the cursor, or, with every node
	// over it, the min row's first node from the cursor — the circular
	// first argmin.
	n := v.Nodes()
	start := p.next % n
	x := v.index()
	c := x.FirstUnder(loadBound(p.Factor, x.Total(), n), start)
	if c < 0 {
		c = x.FirstAtMin(start)
	}
	p.next = (c + 1) % n
	return c
}

func (p *BoundedLoad) Clone() Policy  { return &BoundedLoad{Factor: p.Factor} }
func (p *BoundedLoad) String() string { return fmt.Sprintf("bounded%g", p.Factor) }

// PolicyByName builds a fresh policy instance from its report name:
// "random", "rr", "jsqD" for any d ≥ 2 (e.g. "jsq2"), "jsqfull"
// (whole-cluster JSQ at any size), "bounded" (Factor 1.25) or "boundedF"
// for a finite factor F ≥ 1 (e.g. "bounded1.5"). Every policy's String()
// parses back to an equal policy. Each call returns new state, so callers
// can hand every simulation its own rotation position.
func PolicyByName(name string) (Policy, error) {
	switch {
	case name == "random":
		return Random{}, nil
	case name == "rr":
		return &RoundRobin{}, nil
	case name == "bounded":
		return &BoundedLoad{Factor: 1.25}, nil
	case strings.HasPrefix(name, "bounded"):
		f, err := strconv.ParseFloat(name[len("bounded"):], 64)
		if err != nil || !(f >= 1) || math.IsInf(f, 1) {
			return nil, fmt.Errorf("cluster: bad bounded-load factor in %q (want boundedF, finite F ≥ 1)", name)
		}
		return &BoundedLoad{Factor: f}, nil
	case name == "jsqfull":
		return JSQ{D: FullScan}, nil
	case strings.HasPrefix(name, "jsq"):
		d, err := strconv.Atoi(name[len("jsq"):])
		if err != nil || d < 2 {
			return nil, fmt.Errorf("cluster: bad JSQ choices in %q (want jsq2, jsq3, ..., jsqfull)", name)
		}
		// Any d past FullScan already samples the whole cluster.
		return JSQ{D: min(d, FullScan)}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown policy %q (want random, rr, jsqD, jsqfull, bounded, boundedF)", name)
	}
}

// PolicyNames lists the canonical policy set in report order.
var PolicyNames = []string{"random", "rr", "jsq2", "bounded"}
