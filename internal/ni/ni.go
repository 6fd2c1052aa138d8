// Package ni implements the Manycore NI's dispatch machinery — the heart of
// RPCValet (§4.3).
//
// In the modeled chip, NI backends write incoming packets to memory and,
// once a message is fully received, forward a message-completion token to
// the NI dispatcher. The dispatcher holds the shared completion queue (CQ)
// and tracks each core's outstanding-request count; whenever a core in its
// group is below the outstanding threshold, it pops the shared CQ head and
// hands the message to that core's private CQ. Replenish operations from
// cores decrement the outstanding count and trigger further dispatches.
//
// The same state machine expresses all the paper's hardware configurations:
// one dispatcher over 16 cores is Model 1×16 (RPCValet), four dispatchers
// over 4-core groups is Model 4×4, and sixteen single-core dispatchers with
// an unlimited threshold degenerate to RSS-style partitioned queues
// (Model 16×1).
//
// This package is pure state-machine logic with no notion of time; the
// machine model drives it from the simulator and charges NOC/memory
// latencies around each transition.
package ni

import (
	"fmt"

	"rpcvalet/internal/depth"
	"rpcvalet/internal/fifo"
	"rpcvalet/internal/sonuma"
)

// Msg is a message-completion token travelling from an NI backend to a
// dispatcher: the receive slot holding the assembled message plus metadata
// used by dispatch policies and measurement.
type Msg struct {
	Slot int           // receive-buffer slot index
	Src  sonuma.NodeID // sending node
	Size int           // payload bytes
	Tag  uint64        // opaque correlation token; machines carry the request's slab index
}

// Dispatch is a decision to deliver msg to a core's private CQ.
type Dispatch struct {
	Core int
	Msg  Msg
}

// Policy selects which available core receives the head message. Pick
// reads the dispatcher's View and returns a position in it: an index into
// the group's cores, which must be below the outstanding threshold. Pick is
// only called while at least one core is. The paper's proof-of-concept
// uses a simple greedy policy but argues the stage can host sophisticated,
// even microcoded, policies — hence the interface.
type Policy interface {
	Pick(msg Msg, v *View) int
	String() string
}

// View is a policy's window on its dispatcher: the depth index over the
// group's cores, position i being the i-th core given to NewDispatcher, read
// through the outstanding threshold. It is the dispatcher's only store of
// outstanding counts, as a tier's index is at rack scale; the Sets it
// returns are read-only and valid until Pick returns.
type View struct {
	x         *depth.Index
	cores     []int
	threshold int
}

// Len reports the group size.
func (v *View) Len() int { return len(v.cores) }

// Core reports the core ID at position i.
func (v *View) Core(i int) int { return v.cores[i] }

// Outstanding reports the requests dispatched to position i and not yet
// completed.
func (v *View) Outstanding(i int) int { return v.x.Depth(i) }

// Available returns the positions below the threshold, in group order.
func (v *View) Available() depth.Set { return v.x.Under(v.threshold) }

// Least returns the positions with the fewest outstanding requests, all of
// them available while any core is.
func (v *View) Least() depth.Set { return v.x.AtMin() }

// LeastIn returns the first available position of mask with the fewest
// outstanding requests among mask's available positions, or -1 when none
// of mask is available.
func (v *View) LeastIn(mask depth.Set) int { return v.x.LeastIn(mask, v.threshold) }

// FirstAvailable picks the first available core in group order: the simple
// greedy hardware the paper evaluates.
type FirstAvailable struct{}

// Pick implements Policy.
func (FirstAvailable) Pick(_ Msg, v *View) int { return v.Available().Nth(0) }

func (FirstAvailable) String() string { return "first-available" }

// LeastOutstanding picks the available core with the fewest outstanding
// requests, breaking ties toward the earlier position. With threshold 2
// this prefers fully idle cores over cores already holding one queued
// request, eliminating avoidable queueing.
type LeastOutstanding struct{}

// Pick implements Policy.
func (LeastOutstanding) Pick(_ Msg, v *View) int { return v.Least().Nth(0) }

func (LeastOutstanding) String() string { return "least-outstanding" }

// LeastOutstandingRR picks among the available cores with the minimum
// outstanding count, rotating the tie-break. This is the occupancy-feedback
// policy the paper's Masstree experiment depends on (§6.1): a core occupied
// by a long-running scan still sits below the threshold, and a blind arbiter
// would park a latency-critical request behind it even while other cores are
// fully idle. Preferring minimum occupancy sends requests to idle cores
// first; the rotating tie-break spreads load evenly among equals.
type LeastOutstandingRR struct{ next int }

// Pick implements Policy: the (next mod ties)-th core of the least row.
func (p *LeastOutstandingRR) Pick(_ Msg, v *View) int {
	ties := v.Least()
	c := ties.Nth(p.next % ties.Count())
	p.next++
	return c
}

func (p *LeastOutstandingRR) String() string { return "least-outstanding-rr" }

// RoundRobin cycles through available cores, spreading dispatches without
// regard to occupancy beyond the threshold gate.
type RoundRobin struct{ next int }

// Pick implements Policy: the (next mod available)-th available core.
func (p *RoundRobin) Pick(_ Msg, v *View) int {
	avail := v.Available()
	c := avail.Nth(p.next % avail.Count())
	p.next++
	return c
}

func (p *RoundRobin) String() string { return "round-robin" }

// Unlimited is the threshold value meaning "no outstanding limit": every
// message dispatches immediately, which reduces the dispatcher to a static
// router (the RSS/partitioned behaviour).
const Unlimited = int(^uint(0) >> 1)

// Dispatcher is the centralized NI dispatch stage for a group of cores.
type Dispatcher struct {
	view    View  // the group's depth index: its only outstanding counts
	indexOf []int // dense core-ID → position table (-1 = not in group)
	policy  Policy

	queue     fifo.Queue[Msg] // shared CQ; unbounded, naturally limited by N×S flow control
	maxDepth  int
	enqueued  uint64
	delivered uint64
}

// NewDispatcher builds a dispatcher for the given cores. threshold is the
// per-core outstanding limit (the paper uses 2; 1 is the strict single-queue
// variant; Unlimited gives partitioned behaviour). policy may be nil, which
// selects FirstAvailable.
func NewDispatcher(cores []int, threshold int, policy Policy) (*Dispatcher, error) {
	if len(cores) == 0 {
		return nil, fmt.Errorf("ni: dispatcher needs at least one core")
	}
	if threshold < 1 {
		return nil, fmt.Errorf("ni: outstanding threshold %d must be >= 1", threshold)
	}
	if policy == nil {
		policy = FirstAvailable{}
	}
	maxCore := 0
	for _, c := range cores {
		if c < 0 {
			return nil, fmt.Errorf("ni: negative core ID %d in dispatcher group", c)
		}
		if c > maxCore {
			maxCore = c
		}
	}
	// The index clamps at the threshold: rows below it are the available
	// cores, and one row holds every core at or past it, so a threshold-2
	// group keeps three rows, not a tier's 64. A one-core group clamps at
	// row 1: every query on it is trivial, and the clamp row's exact depth
	// answers it.
	clamp := min(threshold, depth.Clamp)
	if len(cores) == 1 {
		clamp = 1
	}
	d := &Dispatcher{
		view: View{
			x:         depth.New(len(cores), clamp),
			cores:     append([]int(nil), cores...),
			threshold: threshold,
		},
		indexOf: make([]int, maxCore+1),
		policy:  policy,
	}
	for i := range d.indexOf {
		d.indexOf[i] = -1
	}
	for i, c := range cores {
		if d.indexOf[c] >= 0 {
			return nil, fmt.Errorf("ni: duplicate core %d in dispatcher group", c)
		}
		d.indexOf[c] = i
	}
	return d, nil
}

// mustIndex maps a core ID to its group index. It panics if the core is not
// in this dispatcher's group (a wiring bug).
func (d *Dispatcher) mustIndex(core int) int {
	if core < 0 || core >= len(d.indexOf) || d.indexOf[core] < 0 {
		panic(fmt.Sprintf("ni: core %d not in dispatcher group %v", core, d.view.cores))
	}
	return d.indexOf[core]
}

// Threshold reports the per-core outstanding limit.
func (d *Dispatcher) Threshold() int { return d.view.threshold }

// Outstanding reports the requests dispatched to core and not yet
// completed.
func (d *Dispatcher) Outstanding(core int) int { return d.view.x.Depth(d.mustIndex(core)) }

// QueueDepth reports the current shared-CQ depth.
func (d *Dispatcher) QueueDepth() int { return d.queue.Len() }

// MaxQueueDepth reports the highest shared-CQ depth observed, counting a
// message Enqueue dispatched at once: 1 once any message has arrived.
func (d *Dispatcher) MaxQueueDepth() int { return d.maxDepth }

// Enqueue accepts a message-completion token into the shared CQ and returns
// the dispatch it triggers, if any core is below threshold.
func (d *Dispatcher) Enqueue(m Msg) (Dispatch, bool) {
	d.queue.Push(m)
	d.enqueued++
	if depth := d.QueueDepth(); depth > d.maxDepth {
		d.maxDepth = depth
	}
	return d.tryDispatch()
}

// Complete records that a core finished one request (its replenish reached
// the dispatcher) and returns the follow-on dispatch, if any.
func (d *Dispatcher) Complete(core int) (Dispatch, bool) {
	i := d.mustIndex(core)
	if d.view.x.Depth(i) == 0 {
		panic(fmt.Sprintf("ni: Complete(core %d) with zero outstanding", core))
	}
	d.view.x.Dec(i)
	return d.tryDispatch()
}

// tryDispatch pops the shared CQ head for an available core, if both exist.
// FIFO order is preserved: only the head message is ever considered, exactly
// like the hardware Dispatch stage.
func (d *Dispatcher) tryDispatch() (Dispatch, bool) {
	v := &d.view
	if d.queue.Len() == 0 || !v.x.HasUnder(v.threshold) {
		return Dispatch{}, false
	}
	head, _ := d.queue.Peek()
	i := d.policy.Pick(head, v)
	if i < 0 || i >= len(v.cores) || v.x.Depth(i) >= v.threshold {
		panic(fmt.Sprintf("ni: policy %s picked unavailable core at position %d", d.policy, i))
	}
	m, _ := d.queue.Pop()
	v.x.Inc(i)
	d.delivered++
	return Dispatch{Core: v.cores[i], Msg: m}, true
}

// Stats reports lifetime counters: messages enqueued and delivered.
func (d *Dispatcher) Stats() (enqueued, delivered uint64) {
	return d.enqueued, d.delivered
}
