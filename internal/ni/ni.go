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

// Policy selects which available core receives the head message. Available
// cores are passed by core ID, always non-empty; outstanding[i] is the
// current outstanding count for core ID available[i]. The paper's
// proof-of-concept uses a simple greedy policy but argues the stage can host
// sophisticated, even microcoded, policies — hence the interface.
type Policy interface {
	Pick(msg Msg, available []int, outstanding []int) int
	String() string
}

// FirstAvailable picks the lowest-numbered available core: the simple greedy
// hardware the paper evaluates.
type FirstAvailable struct{}

// Pick implements Policy.
func (FirstAvailable) Pick(_ Msg, available []int, _ []int) int { return available[0] }

func (FirstAvailable) String() string { return "first-available" }

// LeastOutstanding picks the available core with the fewest outstanding
// requests, breaking ties toward lower core IDs. With threshold 2 this
// prefers fully idle cores over cores already holding one queued request,
// eliminating avoidable queueing.
type LeastOutstanding struct{}

// Pick implements Policy.
func (LeastOutstanding) Pick(_ Msg, available []int, outstanding []int) int {
	best := 0
	for i := 1; i < len(available); i++ {
		if outstanding[i] < outstanding[best] {
			best = i
		}
	}
	return available[best]
}

func (LeastOutstanding) String() string { return "least-outstanding" }

// LeastOutstandingRR picks among the available cores with the minimum
// outstanding count, rotating the tie-break. This is the occupancy-feedback
// policy the paper's Masstree experiment depends on (§6.1): a core occupied
// by a long-running scan still sits below the threshold, and a blind arbiter
// would park a latency-critical request behind it even while other cores are
// fully idle. Preferring minimum occupancy sends requests to idle cores
// first; the rotating tie-break spreads load evenly among equals.
type LeastOutstandingRR struct {
	next int
	ties []int // scratch, reused across Picks to keep the hot path allocation-free
}

// Pick implements Policy.
func (p *LeastOutstandingRR) Pick(_ Msg, available []int, outstanding []int) int {
	min := outstanding[0]
	for _, o := range outstanding[1:] {
		if o < min {
			min = o
		}
	}
	ties := p.ties[:0]
	for i, o := range outstanding {
		if o == min {
			ties = append(ties, available[i])
		}
	}
	p.ties = ties
	c := ties[p.next%len(ties)]
	p.next++
	return c
}

func (p *LeastOutstandingRR) String() string { return "least-outstanding-rr" }

// RoundRobin cycles through available cores, spreading dispatches without
// regard to occupancy beyond the threshold gate.
type RoundRobin struct{ next int }

// Pick implements Policy.
func (p *RoundRobin) Pick(_ Msg, available []int, _ []int) int {
	c := available[p.next%len(available)]
	p.next++
	return c
}

func (p *RoundRobin) String() string { return "round-robin" }

// Affinity steers messages to a preferred core subset keyed by the message
// Tag (e.g. RPC type), falling back to any available core. It demonstrates
// the paper's "certain types of RPCs serviced by specific cores" policy
// sketch.
type Affinity struct {
	Preferred map[uint64][]int // tag -> preferred core IDs
	Fallback  Policy
}

// Pick implements Policy.
func (a Affinity) Pick(msg Msg, available []int, outstanding []int) int {
	if pref, ok := a.Preferred[msg.Tag]; ok {
		for _, want := range pref {
			for _, c := range available {
				if c == want {
					return c
				}
			}
		}
	}
	fb := a.Fallback
	if fb == nil {
		fb = FirstAvailable{}
	}
	return fb.Pick(msg, available, outstanding)
}

func (a Affinity) String() string { return "affinity" }

// Unlimited is the threshold value meaning "no outstanding limit": every
// message dispatches immediately, which reduces the dispatcher to a static
// router (the RSS/partitioned behaviour).
const Unlimited = int(^uint(0) >> 1)

// Dispatcher is the centralized NI dispatch stage for a group of cores.
type Dispatcher struct {
	cores       []int // core IDs in this dispatcher's group
	indexOf     []int // dense core-ID → group-index table (-1 = not in group)
	outstanding []int
	threshold   int
	policy      Policy

	queue     fifo.Queue[Msg] // shared CQ; unbounded, naturally limited by N×S flow control
	maxDepth  int
	enqueued  uint64
	delivered uint64

	// Scratch for tryDispatch's available-core scan, reused across calls so
	// steady-state dispatch allocates nothing.
	avail    []int
	availOut []int
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
	d := &Dispatcher{
		cores:       append([]int(nil), cores...),
		indexOf:     make([]int, maxCore+1),
		outstanding: make([]int, len(cores)),
		threshold:   threshold,
		policy:      policy,
		avail:       make([]int, 0, len(cores)),
		availOut:    make([]int, 0, len(cores)),
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
		panic(fmt.Sprintf("ni: core %d not in dispatcher group %v", core, d.cores))
	}
	return d.indexOf[core]
}

// QueueDepth reports the current shared-CQ depth.
func (d *Dispatcher) QueueDepth() int { return d.queue.Len() }

// MaxQueueDepth reports the highest shared-CQ depth observed.
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
	if d.outstanding[i] == 0 {
		panic(fmt.Sprintf("ni: Complete(core %d) with zero outstanding", core))
	}
	d.outstanding[i]--
	return d.tryDispatch()
}

// tryDispatch pops the shared CQ head for an available core, if both exist.
// FIFO order is preserved: only the head message is ever considered, exactly
// like the hardware Dispatch stage.
func (d *Dispatcher) tryDispatch() (Dispatch, bool) {
	if d.QueueDepth() == 0 {
		return Dispatch{}, false
	}
	avail, availOut := d.avail[:0], d.availOut[:0]
	for i, c := range d.cores {
		if d.outstanding[i] < d.threshold {
			avail = append(avail, c)
			availOut = append(availOut, d.outstanding[i])
		}
	}
	d.avail, d.availOut = avail, availOut
	if len(avail) == 0 {
		return Dispatch{}, false
	}
	head, _ := d.queue.Peek()
	core := d.policy.Pick(head, avail, availOut)
	if core < 0 || core >= len(d.indexOf) || d.indexOf[core] < 0 {
		panic(fmt.Sprintf("ni: policy %s picked unavailable core %d", d.policy, core))
	}
	i := d.indexOf[core]
	if d.outstanding[i] >= d.threshold {
		panic(fmt.Sprintf("ni: policy %s picked unavailable core %d", d.policy, core))
	}
	m, _ := d.queue.Pop()
	d.outstanding[i]++
	d.delivered++
	return Dispatch{Core: core, Msg: m}, true
}

// Stats reports lifetime counters: messages enqueued and delivered.
func (d *Dispatcher) Stats() (enqueued, delivered uint64) {
	return d.enqueued, d.delivered
}
