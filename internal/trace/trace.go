// Package trace records per-request lifecycle events from every runtime in
// the repository: when a message was fully received by the NI, when the
// dispatcher assigned it to a core, when the core's handler started, and when
// the replenish was posted — plus, for multi-node simulations
// (internal/cluster), the balancer-side hop milestones that precede them. It
// exists for observability — debugging dispatch behaviour, and letting
// downstream users audit exactly where a tail request spent its time — and
// for the test suite, which uses it to assert causal ordering through the
// pipeline.
//
// Events are the raw stream; Span (span.go) is the assembled per-request
// view, decomposing one RPC's end-to-end latency into hop, queue-wait, and
// service components. TailSampler retains the K slowest spans of a run —
// the anatomy of the tail — and Collector keeps every completed span for
// offline export (JSONL via internal/obs).
//
// Every runtime emits its whole stream to one Recorder, its Config.Trace,
// and does nothing else with it. Which events a run keeps is decided here:
// Tee fans the stream out, Sample thins it to one request in N, so a tail
// sampler next to a sampled export is Tee(tail, Sample(collector, n)).
package trace

import (
	"fmt"

	"rpcvalet/internal/sim"
)

// Phase identifies a lifecycle milestone.
type Phase uint8

// The milestones of one RPC through the server, in causal order.
const (
	// PhaseArrive: the message's last packet was written and the NI
	// considers it received (the latency clock starts here).
	PhaseArrive Phase = iota
	// PhaseDispatch: the NI dispatcher assigned the message to a core.
	PhaseDispatch
	// PhaseStart: the core began executing the handler.
	PhaseStart
	// PhaseComplete: the core posted the replenish (latency clock stops).
	PhaseComplete
)

// Cluster-hop milestones (multi-node runs). They precede PhaseArrive
// causally but carry larger constant values so the original four phases keep
// their historical encoding; use Rank for causal comparisons.
const (
	// PhaseBalancerRecv: the cluster balancer accepted the request — the
	// end-to-end latency clock of a cluster run starts here. In a two-tier
	// topology this is the *rack* balancer's ingress.
	PhaseBalancerRecv Phase = iota + 4
	// PhaseForward: the balancer picked a node and forwarded the request
	// onto the balancer→node hop.
	PhaseForward
)

// Global-tier milestones (two-tier topologies, Config.Racks > 0). They
// precede PhaseBalancerRecv causally; like the cluster-hop phases they carry
// fresh constant values so every earlier encoding is untouched.
const (
	// PhaseGlobalRecv: the global (datacenter) balancer accepted the
	// request — the end-to-end latency clock of a hierarchical run starts
	// here.
	PhaseGlobalRecv Phase = iota + 6
	// PhaseGlobalForward: the global balancer picked a rack and forwarded
	// the request onto the global→rack hop. Event.Node carries the rack
	// index, Event.Depth the global tier's view of that rack.
	PhaseGlobalForward
)

func (p Phase) String() string {
	switch p {
	case PhaseArrive:
		return "arrive"
	case PhaseDispatch:
		return "dispatch"
	case PhaseStart:
		return "start"
	case PhaseComplete:
		return "complete"
	case PhaseBalancerRecv:
		return "balancer-recv"
	case PhaseForward:
		return "forward"
	case PhaseGlobalRecv:
		return "global-recv"
	case PhaseGlobalForward:
		return "global-forward"
	default:
		return fmt.Sprintf("phase(%d)", uint8(p))
	}
}

// Rank orders phases causally: global-recv < global-forward < balancer-recv <
// forward < arrive < dispatch < start < complete. Unknown phases rank last.
func (p Phase) Rank() int {
	switch p {
	case PhaseGlobalRecv:
		return 0
	case PhaseGlobalForward:
		return 1
	case PhaseBalancerRecv:
		return 2
	case PhaseForward:
		return 3
	case PhaseArrive:
		return 4
	case PhaseDispatch:
		return 5
	case PhaseStart:
		return 6
	case PhaseComplete:
		return 7
	default:
		return 8
	}
}

// Event is one recorded milestone.
type Event struct {
	ReqID uint64
	Phase Phase
	At    sim.Time
	Core  int // serving core/worker, -1 when not yet assigned
	// Node attributes the event to a cluster node; single-machine runs
	// leave it 0, the balancer's own events carry -1.
	Node int
	// Depth is the queue-depth signal observed with the event (outstanding
	// requests at arrival, the balancer's view at forward); -1 = untracked.
	Depth int
}

func (e Event) String() string {
	s := fmt.Sprintf("req %d %s @%v core=%d", e.ReqID, e.Phase, e.At, e.Core)
	if e.Depth >= 0 {
		s += fmt.Sprintf(" depth=%d", e.Depth)
	}
	return s
}

// Recorder consumes lifecycle events. Implementations must be cheap: the
// machine invokes them inline on the simulation's hot path.
type Recorder interface {
	Record(Event)
}

// Func adapts a function to the Recorder interface.
type Func func(Event)

// Record implements Recorder.
func (f Func) Record(e Event) { f(e) }
