package trace

import (
	"container/heap"
	"fmt"
	"sort"

	"rpcvalet/internal/sim"
)

// Unset marks a span timestamp whose phase was never observed.
const Unset = sim.Time(-1)

// Span is one request's assembled lifecycle: every recorded milestone plus
// the attribution needed to explain where the request spent its time. A span
// is built from Events by a TailSampler, a Collector, or Spans; fields whose
// phase was never recorded hold Unset (times) or -1 (attributions).
//
// The paper's tail-anatomy argument reads off a span directly: QueueWaitNs
// is the component dispatch policy controls (imbalance wait), ServiceNs is
// the handler itself, and HopNs is the cluster fabric. For a tail request,
// comparing WaitShare across dispatch plans shows whether its latency came
// from waiting behind a busy core (partitioned pathology) or from its own
// work (irreducible).
type Span struct {
	ReqID uint64
	Node  int // serving node (0 for single-machine runs, -1 unknown)
	Core  int // serving core/worker (-1 unknown)
	// Rack is the rack the global tier routed the request to (-1 for flat
	// and single-machine runs).
	Rack int
	// DepthAtArrival is the number of other requests outstanding at the
	// serving node when this one arrived (-1 untracked) — the congestion
	// the request walked into.
	DepthAtArrival int
	// DepthAtForward is the balancer's queue-depth view of the chosen node
	// at forward time (-1 for single-machine runs).
	DepthAtForward int
	// DepthAtGlobalForward is the global tier's aggregate-depth view of the
	// chosen rack at global-forward time (-1 off-hierarchy).
	DepthAtGlobalForward int

	GlobalRecv    sim.Time // global balancer ingress (Unset off-hierarchy)
	GlobalForward sim.Time // global balancer picked the rack (Unset off-hierarchy)
	BalancerRecv  sim.Time // cluster/rack balancer ingress (Unset off-cluster)
	Forward       sim.Time // balancer picked the node (Unset off-cluster)
	Arrive        sim.Time // message fully received at the node's NI
	Dispatch      sim.Time // NI dispatcher assigned a core
	Start         sim.Time // core began the handler
	Complete      sim.Time // replenish posted (latency clock stops)
}

// newSpan returns a span with every field at its "unobserved" sentinel.
func newSpan(id uint64) Span {
	return Span{
		ReqID: id, Node: -1, Core: -1, Rack: -1,
		DepthAtArrival: -1, DepthAtForward: -1, DepthAtGlobalForward: -1,
		GlobalRecv: Unset, GlobalForward: Unset,
		BalancerRecv: Unset, Forward: Unset, Arrive: Unset,
		Dispatch: Unset, Start: Unset, Complete: Unset,
	}
}

// observe folds one event into the span.
func (s *Span) observe(e Event) {
	switch e.Phase {
	case PhaseGlobalRecv:
		s.GlobalRecv = e.At
	case PhaseGlobalForward:
		s.GlobalForward = e.At
		s.Rack = e.Node
		s.DepthAtGlobalForward = e.Depth
		return // Node carries the rack index here, not a serving core's node
	case PhaseBalancerRecv:
		s.BalancerRecv = e.At
	case PhaseForward:
		s.Forward = e.At
		s.Node = e.Node
		s.DepthAtForward = e.Depth
	case PhaseArrive:
		s.Arrive = e.At
		s.Node = e.Node
		s.DepthAtArrival = e.Depth
	case PhaseDispatch:
		s.Dispatch = e.At
		s.Node = e.Node
	case PhaseStart:
		s.Start = e.At
		s.Node = e.Node
	case PhaseComplete:
		s.Complete = e.At
		s.Node = e.Node
	}
	if e.Core >= 0 {
		s.Core = e.Core
	}
}

// spanGap returns the nanoseconds from a to b, or 0 when either end was
// never observed.
func spanGap(a, b sim.Time) float64 {
	if a == Unset || b == Unset {
		return 0
	}
	return b.Sub(a).Nanos()
}

// Begin is the span's measurement origin: global-balancer ingress for
// two-tier requests, rack/cluster balancer ingress for flat cluster
// requests, NI arrival otherwise.
func (s Span) Begin() sim.Time {
	if s.GlobalRecv != Unset {
		return s.GlobalRecv
	}
	if s.BalancerRecv != Unset {
		return s.BalancerRecv
	}
	return s.Arrive
}

// TotalNs is the end-to-end latency: Begin → Complete.
func (s Span) TotalNs() float64 { return spanGap(s.Begin(), s.Complete) }

// GlobalHopNs is the global→rack leg (global forward decision through rack
// balancer ingress), 0 off-hierarchy. It includes any time the request spent
// waiting at a stalled rack balancer — a paused rack balancer shows up here.
func (s Span) GlobalHopNs() float64 { return spanGap(s.GlobalForward, s.BalancerRecv) }

// HopNs is the balancer→NI leg (forward decision through full reception at
// the node), 0 for single-machine runs.
func (s Span) HopNs() float64 { return spanGap(s.Forward, s.Arrive) }

// QueueWaitNs is the pre-service delay at the node — NI arrival until the
// core begins the handler: dispatch plus queue-imbalance wait, the component
// load balancing controls. It matches the machine Result's Wait sample up to
// the poll-detect sliver (which the machine books into service).
func (s Span) QueueWaitNs() float64 { return spanGap(s.Arrive, s.Start) }

// DispatchNs is the NI-internal leg: arrival until the dispatcher assigned a
// core.
func (s Span) DispatchNs() float64 { return spanGap(s.Arrive, s.Dispatch) }

// ServiceNs is the serving leg: handler start through replenish.
func (s Span) ServiceNs() float64 { return spanGap(s.Start, s.Complete) }

// WaitShare is QueueWaitNs as a fraction of the node-local latency
// (arrive → complete): ≈1 means the request's latency was queueing the
// dispatch plan could have removed, ≈0 means it was the request's own work.
func (s Span) WaitShare() float64 {
	total := spanGap(s.Arrive, s.Complete)
	if total <= 0 {
		return 0
	}
	return s.QueueWaitNs() / total
}

// Complete reports whether the span observed its terminal phase.
func (s Span) Completed() bool { return s.Complete != Unset }

func (s Span) String() string {
	return fmt.Sprintf("req %d node=%d core=%d depth=%d wait=%.0fns svc=%.0fns total=%.0fns",
		s.ReqID, s.Node, s.Core, s.DepthAtArrival, s.QueueWaitNs(), s.ServiceNs(), s.TotalNs())
}

// Spans assembles per-request spans from an event stream, in first-seen
// request order. Incomplete spans (requests still in flight when the stream
// ends) are included; filter with Completed when only finished requests
// matter.
func Spans(events []Event) []Span {
	idx := make(map[uint64]int)
	var out []Span
	for _, e := range events {
		i, ok := idx[e.ReqID]
		if !ok {
			i = len(out)
			idx[e.ReqID] = i
			out = append(out, newSpan(e.ReqID))
		}
		out[i].observe(e)
	}
	return out
}

// SortSlowestFirst orders spans by descending total latency, request ID
// breaking ties deterministically.
func SortSlowestFirst(spans []Span) {
	sort.Slice(spans, func(i, j int) bool { return slower(spans[i], spans[j]) })
}

// slower reports whether a ranks ahead of b in the tail: higher total
// latency first, the lower request ID on equal totals.
func slower(a, b Span) bool {
	ta, tb := a.TotalNs(), b.TotalNs()
	if ta != tb {
		return ta > tb
	}
	return a.ReqID < b.ReqID
}

// spanHeap is a min-heap in tail order (its top is the span the tail would
// drop first), keeping the K slowest spans.
type spanHeap []Span

func (h spanHeap) Len() int           { return len(h) }
func (h spanHeap) Less(i, j int) bool { return slower(h[j], h[i]) }
func (h spanHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *spanHeap) Push(x any)        { *h = append(*h, x.(Span)) }
func (h *spanHeap) Pop() any          { old := *h; n := len(old); s := old[n-1]; *h = old[:n-1]; return s }

// TailSampler is a Recorder retaining the K slowest completed requests of a
// run with their full span breakdowns — the anatomy of the tail. It consumes
// the full event stream (never behind Sample: a sampled stream would miss
// tail requests), assembles spans request by request, and keeps a bounded
// heap, so memory is O(K + in-flight), independent of run length. Its set
// equals the first K of SortSlowestFirst over every completed span.
type TailSampler struct {
	k         int
	open      map[uint64]Span
	tail      spanHeap
	completed uint64
}

// NewTailSampler returns a sampler keeping the k slowest requests. It panics
// on non-positive k.
func NewTailSampler(k int) *TailSampler {
	if k <= 0 {
		panic("trace: tail sampler capacity must be positive")
	}
	return &TailSampler{k: k, open: make(map[uint64]Span)}
}

// Record implements Recorder.
func (t *TailSampler) Record(e Event) {
	sp, ok := t.open[e.ReqID]
	if !ok {
		sp = newSpan(e.ReqID)
	}
	sp.observe(e)
	if e.Phase != PhaseComplete {
		t.open[e.ReqID] = sp
		return
	}
	delete(t.open, e.ReqID)
	t.completed++
	if len(t.tail) < t.k {
		heap.Push(&t.tail, sp)
		return
	}
	if slower(sp, t.tail[0]) {
		t.tail[0] = sp
		heap.Fix(&t.tail, 0)
	}
}

// Completed reports how many finished requests the sampler has seen.
func (t *TailSampler) Completed() uint64 { return t.completed }

// Spans returns the retained tail, slowest first. The heap is untouched; the
// sampler can keep recording.
func (t *TailSampler) Spans() []Span {
	out := append([]Span(nil), t.tail...)
	SortSlowestFirst(out)
	return out
}

// Collector is a Recorder assembling every completed span, in completion
// order — the export path behind JSONL trace dumps. Unlike TailSampler it
// grows with the run; put it behind Sample on long runs.
type Collector struct {
	open map[uint64]Span
	done []Span
}

// NewCollector returns an empty span collector.
func NewCollector() *Collector { return &Collector{open: make(map[uint64]Span)} }

// Record implements Recorder.
func (c *Collector) Record(e Event) {
	sp, ok := c.open[e.ReqID]
	if !ok {
		sp = newSpan(e.ReqID)
	}
	sp.observe(e)
	if e.Phase != PhaseComplete {
		c.open[e.ReqID] = sp
		return
	}
	delete(c.open, e.ReqID)
	c.done = append(c.done, sp)
}

// Spans returns the completed spans in completion order (shared backing
// array; callers that mutate should copy).
func (c *Collector) Spans() []Span { return c.done }

// Tee fans one event stream out to several recorders. Nil recorders are
// skipped; with none left Tee returns nil (tracing off), with one it returns
// that recorder itself.
func Tee(recorders ...Recorder) Recorder {
	var live []Recorder
	for _, r := range recorders {
		if r != nil {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return Func(func(e Event) {
		for _, r := range live {
			r.Record(e)
		}
	})
}

// Sample thins a stream to one request in n: r sees every event of the
// requests whose ID is a multiple of n, and nothing of the rest. n ≤ 1
// returns r unchanged. Sampling by ID keeps each kept request's lifecycle
// whole, and it draws no randomness, so a sampled run matches an unsampled
// one event for event.
func Sample(r Recorder, n int) Recorder {
	if r == nil || n <= 1 {
		return r
	}
	every := uint64(n)
	return Func(func(e Event) {
		if e.ReqID%every == 0 {
			r.Record(e)
		}
	})
}
