package obs

import (
	"encoding/json"
	"io"
	"os"

	"rpcvalet/internal/sim"
	"rpcvalet/internal/trace"
)

// spanJSON is the export schema: one request per line, every leg in
// nanoseconds, -1 marking legs the span never observed. Field names are
// stable — offline tooling keys on them.
type spanJSON struct {
	Req             uint64  `json:"req"`
	Rack            int     `json:"rack"`
	Node            int     `json:"node"`
	Core            int     `json:"core"`
	DepthAtArrival  int     `json:"depth_at_arrival"`
	DepthAtForward  int     `json:"depth_at_forward"`
	DepthAtGForward int     `json:"depth_at_global_forward"`
	GlobalRecvNs    float64 `json:"global_recv_ns"`
	GlobalForwardNs float64 `json:"global_forward_ns"`
	BalancerRecvNs  float64 `json:"balancer_recv_ns"`
	ForwardNs       float64 `json:"forward_ns"`
	ArriveNs        float64 `json:"arrive_ns"`
	DispatchNs      float64 `json:"dispatch_ns"`
	StartNs         float64 `json:"start_ns"`
	CompleteNs      float64 `json:"complete_ns"`
	GlobalHopNs     float64 `json:"global_hop_ns"`
	HopNs           float64 `json:"hop_ns"`
	WaitNs          float64 `json:"wait_ns"`
	ServiceNs       float64 `json:"service_ns"`
	TotalNs         float64 `json:"total_ns"`
}

// tsNs renders one span timestamp: nanoseconds since virtual time zero, or
// -1 when the phase was never observed.
func tsNs(t sim.Time) float64 {
	if t == trace.Unset {
		return -1
	}
	return t.Nanos()
}

// WriteSpansJSONL writes one JSON object per span — the trace-export format
// behind the CLIs' -trace-jsonl flags.
func WriteSpansJSONL(w io.Writer, spans []trace.Span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		j := spanJSON{
			Req:             s.ReqID,
			Rack:            s.Rack,
			Node:            s.Node,
			Core:            s.Core,
			DepthAtArrival:  s.DepthAtArrival,
			DepthAtForward:  s.DepthAtForward,
			DepthAtGForward: s.DepthAtGlobalForward,
			GlobalRecvNs:    tsNs(s.GlobalRecv),
			GlobalForwardNs: tsNs(s.GlobalForward),
			BalancerRecvNs:  tsNs(s.BalancerRecv),
			ForwardNs:       tsNs(s.Forward),
			ArriveNs:        tsNs(s.Arrive),
			DispatchNs:      tsNs(s.Dispatch),
			StartNs:         tsNs(s.Start),
			CompleteNs:      tsNs(s.Complete),
			GlobalHopNs:     s.GlobalHopNs(),
			HopNs:           s.HopNs(),
			WaitNs:          s.QueueWaitNs(),
			ServiceNs:       s.ServiceNs(),
			TotalNs:         s.TotalNs(),
		}
		if err := enc.Encode(j); err != nil {
			return err
		}
	}
	return nil
}

// Capture is one run's span capture behind the CLIs' -tail, -trace-sample
// and -trace-jsonl flags: a tail sampler seeing every request beside a span
// collector seeing one request in n, composed onto the one Recorder a
// runtime's Config.Trace takes.
type Capture struct {
	tail  *trace.TailSampler
	spans *trace.Collector
	rec   trace.Recorder
}

// NewCapture keeps the tailK slowest requests (none when tailK ≤ 0) and,
// when collect is set, the spans of one request in sample (every request
// when sample ≤ 1) for WriteJSONL.
func NewCapture(tailK, sample int, collect bool) *Capture {
	c := &Capture{}
	var sinks []trace.Recorder
	if tailK > 0 {
		c.tail = trace.NewTailSampler(tailK)
		sinks = append(sinks, c.tail)
	}
	if collect {
		c.spans = trace.NewCollector()
		sinks = append(sinks, trace.Sample(c.spans, sample))
	}
	c.rec = trace.Tee(sinks...)
	return c
}

// Recorder returns the composed sink, nil when the capture keeps nothing
// (tracing off).
func (c *Capture) Recorder() trace.Recorder { return c.rec }

// TailSpans returns the retained tail, slowest first; nil without a tail.
func (c *Capture) TailSpans() []trace.Span {
	if c.tail == nil {
		return nil
	}
	return c.tail.Spans()
}

// WriteJSONL writes the collected spans to w in WriteSpansJSONL's format. It
// writes nothing when the capture collects no spans.
func (c *Capture) WriteJSONL(w io.Writer) error {
	if c.spans == nil {
		return nil
	}
	return WriteSpansJSONL(w, c.spans.Spans())
}

// WriteJSONLFile creates (or truncates) path and writes the collected spans
// to it. It touches no file when the capture collects no spans.
func (c *Capture) WriteJSONLFile(path string) error {
	if c.spans == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
