package machine

import (
	"fmt"

	"rpcvalet/internal/metrics"
	"rpcvalet/internal/stats"
)

// Result is the measured outcome of one machine run.
type Result struct {
	// Dispatch names the dispatch plan that ran ("rpcvalet-1x16", "jbsq2",
	// "plan-2x8/random2", ...).
	Dispatch string
	Workload string
	RateMRPS float64 // offered load
	Seed     uint64

	ThroughputMRPS float64       // measured completion rate over the window
	Latency        stats.Summary // end-to-end latency of measured classes, ns
	ClassLatency   map[string]stats.Summary
	// Wait decomposes latency: the delay between a message's complete
	// reception at the NI and the serving core starting its handler —
	// dispatch plus queueing, the component load balancing controls.
	Wait stats.Summary

	ServiceMeanNanos float64 // measured S̄: mean per-request core occupancy
	SLONanos         float64 // derived SLO (absolute, or factor × S̄)
	MeetsSLO         bool

	CoreUtilization    []float64
	BackendUtilization []float64
	DispatcherMaxDepth int // deepest shared-CQ (or software queue) observed

	BlockedArrivals uint64 // arrivals parked by sender-side flow control
	ReplyStalls     uint64 // completions stalled on reply-send credits
	Completed       int
	TimedOut        bool

	// rec is the finished run's recorder, which Timeline summarizes.
	rec *metrics.Recorder
}

// Timeline is the epoch-sliced view of the whole run (warmup included):
// per-epoch throughput, latency and wait percentiles, queue depth, and core
// utilization. The summary fields stay the steady-state window; the
// timeline is where transients — load steps, bursts, pause windows — become
// visible. It is summarized from the run's recorder on each call, so a run
// whose timeline nobody reads pays nothing for it; calls may run
// concurrently.
func (r Result) Timeline() metrics.Timeline {
	if r.rec == nil {
		return metrics.Timeline{}
	}
	return r.rec.Timeline()
}

func (r Result) String() string {
	return fmt.Sprintf("%s/%s @%.2fMRPS: thr=%.2fMRPS p99=%.0fns slo=%.0fns meets=%v",
		r.Dispatch, r.Workload, r.RateMRPS, r.ThroughputMRPS, r.Latency.P99, r.SLONanos, r.MeetsSLO)
}

// result assembles the Result after the engine stops.
func (m *Machine) result() Result {
	m.settleStarts()
	r := Result{
		Dispatch:     m.plan.label,
		Workload:     m.wl.Name,
		RateMRPS:     m.cfg.RateMRPS,
		Seed:         m.cfg.Seed,
		Latency:      m.rec.Latency(),
		ClassLatency: make(map[string]stats.Summary, len(m.wl.Classes)),
		Completed:    m.completed,
		TimedOut:     m.timedOut,

		ServiceMeanNanos: m.rec.ServiceMean(),
		Wait:             m.rec.Wait(),
		BlockedArrivals:  m.blockedArrivals,
		ReplyStalls:      m.replyStalls,
		rec:              m.rec,
	}
	measured := 0
	for _, cl := range m.wl.Classes {
		if cl.Measured {
			measured++
		}
	}
	for i, cl := range m.wl.Classes {
		if cl.Measured && measured == 1 {
			// The only measured class's latencies are the measured ones,
			// in the same log order: Latency already summarized them.
			r.ClassLatency[cl.Name] = r.Latency
			continue
		}
		r.ClassLatency[cl.Name] = m.rec.Class(i)
	}

	if start, end := m.rec.Window(); end > start {
		// The window spans completion Warmup+1 through Warmup+Measure:
		// measured−1 inter-completion intervals, the same convention the
		// queueing and cluster models use.
		measured := m.completed - m.cfg.Warmup
		span := end.Sub(start).Nanos()
		r.ThroughputMRPS = float64(measured-1) / span * 1000
	}

	if m.wl.SLONanos > 0 {
		r.SLONanos = m.wl.SLONanos
	} else {
		r.SLONanos = m.wl.SLOFactor * r.ServiceMeanNanos
	}
	r.MeetsSLO = !m.timedOut && r.Latency.Count > 0 && r.Latency.P99 <= r.SLONanos

	now := m.eng.Now()
	for _, c := range m.cores {
		u := 0.0
		if now > 0 {
			u = float64(m.rec.BusyTotal(c.id)) / float64(now)
		}
		r.CoreUtilization = append(r.CoreUtilization, u)
	}
	for _, b := range m.backends {
		r.BackendUtilization = append(r.BackendUtilization, b.Utilization())
	}
	for _, d := range m.dispatchers {
		if d.MaxQueueDepth() > r.DispatcherMaxDepth {
			r.DispatcherMaxDepth = d.MaxQueueDepth()
		}
	}
	if m.swMaxDepth > r.DispatcherMaxDepth {
		r.DispatcherMaxDepth = m.swMaxDepth
	}
	return r
}

// Run is the one-call entry point: build a Machine from cfg and run it.
func Run(cfg Config) (Result, error) {
	m, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return m.Run()
}
