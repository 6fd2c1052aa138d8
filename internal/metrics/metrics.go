// Package metrics is the measurement layer shared by every simulator in the
// repository: the machine model (internal/machine), the rack-scale cluster
// (internal/cluster), and the queueing models (internal/queueing) all record
// through a Recorder instead of keeping ad-hoc sample fields.
//
// A Recorder collects two views of the same run:
//
//   - Summary statistics over the measurement window (warmup excluded):
//     the headline latency sample, per-class latencies, pre-service wait,
//     per-request service occupancy, and per-server busy time. These are
//     exactly the collectors the simulators historically kept inline, fed
//     the same values in the same order, so refactoring onto the Recorder
//     is byte-identical for every existing result field.
//
//   - An epoch-sliced timeline over the whole run (warmup included): virtual
//     time is cut into fixed-length epochs, and each epoch accumulates its
//     own latency and wait samples, completion count, queue-depth
//     observations, and busy time. The timeline is what makes transients
//     visible — a load step, a burst, a degraded node — which a single
//     steady-state window averages away.
//
// The slice count is bounded: when a run outgrows MaxEpochs slices, the
// epoch length doubles and adjacent epochs merge pairwise
// (stats.Sample.Merge), so the timeline stays a fixed number of rows for
// any run length while every recorded observation remains attributed to the
// slice containing it. Note the bound is on slice count, not bytes: epochs
// keep exact-order-statistics samples, so total memory scales with the
// completion count — the same order as the summary samples the simulators
// have always kept (each observation is stored twice). The whole layer is
// deterministic — it consumes no randomness and allocates no state that
// depends on wall-clock time — so identical simulations produce identical
// Timelines.
package metrics

import (
	"rpcvalet/internal/sim"
	"rpcvalet/internal/stats"
)

// Defaults for Config's zero values.
const (
	// DefaultEpochNanos is the initial epoch length: 1 µs, fine enough to
	// resolve µs-scale transients; long runs double it as needed.
	DefaultEpochNanos = 1000.0
	// DefaultMaxEpochs bounds the timeline's length; beyond it the epoch
	// length doubles and adjacent epochs merge.
	DefaultMaxEpochs = 64
)

// Config sizes a Recorder.
type Config struct {
	// Classes labels the per-class latency samples (may be empty).
	Classes []string
	// Servers is the busy-time capacity normalizer: the number of serving
	// units (cores) whose combined busy time saturates an epoch's
	// utilization at 1.0. Zero disables the utilization timeline.
	Servers int
	// EpochNanos is the initial epoch length (0 = DefaultEpochNanos).
	EpochNanos float64
	// MaxEpochs bounds the number of epoch slices (0 = DefaultMaxEpochs;
	// values below 2 are raised to 2 so doubling can make progress).
	MaxEpochs int
	// Expect pre-sizes the summary samples for a run expected to record
	// about this many completions, so steady-state recording never grows a
	// slice. Zero leaves the samples growing on demand.
	Expect int
}

// Completion describes one finished request, pre-measured by the simulator.
// Negative values mark observations the caller does not track.
type Completion struct {
	Class     int     // request-class index (ignored when out of range)
	Measured  bool    // class counts toward the headline latency sample
	LatencyNs float64 // end-to-end latency; <0 = not observed
	WaitNs    float64 // pre-service delay; <0 = not observed
	ServiceNs float64 // per-request server occupancy; <0 = not observed
	Depth     int     // queue-depth signal at completion; <0 = not observed
}

// epoch is one timeline slice's accumulators.
type epoch struct {
	lat, wait   stats.Sample
	completions int
	depthSum    int64
	depthN      int
	depthMax    int
	busy        sim.Duration
}

// merge folds o into e (the epoch-doubling step).
func (e *epoch) merge(o *epoch) {
	e.lat.Merge(&o.lat)
	e.wait.Merge(&o.wait)
	e.completions += o.completions
	e.depthSum += o.depthSum
	e.depthN += o.depthN
	if o.depthMax > e.depthMax {
		e.depthMax = o.depthMax
	}
	e.busy += o.busy
}

// Recorder accumulates one run's measurements. The zero value is not useful;
// create one with NewRecorder. Recorders are not safe for concurrent use —
// like the engine they observe, one Recorder belongs to one simulation
// goroutine.
type Recorder struct {
	cfg        Config
	epochNanos float64
	epochs     []*epoch

	// Summary collectors (measurement window only).
	latency, wait, svc stats.Sample
	class              []stats.Sample
	busyTotal          []sim.Duration
	winStart, winEnd   sim.Time
	inWindow           bool
}

// NewRecorder builds a Recorder for one run.
func NewRecorder(cfg Config) *Recorder {
	if cfg.EpochNanos <= 0 {
		cfg.EpochNanos = DefaultEpochNanos
	}
	if cfg.MaxEpochs <= 0 {
		cfg.MaxEpochs = DefaultMaxEpochs
	}
	if cfg.MaxEpochs < 2 {
		cfg.MaxEpochs = 2
	}
	r := &Recorder{
		cfg:        cfg,
		epochNanos: cfg.EpochNanos,
		class:      make([]stats.Sample, len(cfg.Classes)),
		busyTotal:  make([]sim.Duration, cfg.Servers),
	}
	if cfg.Expect > 0 {
		r.latency.Grow(cfg.Expect)
		r.wait.Grow(cfg.Expect)
		r.svc.Grow(cfg.Expect)
		for i := range r.class {
			r.class[i].Grow(cfg.Expect)
		}
	}
	return r
}

// OpenWindow starts the summary measurement window at time t (after warmup).
func (r *Recorder) OpenWindow(t sim.Time) {
	r.winStart = t
	r.inWindow = true
}

// CloseWindow ends the summary measurement window at time t.
func (r *Recorder) CloseWindow(t sim.Time) {
	r.winEnd = t
	r.inWindow = false
}

// Window returns the summary window's bounds (zero until opened/closed).
func (r *Recorder) Window() (start, end sim.Time) { return r.winStart, r.winEnd }

// epochAt returns the slice covering time t, doubling the epoch length (and
// pairwise-merging existing slices) whenever t falls beyond MaxEpochs.
func (r *Recorder) epochAt(t sim.Time) *epoch {
	ns := t.Nanos()
	if ns < 0 {
		ns = 0
	}
	idx := int(ns / r.epochNanos)
	for idx >= r.cfg.MaxEpochs {
		r.double()
		idx = int(ns / r.epochNanos)
	}
	for len(r.epochs) <= idx {
		r.epochs = append(r.epochs, &epoch{})
	}
	return r.epochs[idx]
}

// double doubles the epoch length and merges adjacent slices pairwise.
func (r *Recorder) double() {
	r.epochNanos *= 2
	half := (len(r.epochs) + 1) / 2
	merged := make([]*epoch, half)
	for i := 0; i < half; i++ {
		e := r.epochs[2*i]
		if 2*i+1 < len(r.epochs) {
			e.merge(r.epochs[2*i+1])
		}
		merged[i] = e
	}
	r.epochs = merged
}

// Complete records one finished request at virtual time t. The timeline
// always records it; the summary collectors record it only while the
// measurement window is open — the exact gating the simulators historically
// applied inline.
func (r *Recorder) Complete(t sim.Time, c Completion) {
	if r.inWindow {
		if c.Measured && c.LatencyNs >= 0 {
			r.latency.Add(c.LatencyNs)
		}
		if c.Class >= 0 && c.Class < len(r.class) && c.LatencyNs >= 0 {
			r.class[c.Class].Add(c.LatencyNs)
		}
		if c.ServiceNs >= 0 {
			r.svc.Add(c.ServiceNs)
		}
		if c.WaitNs >= 0 {
			r.wait.Add(c.WaitNs)
		}
	}
	e := r.epochAt(t)
	e.completions++
	if c.Measured && c.LatencyNs >= 0 {
		e.lat.Add(c.LatencyNs)
	}
	if c.WaitNs >= 0 {
		e.wait.Add(c.WaitNs)
	}
	if c.Depth >= 0 {
		e.depthSum += int64(c.Depth)
		e.depthN++
		if c.Depth > e.depthMax {
			e.depthMax = c.Depth
		}
	}
}

// Busy attributes d of busy time on serving unit `server` to the epoch
// containing t (by convention the time the busy span was committed). Spans
// are not split across epoch boundaries, so an epoch's utilization is a
// first-order attribution, not an integral; with epochs much longer than a
// single span the distinction is negligible.
func (r *Recorder) Busy(t sim.Time, server int, d sim.Duration) {
	if server >= 0 && server < len(r.busyTotal) {
		r.busyTotal[server] += d
	}
	r.epochAt(t).busy += d
}

// BusyTotal reports the cumulative busy time recorded for one serving unit.
func (r *Recorder) BusyTotal(server int) sim.Duration {
	if server < 0 || server >= len(r.busyTotal) {
		return 0
	}
	return r.busyTotal[server]
}

// MeanUtilization reports the average busy fraction across all serving
// units, measured against the clock value now.
func (r *Recorder) MeanUtilization(now sim.Time) float64 {
	if now == 0 || len(r.busyTotal) == 0 {
		return 0
	}
	var busy sim.Duration
	for _, b := range r.busyTotal {
		busy += b
	}
	return float64(busy) / float64(now) / float64(len(r.busyTotal))
}

// --- Summary accessors ----------------------------------------------------

// Latency summarizes the headline (measured-class) latency sample.
func (r *Recorder) Latency() stats.Summary { return r.latency.Summarize() }

// Class summarizes one request class's latency sample.
func (r *Recorder) Class(i int) stats.Summary { return r.class[i].Summarize() }

// Wait summarizes the pre-service delay sample.
func (r *Recorder) Wait() stats.Summary { return r.wait.Summarize() }

// ServiceMean reports the mean per-request service occupancy (S̄).
func (r *Recorder) ServiceMean() float64 { return r.svc.Mean() }

// --- Timeline -------------------------------------------------------------

// EpochStats is one rendered timeline slice.
type EpochStats struct {
	StartNanos     float64
	EndNanos       float64
	Completions    int
	ThroughputMRPS float64       // completions over the epoch length
	Latency        stats.Summary // measured-class latency within the epoch
	Wait           stats.Summary // pre-service delay within the epoch
	MeanDepth      float64       // mean queue-depth observation
	MaxDepth       int
	Utilization    float64 // busy time / (epoch × servers); 0 when untracked
}

// Timeline is the rendered epoch series of one run.
type Timeline struct {
	// EpochNanos is the final epoch length after any doubling.
	EpochNanos float64
	Epochs     []EpochStats
}

// Timeline renders the recorder's epoch series. Trailing empty epochs are
// trimmed; interior empty epochs (a stalled system) are kept, zero-valued,
// so indices remain proportional to time.
func (r *Recorder) Timeline() Timeline {
	last := -1
	for i, e := range r.epochs {
		if e.completions > 0 || e.depthN > 0 || e.busy > 0 {
			last = i
		}
	}
	tl := Timeline{EpochNanos: r.epochNanos}
	if last < 0 {
		return tl
	}
	tl.Epochs = make([]EpochStats, last+1)
	for i := 0; i <= last; i++ {
		e := r.epochs[i]
		es := EpochStats{
			StartNanos:     float64(i) * r.epochNanos,
			EndNanos:       float64(i+1) * r.epochNanos,
			Completions:    e.completions,
			ThroughputMRPS: float64(e.completions) / r.epochNanos * 1000,
			Latency:        e.lat.Summarize(),
			Wait:           e.wait.Summarize(),
			MaxDepth:       e.depthMax,
		}
		if e.depthN > 0 {
			es.MeanDepth = float64(e.depthSum) / float64(e.depthN)
		}
		if r.cfg.Servers > 0 {
			es.Utilization = e.busy.Nanos() / (r.epochNanos * float64(r.cfg.Servers))
		}
		tl.Epochs[i] = es
	}
	return tl
}

// EpochIndex returns the index of the epoch containing time ns, clamped to
// the timeline's bounds (-1 when the timeline is empty).
func (t Timeline) EpochIndex(ns float64) int {
	if len(t.Epochs) == 0 || t.EpochNanos <= 0 {
		return -1
	}
	i := int(ns / t.EpochNanos)
	if i < 0 {
		i = 0
	}
	if i >= len(t.Epochs) {
		i = len(t.Epochs) - 1
	}
	return i
}

// P99s extracts each epoch's p99 latency (0 for empty epochs), a convenient
// series for transient-recovery analysis and sparkline rendering.
func (t Timeline) P99s() []float64 {
	out := make([]float64, len(t.Epochs))
	for i, e := range t.Epochs {
		out[i] = e.Latency.P99
	}
	return out
}
