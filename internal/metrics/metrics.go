// Package metrics is the measurement layer shared by every simulator in the
// repository: the machine model (internal/machine), the rack-scale cluster
// (internal/cluster) and the live runtime (internal/live) all record
// through a Recorder instead of keeping ad-hoc sample fields.
//
// A Recorder keeps one chronological run log per observed quantity — the
// latency of each completion and its pre-service wait, warmup included —
// and reads two views out of it:
//
//   - Summary statistics over the measurement window (warmup excluded):
//     the headline latency, per-class latencies, pre-service wait, mean
//     per-request service occupancy, and per-server busy time. The window
//     is the range of the log between OpenWindow and CloseWindow; its
//     summaries filter and add that range in log order, exactly as the
//     collectors the simulators historically kept inline, so every result
//     field is byte-identical to theirs.
//
//   - An epoch-sliced timeline over the whole run: virtual time is cut into
//     fixed-length epochs, and each epoch is a contiguous range of the log
//     plus its running latency and wait sums (and sums of squares),
//     completion count, queue-depth observations and busy time; an
//     epoch's count, min, max and percentiles are read off its range. The
//     timeline is what makes transients visible — a load step, a burst, a
//     degraded node — which a single steady-state window averages away.
//
// An epoch is a contiguous range only because completions arrive in time
// order: Complete panics on a time earlier than one already seen. Busy
// spans arrive per server in start order and may start ahead of the latest
// completion; each is booked lazily, split at epoch edges, when its
// server's next span starts after it or at a Settle, and only up to a time
// the caller has reached, so booking never runs ahead of a later
// completion.
// The slice count is bounded: when a run outgrows MaxEpochs slices, the
// epoch length doubles and adjacent epochs merge pairwise — their sums add
// as stats.Moments.Merge adds them and every other range boundary is
// dropped, so a doubling copies no observation. Each observation is stored
// once, in the log; a summary selects its percentiles over a scratch copy,
// so the log is never reordered and Timeline may be called at any time.
// Timeline summarizes on each call, over scratch of its own, and writes
// nothing to the Recorder: once recording has stopped and busy time is
// settled, any number of goroutines may call it at once. The simulators
// keep a finished run's Recorder in its Result and summarize its epochs
// only when a caller asks. The whole layer is deterministic — it consumes
// no randomness and allocates no state that depends on wall-clock time —
// so identical simulations produce identical Timelines.
package metrics

import (
	"fmt"
	"math"
	"sync/atomic"

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

// firstEpochs is the epoch slice's first capacity. A node of a large
// cluster built and run for a few µs touches three epochs; one
// slice of four costs less than growing through one and two.
const firstEpochs = 4

// Config sizes a Recorder.
type Config struct {
	// Classes names the request classes Class summarizes (may be empty).
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
	// Expect pre-sizes the run log for a run expected to record about this
	// many completions, warmup included, so steady-state recording never
	// grows a slice. Zero leaves the log growing on demand; past MaxPresize
	// the log presizes MaxPresize entries and grows by append beyond them.
	// The wait log is presized at its first wait, so an owner that records
	// none allocates none.
	Expect int
}

// MaxPresize caps the run log a Recorder presizes: 4M entries, 80 MiB across
// its three logs, where a run asking for 1e10 completions would otherwise
// reserve about 200 GB before its first event.
const MaxPresize = 1 << 22

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

// epoch is one timeline slice: where its entries start in each log, and
// its accumulators. Its entries end where the next epoch's start. Of its
// latency and wait moments it keeps only the sums: they are the moments
// that depend on the order observations are added and merged in, while
// count, min and max are read off the range.
type epoch struct {
	latLo, waitLo   int
	latSum, latSq   float64 // measured latencies
	waitSum, waitSq float64
	completions     int
	depthSum        int64
	depthN          int
	depthMax        int
	busy            sim.Duration
}

// merge folds o, the epoch after e, into e (the epoch-doubling step). The
// sums add as stats.Moments.Merge adds them; adding an empty epoch's zero
// sums changes no bit.
func (e *epoch) merge(o *epoch) {
	e.latSum += o.latSum
	e.latSq += o.latSq
	e.waitSum += o.waitSum
	e.waitSq += o.waitSq
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
	epochs     []epoch
	last       sim.Time // the latest Complete time or booked busy end

	// The run log. lat holds every observed latency that is measured or
	// belongs to a configured class; tag holds each one's class<<1 |
	// measured (class -1 for none). tag stays nil while every entry has
	// the tag plain, which is always so with no classes and, with one,
	// while every entry is a measured completion of it.
	lat     []float64
	tag     []int32
	plain   int32
	wait    []float64 // nil until the first wait, then presized
	presize int       // the logs' first capacity
	scratch []float64 // the copy window summaries select over

	// The summary window: a range of each log, open-ended while inWindow.
	latLo, latHi     int
	waitLo, waitHi   int
	svcSum           float64
	svcN             int
	winStart, winEnd sim.Time
	inWindow         bool

	servers []server // busy time, per serving unit
}

// server is one serving unit's busy time: booked through from, and busy up
// to end, the end of its latest span.
type server struct {
	from, end sim.Time
	booked    sim.Duration
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
		last:       math.MinInt64,
		plain:      -1, // measured, no class
		servers:    make([]server, cfg.Servers),
	}
	for i := range r.servers {
		r.servers[i] = server{from: math.MinInt64, end: math.MinInt64}
	}
	if len(cfg.Classes) == 1 {
		r.plain = 1 // measured, class 0
	}
	r.presize = min(max(cfg.Expect, 0), MaxPresize)
	if r.presize > 0 {
		r.lat = make([]float64, 0, r.presize)
	}
	if len(cfg.Classes) > 1 {
		r.tag = make([]int32, 0, r.presize)
	}
	return r
}

// OpenWindow starts the summary measurement window at time t (after
// warmup). A Recorder has one window: opening it again restarts it.
func (r *Recorder) OpenWindow(t sim.Time) {
	r.winStart = t
	r.inWindow = true
	r.latLo, r.waitLo = len(r.lat), len(r.wait)
	r.svcSum, r.svcN = 0, 0
}

// CloseWindow ends the summary measurement window at time t.
func (r *Recorder) CloseWindow(t sim.Time) {
	r.winEnd = t
	if r.inWindow {
		r.latHi, r.waitHi = len(r.lat), len(r.wait)
	}
	r.inWindow = false
}

// Window returns the summary window's bounds (zero until opened/closed).
func (r *Recorder) Window() (start, end sim.Time) { return r.winStart, r.winEnd }

// epochAt returns the index of the slice covering time t, doubling the
// epoch length (and pairwise-merging existing slices) whenever t falls
// beyond MaxEpochs.
func (r *Recorder) epochAt(t sim.Time) int {
	ns := max(t.Nanos(), 0)
	idx := int(ns / r.epochNanos)
	for idx >= r.cfg.MaxEpochs {
		r.double()
		idx = int(ns / r.epochNanos)
	}
	if r.epochs == nil {
		r.epochs = make([]epoch, 0, firstEpochs)
	}
	for len(r.epochs) <= idx {
		r.epochs = append(r.epochs, epoch{latLo: len(r.lat), waitLo: len(r.wait)})
	}
	return idx
}

// double doubles the epoch length and merges adjacent slices pairwise, in
// place: each merged slice keeps its first half's range start.
func (r *Recorder) double() {
	r.epochNanos *= 2
	n := len(r.epochs)
	for i := 0; 2*i < n; i++ {
		e := r.epochs[2*i]
		if 2*i+1 < n {
			e.merge(&r.epochs[2*i+1])
		}
		r.epochs[i] = e
	}
	r.epochs = r.epochs[:(n+1)/2]
}

// Complete records one finished request at virtual time t, which must not
// precede an earlier Complete or the end of booked busy time: it panics
// otherwise, since the slices could then no longer be contiguous log
// ranges. The log and the timeline always record it; the summaries see it
// only if it falls inside the measurement window — the exact gating the
// simulators historically applied inline.
func (r *Recorder) Complete(t sim.Time, c Completion) {
	if t < r.last {
		panic(fmt.Sprintf("metrics: completion at %v precedes an observation at %v; Complete times must not decrease", t, r.last))
	}
	r.last = t
	e := &r.epochs[r.epochAt(t)]
	e.completions++
	if c.LatencyNs >= 0 {
		tag := int32(-2) // no class, unmeasured: it feeds no summary
		if c.Class >= 0 && c.Class < len(r.cfg.Classes) {
			tag = int32(c.Class) << 1
		}
		if c.Measured {
			tag |= 1
			e.latSum += c.LatencyNs
			e.latSq += c.LatencyNs * c.LatencyNs
		}
		if tag != -2 {
			r.logLatency(c.LatencyNs, tag)
		}
	}
	if c.WaitNs >= 0 {
		if r.wait == nil {
			r.wait = make([]float64, 0, r.presize)
		}
		e.waitSum += c.WaitNs
		e.waitSq += c.WaitNs * c.WaitNs
		r.wait = append(r.wait, c.WaitNs)
	}
	if r.inWindow && c.ServiceNs >= 0 {
		r.svcSum += c.ServiceNs
		r.svcN++
	}
	if c.Depth >= 0 {
		e.depthSum += int64(c.Depth)
		e.depthN++
		if c.Depth > e.depthMax {
			e.depthMax = c.Depth
		}
	}
}

// logLatency appends one latency and its tag to the log, building the tag
// column the first time a tag is not plain.
func (r *Recorder) logLatency(v float64, tag int32) {
	if r.tag == nil && tag != r.plain {
		r.tag = make([]int32, len(r.lat), cap(r.lat))
		for i := range r.tag {
			r.tag[i] = r.plain
		}
	}
	if r.tag != nil {
		r.tag = append(r.tag, tag)
	}
	r.lat = append(r.lat, v)
}

// Busy records that serving unit server is busy over [t, t+d). A server's
// spans arrive in start order and may start ahead of the latest Complete,
// but a span that starts after the server's previous one ended arrives
// only once the caller's clock has passed that end: the previous span is
// booked then, split at epoch edges. A span that overlaps or adjoins the
// previous one extends it, so overlapping time is booked once; the rest
// waits for the next such span or a Settle.
func (r *Recorder) Busy(t sim.Time, server int, d sim.Duration) {
	s := &r.servers[server]
	if t > s.end {
		r.book(s, s.end)
		s.from = t
	}
	s.end = max(s.end, t.Add(d))
}

// Settle books every server's busy time through now. A caller settles
// before it reads busy time, at a time no later Complete precedes.
func (r *Recorder) Settle(now sim.Time) {
	for i := range r.servers {
		s := &r.servers[i]
		r.book(s, min(s.end, now))
	}
}

// book books s's busy time from s.from up to to, split at epoch edges.
// An edge is recomputed on each step, since booking may double the epoch
// length, and kept past s.from, since an edge rounds to the picosecond.
func (r *Recorder) book(s *server, to sim.Time) {
	if s.from >= to {
		return
	}
	r.last = max(r.last, to)
	for s.from < to {
		i := r.epochAt(s.from)
		edge := sim.Time(sim.FromNanos(float64(i+1) * r.epochNanos))
		edge = min(max(edge, s.from+1), to)
		r.epochs[i].busy += edge.Sub(s.from)
		s.booked += edge.Sub(s.from)
		s.from = edge
	}
}

// BusyTotal reports the busy time booked for one serving unit.
func (r *Recorder) BusyTotal(server int) sim.Duration {
	if server < 0 || server >= len(r.servers) {
		return 0
	}
	return r.servers[server].booked
}

// collect copies into *scratch the entries of log[lo:hi] whose latency tag
// passes keep (every entry when keep is nil), and adds their moments in log
// order.
func (r *Recorder) collect(scratch *[]float64, log []float64, lo, hi int, keep func(tag int32) bool) ([]float64, stats.Moments) {
	if cap(*scratch) < hi-lo {
		*scratch = make([]float64, 0, hi-lo)
	}
	v := (*scratch)[:0]
	var m stats.Moments
	for i := lo; i < hi; i++ {
		if keep == nil || keep(r.tagAt(i)) {
			m.Add(log[i])
			v = append(v, log[i])
		}
	}
	return v, m
}

// tagAt returns latency entry i's tag.
func (r *Recorder) tagAt(i int) int32 {
	if r.tag == nil {
		return r.plain
	}
	return r.tag[i]
}

func measured(tag int32) bool { return tag&1 == 1 }

// windowSummary summarizes the entries of log that the measurement window
// holds: from lo to hi, or to the log's end while the window is open.
func (r *Recorder) windowSummary(log []float64, lo, hi int, keep func(tag int32) bool) stats.Summary {
	if r.inWindow {
		hi = len(log)
	}
	return stats.Summarize(r.collect(&r.scratch, log, lo, hi, keep))
}

// --- Summary accessors ----------------------------------------------------

// Latency summarizes the headline (measured-class) latencies.
func (r *Recorder) Latency() stats.Summary { return r.windowSummary(r.lat, r.latLo, r.latHi, measured) }

// Class summarizes one request class's latencies.
func (r *Recorder) Class(i int) stats.Summary {
	return r.windowSummary(r.lat, r.latLo, r.latHi, func(tag int32) bool { return tag>>1 == int32(i) })
}

// Wait summarizes the pre-service delays.
func (r *Recorder) Wait() stats.Summary { return r.windowSummary(r.wait, r.waitLo, r.waitHi, nil) }

// ServiceMean reports the mean per-request service occupancy (S̄).
func (r *Recorder) ServiceMean() float64 {
	if r.svcN == 0 {
		return 0
	}
	return r.svcSum / float64(r.svcN)
}

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

// summarizedEpochs counts the epochs every Timeline call has summarized,
// so a test can show that a run nobody reads the timeline of summarizes
// none.
var summarizedEpochs atomic.Int64

// Timeline renders the recorder's epoch series. Trailing empty epochs are
// trimmed; interior empty epochs (a stalled system) are kept, zero-valued,
// so indices remain proportional to time. Each call summarizes afresh over
// scratch of its own and writes nothing to r, so calls may run
// concurrently with each other, though not with recording.
func (r *Recorder) Timeline() Timeline {
	last, most := -1, 0 // most: the longest epoch range, the scratch size
	for i := range r.epochs {
		e := &r.epochs[i]
		if e.completions > 0 || e.depthN > 0 || e.busy > 0 {
			last = i
		}
		latHi, waitHi := r.epochEnd(i)
		most = max(most, latHi-e.latLo, waitHi-e.waitLo)
	}
	tl := Timeline{EpochNanos: r.epochNanos}
	if last < 0 {
		return tl
	}
	summarizedEpochs.Add(int64(last + 1))
	tl.Epochs = make([]EpochStats, last+1)
	scratch := make([]float64, 0, most)
	for i := 0; i <= last; i++ {
		e := &r.epochs[i]
		latHi, waitHi := r.epochEnd(i)
		lat, lm := r.collect(&scratch, r.lat, e.latLo, latHi, measured)
		lm.Sum, lm.SumSq = e.latSum, e.latSq
		es := EpochStats{
			StartNanos:     float64(i) * r.epochNanos,
			EndNanos:       float64(i+1) * r.epochNanos,
			Completions:    e.completions,
			ThroughputMRPS: float64(e.completions) / r.epochNanos * 1000,
			Latency:        stats.Summarize(lat, lm),
			MaxDepth:       e.depthMax,
		}
		wait, wm := r.collect(&scratch, r.wait, e.waitLo, waitHi, nil)
		wm.Sum, wm.SumSq = e.waitSum, e.waitSq
		es.Wait = stats.Summarize(wait, wm)
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

// epochEnd returns where epoch i's entries end in the latency and wait logs:
// where the next epoch's start, or at the logs' ends.
func (r *Recorder) epochEnd(i int) (latHi, waitHi int) {
	if i+1 < len(r.epochs) {
		return r.epochs[i+1].latLo, r.epochs[i+1].waitLo
	}
	return len(r.lat), len(r.wait)
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
