// Package live executes the machine model's dispatch plans with real
// goroutines on wall-clock time — the reproduction's first step from
// simulation toward the ROADMAP's production-scale serving system, and the
// same methodological move nanoPU and Dagger make when they back the
// single-queue-versus-partitioned argument with measured hardware.
//
// A plan runs on one of two paths:
//
//   - Shared: one Go channel all workers pull from, for the nil plan, "sw"
//     and a plain "1x16" — the work-conserving single-queue ideal. (A Go
//     channel is a lock-guarded shared queue, so the software/MCS variant
//     collapses onto it too.)
//   - Dispatch: every other plan runs through its own ni.Dispatchers, built
//     by machine.Dispatchers on a machine with one core per worker, under
//     one lock — the serialisation point the NI's dispatch stage is. The
//     generator enqueues each arrival (an RSS hash of its ID picks the
//     group when there are several), each worker completes under the lock
//     after serving, and every dispatch a call returns is sent to the
//     chosen worker's channel. jbsqN, 4x4, 16x1 (groups of one worker) and
//     any plan policy are the simulator's dispatch decisions on real threads.
//
// Service times are synthesized from internal/workload profiles exactly as
// the simulator samples them (same distributions, deterministic rng streams)
// and emulated either as calibrated spin-work (when the host has cores to
// spare) or as timer sleeps (when workers would oversubscribe the CPUs and
// spinning would corrupt the measurement — see DESIGN.md §6). An open-loop
// generator paces arrivals on the wall clock; latency is measured from each
// request's *scheduled* arrival instant, so generator lateness counts against
// the system rather than being silently absorbed (no coordinated omission).
//
// Results flow through the same stats/metrics shapes the simulator uses:
// stats.Summary for the headline percentiles and a metrics.Timeline for the
// epoch-sliced view. Wall-clock runs are NOT deterministic — the offered
// schedule (arrival gaps, classes, service draws) is reproducible from the
// seed, but latencies carry scheduler, timer, and frequency noise. What
// survives that noise is the paper's ordering claims, which the "live"
// figure in internal/core checks; calibrated magnitudes stay the simulator's
// job.
package live

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"rpcvalet/internal/arrival"
	"rpcvalet/internal/fifo"
	"rpcvalet/internal/machine"
	"rpcvalet/internal/metrics"
	"rpcvalet/internal/ni"
	"rpcvalet/internal/obs"
	"rpcvalet/internal/rng"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/stats"
	"rpcvalet/internal/trace"
	"rpcvalet/internal/workload"
)

// Emulation selects how a sampled service time occupies a worker.
type Emulation int

const (
	// EmulationAuto picks spin when the host has at least two cores beyond
	// the worker count (the generator and the Go runtime need to breathe),
	// else sleep.
	EmulationAuto Emulation = iota
	// EmulationSpin burns calibrated busy-work — the real-hardware mode:
	// service genuinely occupies a CPU, contention and all.
	EmulationSpin
	// EmulationSleep parks the goroutine on a timer. Queueing dynamics stay
	// real wall-clock while service consumes no CPU, which is the only
	// honest option when workers outnumber cores: spinning workers would
	// starve each other, measuring the Go scheduler instead of the queues.
	EmulationSleep
)

func (e Emulation) String() string {
	switch e {
	case EmulationAuto:
		return "auto"
	case EmulationSpin:
		return "spin"
	case EmulationSleep:
		return "sleep"
	}
	return fmt.Sprintf("emulation(%d)", int(e))
}

// ParseEmulation reads an -emulation flag value.
func ParseEmulation(s string) (Emulation, error) {
	switch s {
	case "auto", "":
		return EmulationAuto, nil
	case "spin":
		return EmulationSpin, nil
	case "sleep":
		return EmulationSleep, nil
	}
	return 0, fmt.Errorf("live: unknown emulation %q (want auto, spin, or sleep)", s)
}

// DefaultWorkers is the default serving-goroutine count: enough queues to
// make the partitioned pathology visible, small enough to spin on commodity
// multicores.
const DefaultWorkers = 8

// Target mean service times per emulation, ns: comfortably above each mode's
// noise floor (≈1 µs of channel+scheduler cost for spin; tens of µs of timer
// slack for sleep). RecommendedScale lifts profiles up to these.
const (
	SpinTargetServiceNanos  = 12_000
	SleepTargetServiceNanos = 300_000
)

// RecommendedScale returns a service-time multiplier lifting the profile's
// mean service to the emulation's target, or 1 when it is already there.
// Scaling preserves the distribution's shape (every draw is multiplied), so
// the balancing comparison is unchanged — only the noise floor moves.
func RecommendedScale(e Emulation, workers int, wl workload.Profile) float64 {
	target := float64(SpinTargetServiceNanos)
	if resolveEmulation(e, workers) == EmulationSleep {
		target = SleepTargetServiceNanos
	}
	m := wl.MeanService()
	if m <= 0 || m >= target {
		return 1
	}
	return target / m
}

func resolveEmulation(e Emulation, workers int) Emulation {
	if e != EmulationAuto {
		return e
	}
	if runtime.NumCPU() >= workers+2 {
		return EmulationSpin
	}
	return EmulationSleep
}

// Config describes one live run.
type Config struct {
	// Plan selects the dispatch plan, in the full ParsePlan grammar. Nil,
	// "sw" and a plain "1x16" run on the shared channel; every other plan
	// runs through its ni.Dispatchers on a machine of Workers cores, so
	// "4x4" is one dispatcher per NI backend (4 groups of 2 at 8 workers)
	// and a literal GxM grouping must split Workers.
	Plan *machine.Plan

	Workload workload.Profile

	// Workers is the serving-goroutine count (0 = DefaultWorkers). It plays
	// the role of Params.Cores: each worker is one dispatcher core.
	Workers int

	// RateMRPS is the open-loop offered rate of the Poisson arrival stream,
	// in millions of requests per second of wall-clock time. CapacityMRPS
	// estimates saturation.
	RateMRPS float64

	// Duration is how long the generator offers load. Workers then drain
	// the backlog, so a run can outlive Duration under overload. The summary
	// statistics skip its first 10% as warmup; the timeline, at the metrics
	// defaults, covers the whole run.
	Duration time.Duration

	Seed uint64

	// ServiceScale multiplies every sampled service time. 0 picks
	// RecommendedScale for the resolved emulation; set 1 explicitly to run
	// the profile's nanosecond-scale times as-is (spin mode only makes
	// sense there, and even then channel costs rival service).
	ServiceScale float64

	// Emulation selects spin-work or timer-sleep service (default auto).
	Emulation Emulation

	// Trace, when non-nil, receives every completed request's wall-clock
	// lifecycle events (arrive/start/complete; the live runtime has no
	// dispatch timestamp), keyed by sequence number, with the serving
	// worker as Core. The events are replayed after the run from the
	// per-worker completion buffers the runtime already keeps, so the
	// serving path records nothing extra — tracing costs the hot path
	// nothing beyond one integer field per completion record. Timestamps
	// are nanoseconds since run start on the sim.Time axis.
	Trace trace.Recorder

	// Obs, when non-nil, streams run progress into the observability
	// instrument set (internal/obs) *while the run is in flight*: the
	// generator counts offered/dropped arrivals, workers count
	// completions and observe latency histograms. Updates are atomic;
	// leave nil to keep the serving path free of them.
	Obs *obs.RunMetrics
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return DefaultWorkers
	}
	return c.Workers
}

// queueCap bounds the backlog: the shared channel holds at most queueCap
// requests, and the dispatch path accepts at most queueCap not yet
// completed. The generator never blocks: arrivals beyond the cap are
// counted as dropped, keeping the loop open under deep overload. A variable
// only so a test can shrink it.
var queueCap = 1 << 15

// dispatchCall is one dispatcher call the dispatch path made under its
// lock: an Enqueue of request seq to group (worker -1) or a Complete by
// worker, with the dispatch the call returned.
type dispatchCall struct {
	group, worker int
	seq           uint64
	d             ni.Dispatch
	ok            bool
}

// onDispatch, when set, sees every dispatchCall in lock order along with
// the run's dispatchers. A variable only so a test can log the calls and
// replay them.
var onDispatch func([]*ni.Dispatcher, dispatchCall)

// CapacityMRPS estimates the live configuration's saturation throughput:
// workers / scaled mean service. Dispatch overhead (≈1 µs/req of channel and
// scheduling cost) is not modeled; stay below ~0.8 of this estimate.
func CapacityMRPS(cfg Config) float64 {
	scale := cfg.ServiceScale
	if scale <= 0 {
		scale = RecommendedScale(cfg.Emulation, cfg.workers(), cfg.Workload)
	}
	m := cfg.Workload.MeanService() * scale
	if m <= 0 {
		return 0
	}
	return float64(cfg.workers()) / m * 1000
}

// Result is the measured outcome of one live run, in the same shapes the
// simulator's results use (stats.Summary, metrics.Timeline).
type Result struct {
	Plan         string
	Shape        string // "shared" or "dispatch"
	Workload     string
	Workers      int
	Emulation    string
	ServiceScale float64
	SpinsPerNs   float64 // calibrated spin rate (0 in sleep mode)
	RateMRPS     float64 // offered

	Offered   int // arrivals the generator released
	Completed int
	Dropped   int // arrivals shed at the queue cap (overload guard)

	ThroughputMRPS float64       // completions over the measurement window
	Latency        stats.Summary // end-to-end wall-clock latency, measured classes, ns
	Wait           stats.Summary // scheduled-arrival → service-start, ns
	ClassLatency   map[string]stats.Summary

	ServiceMeanNanos float64 // measured wall-clock occupancy per request
	TargetSvcNanos   float64 // scaled profile mean — the emulation's target
	SLONanos         float64
	MeetsSLO         bool

	DurationNanos float64 // configured offered-load window
	ElapsedNanos  float64 // wall time until the backlog drained

	Timeline metrics.Timeline
}

func (r Result) String() string {
	return fmt.Sprintf("live %s/%s ×%d (%s) @%.3fMRPS: thr=%.3fMRPS p50=%.0fns p99=%.0fns done=%d/%d drop=%d",
		r.Shape, r.Workload, r.Workers, r.Emulation, r.RateMRPS,
		r.ThroughputMRPS, r.Latency.P50, r.Latency.P99, r.Completed, r.Offered, r.Dropped)
}

// task is one live RPC: its deterministic pre-sampled identity plus the
// scheduled arrival instant.
type task struct {
	seq      uint64
	class    int
	svcNanos float64
	arrived  time.Time // scheduled release (open-loop clock)
}

// rec is one completion, recorded contention-free in a per-worker buffer and
// merged into the metrics.Recorder after the run. seq identifies the request
// so post-run span assembly (tail capture, sampled tracing) can attribute
// it.
type rec struct {
	atNs   float64 // completion time since run start
	latNs  float64
	waitNs float64
	svcNs  float64
	class  int
	seq    uint64
}

// Validate reports whether Run would accept the config; the CLIs call it
// before their first run.
func (c Config) Validate() error {
	_, err := c.validate()
	return err
}

// validate checks the config and builds the plan's dispatchers: none on
// the shared path.
func (c Config) validate() ([]*ni.Dispatcher, error) {
	if err := c.Workload.Validate(); err != nil {
		return nil, err
	}
	if !(c.RateMRPS > 0) {
		return nil, fmt.Errorf("live: rate %v MRPS must be positive", c.RateMRPS)
	}
	if c.Duration <= 0 {
		return nil, fmt.Errorf("live: duration %v must be positive", c.Duration)
	}
	if c.ServiceScale < 0 {
		return nil, fmt.Errorf("live: negative service scale %v", c.ServiceScale)
	}
	// Every plan must build the machine of c.workers() cores, so a literal
	// GxM needs G×M workers, even where the shared channel serves it.
	p := machine.Defaults()
	p.Cores = c.workers()
	p.Plan = c.Plan
	ds, err := machine.Dispatchers(p, c.Seed)
	if err != nil {
		return nil, fmt.Errorf("live: plan %s at %d workers: %w", c.Plan.Name, p.Cores, err)
	}
	// The shared channel serves nil, the software queue, and one group
	// under the default threshold and policy.
	if pl := c.Plan; pl == nil || pl.Software ||
		(pl.Groups == 0 || pl.Groups == 1) && pl.Threshold == 0 && pl.Policy.New == nil {
		return nil, nil
	}
	return ds, nil
}

// Run executes one live configuration: it spins up the workers, offers
// load for cfg.Duration, drains the backlog, and assembles the Result. The
// goroutines it creates are joined before it returns.
func Run(cfg Config) (Result, error) {
	ds, err := cfg.validate()
	if err != nil {
		return Result{}, err
	}
	workers := cfg.workers()
	em := resolveEmulation(cfg.Emulation, workers)
	scale := cfg.ServiceScale
	if scale <= 0 {
		scale = RecommendedScale(cfg.Emulation, workers, cfg.Workload)
	}
	spinsNs := 0.0
	if em == EmulationSpin {
		spinsNs = calibrateSpin()
	}

	// Deterministic offered schedule: independent streams per component,
	// mirroring machine.build's split order of intent (arrivals, class,
	// service).
	root := rng.New(cfg.Seed)
	arrRNG, classRNG, svcRNG := root.Split(), root.Split(), root.Split()
	arr := arrival.PoissonAtMRPS(cfg.RateMRPS)

	bufs := make([][]rec, workers)
	for w := range bufs {
		bufs[w] = make([]rec, 0, 1024)
	}
	start := time.Now()

	serve := func(t *task, sink *uint64) rec {
		svcStart := time.Now()
		switch em {
		case EmulationSpin:
			*sink ^= spinRounds(int64(t.svcNanos*spinsNs), t.seq+1)
		default:
			time.Sleep(time.Duration(t.svcNanos))
		}
		end := time.Now()
		r := rec{
			atNs:   float64(end.Sub(start).Nanoseconds()),
			latNs:  float64(end.Sub(t.arrived).Nanoseconds()),
			waitNs: float64(svcStart.Sub(t.arrived).Nanoseconds()),
			svcNs:  float64(end.Sub(svcStart).Nanoseconds()),
			class:  t.class,
			seq:    t.seq,
		}
		if cfg.Obs != nil {
			cfg.Obs.OnCompleted(r.latNs, r.waitNs)
		}
		return r
	}

	// Wire the path: queues[w] is what worker w serves, enqueue() routes one
	// task (reporting acceptance), finish() closes the intake, and
	// complete(w), on the dispatch path, reports a served request.
	queues := make([]chan *task, workers)
	var enqueue func(*task) bool
	var finish func()
	var complete func(w int)
	shape := "shared"
	if ds == nil {
		q := make(chan *task, queueCap)
		for w := range queues {
			queues[w] = q
		}
		enqueue = func(t *task) bool {
			select {
			case q <- t:
				return true
			default:
				return false
			}
		}
		finish = func() { close(q) }
	} else {
		shape = "dispatch"
		enqueue, finish, complete = dispatchPath(ds, queues)
	}

	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sink uint64
			for t := range queues[w] {
				bufs[w] = append(bufs[w], serve(t, &sink))
				if complete != nil {
					complete(w)
				}
			}
			spinSink.Add(sink)
		}()
	}

	// Open-loop generator: pace the deterministic schedule on the wall
	// clock. Arrivals are stamped with their *scheduled* instant, so if the
	// generator falls behind, the lateness shows up as measured latency
	// instead of quietly stretching the offered rate.
	offered, dropped := 0, 0
	deadline := start.Add(cfg.Duration)
	next := start
	var seq uint64
	for {
		gap := arr.Next(arrRNG)
		next = next.Add(time.Duration(gap.Nanos()))
		if next.After(deadline) {
			break
		}
		class := cfg.Workload.PickClass(classRNG)
		t := &task{
			seq:      seq,
			class:    class,
			svcNanos: cfg.Workload.Classes[class].Service.Sample(svcRNG) * scale,
			arrived:  next,
		}
		seq++
		waitUntil(next)
		offered++ // accepted + dropped: every release the open loop made
		if cfg.Obs != nil {
			cfg.Obs.OnOffered()
		}
		if !enqueue(t) {
			dropped++
			if cfg.Obs != nil {
				cfg.Obs.OnDropped()
			}
		}
	}
	finish()
	wg.Wait()
	elapsed := time.Since(start)

	return assemble(cfg, shape, em, scale, spinsNs, offered, dropped, elapsed, bufs), nil
}

// dispatchPath runs the plan's dispatchers on real threads, behind one
// mutex: the serialisation point the NI's dispatch stage is. It makes each
// worker's queue and returns the path's enqueue, finish and complete.
// Every send happens under the lock and never blocks: a dispatcher keeps
// at most its threshold outstanding on a worker, and the path at most
// queueCap, so each queue is sized to the smaller.
func dispatchPath(ds []*ni.Dispatcher, queues []chan *task) (enqueue func(*task) bool, finish func(), complete func(int)) {
	var mu sync.Mutex
	// inflight counts the requests accepted and not yet completed, plus one
	// while the intake is open, so it reaches 0 once, when the queues close.
	inflight := 1
	release := func() {
		if inflight--; inflight == 0 {
			for _, q := range queues {
				close(q)
			}
		}
	}
	// pending mirrors each dispatcher's shared CQ with the tasks its
	// messages stand for: a dispatcher always dispatches its CQ head.
	pending := make([]fifo.Queue[*task], len(ds))
	per := len(queues) / len(ds)
	for w := range queues {
		queues[w] = make(chan *task, min(ds[w/per].Threshold(), queueCap))
	}
	call := func(c dispatchCall) {
		if onDispatch != nil {
			onDispatch(ds, c)
		}
		if !c.ok {
			return
		}
		t, _ := pending[c.group].Pop()
		if t == nil || t.seq != c.d.Msg.Tag {
			panic(fmt.Sprintf("live: dispatcher %d dispatched request %d out of its CQ order", c.group, c.d.Msg.Tag))
		}
		queues[c.d.Core] <- t
	}
	enqueue = func(t *task) bool {
		mu.Lock()
		defer mu.Unlock()
		if inflight > queueCap {
			return false
		}
		inflight++
		g := ni.RSSQueue(t.seq, len(ds))
		pending[g].Push(t)
		d, ok := ds[g].Enqueue(ni.Msg{Tag: t.seq})
		call(dispatchCall{group: g, worker: -1, seq: t.seq, d: d, ok: ok})
		return true
	}
	finish = func() {
		mu.Lock()
		defer mu.Unlock()
		release()
	}
	complete = func(w int) {
		mu.Lock()
		defer mu.Unlock()
		d, ok := ds[w/per].Complete(w)
		call(dispatchCall{group: w / per, worker: w, d: d, ok: ok})
		release()
	}
	return enqueue, finish, complete
}

// at converts a wall-clock offset in nanoseconds since run start to the
// recorder's virtual-time axis.
func at(ns float64) sim.Time { return sim.Time(sim.FromNanos(ns)) }

// assemble merges the per-worker completion buffers through a
// metrics.Recorder — the same measurement layer the simulators use — and
// builds the Result.
func assemble(cfg Config, shape string, em Emulation, scale, spinsNs float64,
	offered, dropped int, elapsed time.Duration, bufs [][]rec) Result {

	workers := cfg.workers()
	classes := make([]string, len(cfg.Workload.Classes))
	for i, cl := range cfg.Workload.Classes {
		classes[i] = cl.Name
	}
	recorder := metrics.NewRecorder(metrics.Config{Classes: classes, Servers: workers})

	// Interleave the buffers into completion order: the recorder takes
	// observations in nondecreasing time, as a simulation makes them.
	type wrec struct {
		rec
		worker int
	}
	all := make([]wrec, 0, offered)
	for w, buf := range bufs {
		for _, r := range buf {
			all = append(all, wrec{r, w})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].atNs < all[j].atNs })

	// The window opens in event order, exactly as the simulators do it: the
	// window is the range of the recorder's log from OpenWindow on, so
	// opening before the replay would let every pre-warmup completion
	// contaminate it.
	winStart := float64((cfg.Duration / 10).Nanoseconds())
	winEnd := winStart
	inWindow := 0
	opened := false
	for _, r := range all {
		t := at(r.atNs)
		if r.atNs >= winStart {
			if !opened {
				recorder.OpenWindow(at(winStart))
				opened = true
			}
			inWindow++
			winEnd = r.atNs
		}
		recorder.Busy(t, r.worker, sim.FromNanos(r.svcNs))
		recorder.Complete(t, metrics.Completion{
			Class:     r.class,
			Measured:  cfg.Workload.Classes[r.class].Measured,
			LatencyNs: r.latNs,
			WaitNs:    r.waitNs,
			ServiceNs: r.svcNs,
			Depth:     -1,
		})
	}
	recorder.CloseWindow(at(winEnd))

	if cfg.Trace != nil {
		// Replay every request's lifecycle in completion order: arrive =
		// complete − latency, start = arrive + wait. This is the post-run
		// export pass; the serving path never sees it.
		for _, r := range all {
			arriveNs := r.atNs - r.latNs
			cfg.Trace.Record(trace.Event{ReqID: r.seq, Phase: trace.PhaseArrive, At: at(arriveNs), Core: -1, Depth: -1})
			cfg.Trace.Record(trace.Event{ReqID: r.seq, Phase: trace.PhaseStart, At: at(arriveNs + r.waitNs), Core: r.worker, Depth: -1})
			cfg.Trace.Record(trace.Event{ReqID: r.seq, Phase: trace.PhaseComplete, At: at(r.atNs), Core: r.worker, Depth: -1})
		}
	}

	planName := shape
	if cfg.Plan != nil && cfg.Plan.Name != "" {
		planName = cfg.Plan.Name
	}

	res := Result{
		Plan:         planName,
		Shape:        shape,
		Workload:     cfg.Workload.Name,
		Workers:      workers,
		Emulation:    em.String(),
		ServiceScale: scale,
		SpinsPerNs:   spinsNs,
		RateMRPS:     cfg.RateMRPS,
		Offered:      offered,
		Completed:    len(all),
		Dropped:      dropped,
		Latency:      recorder.Latency(),
		Wait:         recorder.Wait(),
		ClassLatency: make(map[string]stats.Summary, len(classes)),

		ServiceMeanNanos: recorder.ServiceMean(),
		TargetSvcNanos:   cfg.Workload.MeanService() * scale,
		DurationNanos:    float64(cfg.Duration.Nanoseconds()),
		ElapsedNanos:     float64(elapsed.Nanoseconds()),
		Timeline:         recorder.Timeline(),
	}
	for i, name := range classes {
		res.ClassLatency[name] = recorder.Class(i)
	}
	if span := winEnd - winStart; span > 0 && inWindow > 1 {
		res.ThroughputMRPS = float64(inWindow) / span * 1000
	}
	if cfg.Workload.SLONanos > 0 {
		res.SLONanos = cfg.Workload.SLONanos * scale
	} else {
		res.SLONanos = cfg.Workload.SLOFactor * res.ServiceMeanNanos
	}
	res.MeetsSLO = res.Latency.Count > 0 && res.Latency.P99 <= res.SLONanos
	return res
}
