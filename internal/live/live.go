// Package live executes the machine model's dispatch shapes with real
// goroutines on wall-clock time — the reproduction's first step from
// simulation toward the ROADMAP's production-scale serving system, and the
// same methodological move nanoPU and Dagger make when they back the
// single-queue-versus-partitioned argument with measured hardware.
//
// Three queue shapes cover the argument:
//
//   - Shared: one MPMC queue all workers pull from — the 1×16 analogue, the
//     work-conserving single-queue ideal. (The software/MCS variant collapses
//     onto this shape too: a Go channel is a lock-guarded shared queue.)
//   - Partitioned: one private queue per worker, each request statically
//     assigned by an RSS-style hash of its ID at arrival — the 16×1 baseline.
//   - JBSQ(n): a dispatcher goroutine pushes from the shared queue to bounded
//     per-worker queues, at most n outstanding per worker, least-outstanding
//     arbitration — the NI dispatch loop of machine.PlanJBSQ, on real threads.
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
	"time"

	"rpcvalet/internal/arrival"
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

// Shape is the concrete queue topology a plan resolves to on the live
// runtime.
type Shape int

const (
	// ShapeShared is the single MPMC queue (1×16 and sw plans).
	ShapeShared Shape = iota
	// ShapePartitioned is per-worker private queues fed by an RSS hash
	// (16×1 plans).
	ShapePartitioned
	// ShapeJBSQ is bounded-outstanding dispatch through a least-outstanding
	// dispatcher goroutine (jbsqN plans).
	ShapeJBSQ
)

func (s Shape) String() string {
	switch s {
	case ShapeShared:
		return "shared"
	case ShapePartitioned:
		return "partitioned"
	case ShapeJBSQ:
		return "jbsq"
	}
	return fmt.Sprintf("shape(%d)", int(s))
}

// Emulation selects how a sampled service time occupies a worker.
type Emulation int

const (
	// EmulationAuto picks spin when the host has at least two cores beyond
	// the worker count (generator + dispatcher need to breathe), else sleep.
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
	// Plan selects the dispatch shape. The live runtime executes the subset
	// of the plan grammar with a faithful goroutine analogue: "1x16"/"single"
	// and "sw" (shared), "16x1"/"partitioned" (per-worker RSS), and "jbsqN"
	// (bounded dispatch). Nil means shared. Grouped (4×4, GxM) plans and
	// explicit NI policies have no live counterpart and are rejected.
	Plan *machine.Plan

	Workload workload.Profile

	// Workers is the serving-goroutine count (0 = DefaultWorkers). It plays
	// the role of Params.Cores: the partitioned shape builds one queue per
	// worker.
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

// queueCap bounds the total queued backlog. The generator never blocks:
// arrivals beyond the cap are counted as dropped, keeping the loop open
// under deep overload. A variable only so a test can shrink it.
var queueCap = 1 << 15

// ShapeForPlan resolves a dispatch plan to a live queue shape and (for JBSQ)
// its per-worker outstanding bound.
func ShapeForPlan(pl *machine.Plan, workers int) (Shape, int, error) {
	if pl == nil {
		return ShapeShared, 0, nil
	}
	if pl.Policy.Name != "" && pl.Policy.Name != "least-outstanding" {
		return 0, 0, fmt.Errorf("live: plan policy %q has no live counterpart (the JBSQ dispatcher is least-outstanding by construction)", pl.Policy.Name)
	}
	if pl.Software {
		// A Go channel is a lock-guarded shared in-memory queue — the
		// software single queue and the hardware-shared shape coincide here.
		return ShapeShared, 0, nil
	}
	switch g := pl.Groups; {
	case g == 0 || g == 1:
		if t := pl.Threshold; t > 0 && t != ni.Unlimited {
			return ShapeJBSQ, t, nil
		}
		return ShapeShared, 0, nil
	case g == machine.GroupsPerCore || g == workers:
		return ShapePartitioned, 0, nil
	default:
		label := pl.Name
		if label == "" {
			label = fmt.Sprintf("%d groups", g)
		}
		return 0, 0, fmt.Errorf("live: grouped plan %q has no live counterpart with %d workers (want shared, partitioned, or jbsqN)", label, workers)
	}
}

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
	Shape        string
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
	_, _, err := c.validate()
	return err
}

func (c Config) validate() (Shape, int, error) {
	if err := c.Workload.Validate(); err != nil {
		return 0, 0, err
	}
	shape, bound, err := ShapeForPlan(c.Plan, c.workers())
	if err != nil {
		return 0, 0, err
	}
	if !(c.RateMRPS > 0) {
		return 0, 0, fmt.Errorf("live: rate %v MRPS must be positive", c.RateMRPS)
	}
	if c.Duration <= 0 {
		return 0, 0, fmt.Errorf("live: duration %v must be positive", c.Duration)
	}
	if c.ServiceScale < 0 {
		return 0, 0, fmt.Errorf("live: negative service scale %v", c.ServiceScale)
	}
	return shape, bound, nil
}

// Run executes one live configuration: it spins up the workers (and, for
// JBSQ, the dispatcher), offers load for cfg.Duration, drains the backlog,
// and assembles the Result. The goroutines it creates are joined before it
// returns.
func Run(cfg Config) (Result, error) {
	shape, bound, err := cfg.validate()
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
	// service, RSS assignment).
	root := rng.New(cfg.Seed)
	arrRNG, classRNG, svcRNG := root.Split(), root.Split(), root.Split()
	arr := arrival.PoissonAtMRPS(cfg.RateMRPS)

	bufs := make([][]rec, workers)
	for w := range bufs {
		bufs[w] = make([]rec, 0, 1024)
	}
	start := time.Now()

	serve := func(w int, t *task, sink *uint64) rec {
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

	// Wire the shape: enqueue() routes one task (reporting acceptance),
	// finish() closes the intake, done joins the serving side.
	var enqueue func(*task) bool
	var finish func()
	done := make(chan struct{})

	worker := func(w int, ch <-chan *task, completions chan<- int) {
		var sink uint64
		for t := range ch {
			bufs[w] = append(bufs[w], serve(w, t, &sink))
			if completions != nil {
				completions <- w
			}
		}
		spinSink.Add(sink)
	}

	switch shape {
	case ShapeShared:
		shared := make(chan *task, queueCap)
		go func() {
			defer close(done)
			var join []chan struct{}
			for w := 0; w < workers; w++ {
				j := make(chan struct{})
				join = append(join, j)
				go func(w int) { defer close(j); worker(w, shared, nil) }(w)
			}
			for _, j := range join {
				<-j
			}
		}()
		enqueue = func(t *task) bool {
			select {
			case shared <- t:
				return true
			default:
				return false
			}
		}
		finish = func() { close(shared) }

	case ShapePartitioned:
		// The cap bounds the *total* backlog, so it splits
		// across the private queues rather than flooring each one.
		per := queueCap / workers
		if per < 1 {
			per = 1
		}
		qs := make([]chan *task, workers)
		for w := range qs {
			qs[w] = make(chan *task, per)
		}
		go func() {
			defer close(done)
			var join []chan struct{}
			for w := 0; w < workers; w++ {
				j := make(chan struct{})
				join = append(join, j)
				go func(w int) { defer close(j); worker(w, qs[w], nil) }(w)
			}
			for _, j := range join {
				<-j
			}
		}()
		enqueue = func(t *task) bool {
			// RSS-style static assignment: a stateless hash of the request
			// ID picks the queue at arrival, load-oblivious — the 16×1
			// baseline's defining property.
			q := qs[ni.RSSQueue(t.seq, workers)]
			select {
			case q <- t:
				return true
			default:
				return false
			}
		}
		finish = func() {
			for _, q := range qs {
				close(q)
			}
		}

	case ShapeJBSQ:
		shared := make(chan *task, queueCap)
		work := make([]chan *task, workers)
		for w := range work {
			work[w] = make(chan *task, bound)
		}
		// completions is sized so a worker's send can never block even if
		// the dispatcher exits first (post-drain replenishes park in the
		// buffer instead).
		completions := make(chan int, workers*bound+1)
		go func() {
			defer close(done)
			var join []chan struct{}
			for w := 0; w < workers; w++ {
				j := make(chan struct{})
				join = append(join, j)
				go func(w int) { defer close(j); worker(w, work[w], completions) }(w)
			}
			// Dispatcher: the ni.Dispatcher loop on real threads — pop the
			// shared CQ head for the least-outstanding worker under the
			// bound, replenish on completion tokens.
			outstanding := make([]int, workers)
			var pending *task
			open := true
			for open || pending != nil {
				if pending == nil {
					select {
					case w := <-completions:
						outstanding[w]--
						continue
					case t, ok := <-shared:
						if !ok {
							open = false
							continue
						}
						pending = t
					}
				}
				best := -1
				for w, o := range outstanding {
					if o < bound && (best < 0 || o < outstanding[best]) {
						best = w
					}
				}
				if best < 0 {
					w := <-completions
					outstanding[w]--
					continue
				}
				work[best] <- pending
				outstanding[best]++
				pending = nil
			}
			for _, q := range work {
				close(q)
			}
			for _, j := range join {
				<-j
			}
		}()
		enqueue = func(t *task) bool {
			select {
			case shared <- t:
				return true
			default:
				return false
			}
		}
		finish = func() { close(shared) }
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
	<-done
	elapsed := time.Since(start)

	return assemble(cfg, shape, bound, em, scale, spinsNs, offered, dropped, elapsed, bufs), nil
}

// at converts a wall-clock offset in nanoseconds since run start to the
// recorder's virtual-time axis.
func at(ns float64) sim.Time { return sim.Time(sim.FromNanos(ns)) }

// assemble merges the per-worker completion buffers through a
// metrics.Recorder — the same measurement layer the simulators use — and
// builds the Result.
func assemble(cfg Config, shape Shape, bound int, em Emulation, scale, spinsNs float64,
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

	planName := shape.String()
	if shape == ShapeJBSQ {
		planName = fmt.Sprintf("jbsq%d", bound)
	}
	if cfg.Plan != nil && cfg.Plan.Name != "" {
		planName = cfg.Plan.Name
	}

	res := Result{
		Plan:         planName,
		Shape:        shape.String(),
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
