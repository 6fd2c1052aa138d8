// Package queueing implements the theoretical queuing models the paper uses
// to frame the load-balancing problem (§2.2) and to bound RPCValet's
// performance (§6.3).
//
// A Model Q×U system has Q FIFO queues with U serving units each; incoming
// requests follow a Poisson process (by default — Config.Arrival swaps in
// any other arrival.Process at the same mean rate) and are assigned to a
// queue uniformly at random (the paper's uni[0,Q-1] stage in Fig 1). Model 1×16 is the ideal
// single-queue system; Model 16×1 is a fully partitioned system with no load
// balancing.
//
// The discrete-event implementation runs on the deterministic engine in
// internal/sim. Closed-form results for M/M/1, M/M/c, and M/G/1 are provided
// for validating the simulator against textbook queueing theory.
package queueing

import (
	"fmt"
	"math"

	"rpcvalet/internal/arrival"
	"rpcvalet/internal/dist"
	"rpcvalet/internal/fifo"
	"rpcvalet/internal/metrics"
	"rpcvalet/internal/rng"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/stats"
)

// Config describes one queueing-model simulation.
type Config struct {
	Queues          int          // Q: number of FIFO input queues
	ServersPerQueue int          // U: serving units per queue
	Service         dist.Sampler // service time distribution, in ns
	Load            float64      // offered load ρ = λ·E[S]/(Q·U), in (0,1)
	// Arrival, when non-nil, selects the shape of the arrival stream; it
	// is re-rated to the λ that Load implies, so Load keeps its meaning
	// for every traffic model. Nil means Poisson (M/·/· arrivals) — the
	// historical behavior, byte-for-byte identical result streams for
	// existing seeds.
	Arrival arrival.Process
	Warmup  int // requests discarded before measuring
	Measure int // requests measured
	Seed    uint64
}

func (c Config) validate() error {
	switch {
	case c.Queues <= 0 || c.ServersPerQueue <= 0:
		return fmt.Errorf("queueing: invalid system %dx%d", c.Queues, c.ServersPerQueue)
	case c.Service == nil:
		return fmt.Errorf("queueing: nil service distribution")
	case !(c.Load > 0) || c.Load >= 1.5:
		return fmt.Errorf("queueing: load %v out of range (0, 1.5)", c.Load)
	case c.Measure <= 0:
		return fmt.Errorf("queueing: Measure must be positive")
	default:
		return nil
	}
}

// Result reports the outcome of a queueing-model run. Latency is the sojourn
// time (waiting + service); Wait is queueing delay only. Units match the
// service distribution's (ns by convention).
type Result struct {
	Config     Config
	Latency    stats.Summary
	Wait       stats.Summary
	Throughput float64 // completions per ns over the measurement window
	MeanSvc    float64 // E[S] of the service distribution used
}

// station is one FIFO queue with U servers.
type station struct {
	idle    int
	waiting fifo.Queue[sim.Time] // arrival times of waiting requests
}

// Run simulates the configured Q×U system and returns its Result. It panics
// only on programmer error (invalid config is returned as an error).
func Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	meanSvc := cfg.Service.Mean()
	if !(meanSvc > 0) || math.IsInf(meanSvc, 1) {
		return Result{}, fmt.Errorf("queueing: service distribution %s has unusable mean %g", cfg.Service, meanSvc)
	}
	totalServers := cfg.Queues * cfg.ServersPerQueue
	lambda := cfg.Load * float64(totalServers) / meanSvc // arrivals per ns

	eng := sim.New()
	root := rng.New(cfg.Seed)
	arrivalRNG := root.Split()
	routeRNG := root.Split()
	svcRNG := root.Split()

	stations := make([]*station, cfg.Queues)
	for i := range stations {
		stations[i] = &station{idle: cfg.ServersPerQueue}
	}

	completed := 0
	target := cfg.Warmup + cfg.Measure
	rec := metrics.NewRecorder(metrics.Config{})
	arr := arrival.ResolvePerNs(cfg.Arrival, lambda)

	var startService func(st *station, arrived sim.Time)
	startService = func(st *station, arrived sim.Time) {
		st.idle--
		began := eng.Now()
		svc := sim.FromNanos(cfg.Service.Sample(svcRNG))
		eng.Schedule(svc, func() {
			completed++
			if completed > cfg.Warmup && completed <= target && completed == cfg.Warmup+1 {
				rec.OpenWindow(eng.Now())
			}
			rec.Complete(eng.Now(), metrics.Completion{
				Class:     -1,
				Measured:  true,
				LatencyNs: eng.Now().Sub(arrived).Nanos(),
				WaitNs:    began.Sub(arrived).Nanos(),
				ServiceNs: -1,
				Depth:     st.waiting.Len(),
			})
			if completed == target {
				rec.CloseWindow(eng.Now())
				eng.Stop()
			}
			st.idle++
			if next, ok := st.waiting.Pop(); ok {
				startService(st, next)
			}
		})
	}

	var arrive func()
	arrive = func() {
		st := stations[routeRNG.IntN(cfg.Queues)]
		now := eng.Now()
		if st.idle > 0 {
			startService(st, now)
		} else {
			st.waiting.Push(now)
		}
		eng.Schedule(arr.Next(arrivalRNG), arrive)
	}
	eng.Schedule(arr.Next(arrivalRNG), arrive)
	eng.Run()

	res := Result{
		Config:  cfg,
		Latency: rec.Latency(),
		Wait:    rec.Wait(),
		MeanSvc: meanSvc,
	}
	if start, end := rec.Window(); end > start {
		res.Throughput = float64(cfg.Measure-1) / end.Sub(start).Nanos()
	}
	return res, nil
}

// SplitService builds the §6.3 service-time construction: a fraction of the
// mean (distributedMean) follows the shape of d, and the remainder
// (totalMean − distributedMean) is fixed. This mirrors how the paper makes
// its queueing model comparable to the full-system measurement.
func SplitService(d dist.Sampler, distributedMean, totalMean float64) dist.Sampler {
	if distributedMean <= 0 || distributedMean > totalMean {
		panic(fmt.Sprintf("queueing: SplitService means invalid: D=%g, total=%g", distributedMean, totalMean))
	}
	inner := dist.Scaled{Factor: distributedMean / d.Mean(), Inner: d}
	return dist.Shifted{Base: totalMean - distributedMean, Inner: inner}
}
