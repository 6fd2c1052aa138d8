package main

import (
	"fmt"
	"runtime"
	"time"

	"rpcvalet/internal/cluster"
	"rpcvalet/internal/core"
	"rpcvalet/internal/machine"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/workload"
)

// scale selects run lengths: "full" for measurements, "tiny" to exercise
// every code path in seconds for the tests.
type scale string

const (
	scaleFull scale = "full"
	scaleTiny scale = "tiny"
)

// workloadDef is one benchmark job. Every job builds its simulated system
// from the seed alone, so the same seed gives the same inputs and the same
// simulated results.
type workloadDef struct {
	name string
	why  string
	// setup builds the job's simulated system once and runs no requests
	// (or, where construction cannot be split from outside, one request).
	setup func(sc scale, seed uint64) error
	// run executes the job. A non-nil probes installs the benchmark's
	// counting trace recorder and timing policy wrapper.
	run func(sc scale, seed uint64, p *probes) (outcome, error)
	// ref, when set, is a reference run made in a process of its own after
	// each run. It supplies the sim_mrps, allocs_per_req and model_* that
	// the job cannot expose, and it is what the traced run traces.
	ref func(sc scale, seed uint64, p *probes) (outcome, error)
	// node is the per-node machine template the job builds.
	node func() machine.Config
	// measure is the job's measured completion count per simulated run,
	// the size stats.summarize_ms is timed at.
	measure func(sc scale) int
	// window is the pdes round length of a sharded job, 0 for serial ones.
	window sim.Duration
	// setupProbes is how many setup probes each repeat runs: several
	// where setup takes milliseconds and its median needs samples, one
	// where it takes a second.
	setupProbes int
}

// outcome is what one run of a job reports back: simulated counts and
// latencies, plus the host times a job can only measure from inside.
type outcome struct {
	// Attempted counts the simulated requests asked for or, on
	// figures-quick's run, the paper claims checked; Failed counts requests
	// that did not complete and claims that missed.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Completions counts simulated completions, warmup included, of the
	// run that sim_mrps is taken over.
	Completions int `json:"completions"`
	// SimWallS, when positive, is the host time those completions took
	// with setup excluded, measured in the run itself (figures-quick's
	// reference run). Zero means sim_mrps subtracts the setup probe.
	SimWallS float64 `json:"sim_wall_s,omitempty"`
	// SimMallocs is the heap allocations made over SimWallS.
	SimMallocs uint64 `json:"sim_mallocs,omitempty"`
	Model      model  `json:"model"`
	// WaitP99Ns and MaxQueueDepth are the machine and NI layers' own view
	// (Result.Wait.P99, Result.DispatcherMaxDepth); cluster results do not
	// expose them, so cluster jobs leave them 0.
	WaitP99Ns     float64            `json:"wait_p99_ns"`
	MaxQueueDepth int                `json:"max_queue_depth"`
	FigWallS      map[string]float64 `json:"fig_wall_s,omitempty"`
}

// model is the simulated end-to-end latency of a run, in simulated ns.
// It is exact for a seed: a change that only speeds the simulator up must
// leave it bit-identical.
type model struct {
	P50   float64 `json:"p50_ns"`
	P99   float64 `json:"p99_ns"`
	P999  float64 `json:"p999_ns"`
	Mean  float64 `json:"mean_ns"`
	Count int     `json:"count"`
}

var workloads = []workloadDef{
	{
		name: "node-herd",
		why:  "one 1x16 RPCValet node under HERD at 0.8 of capacity: the per-request hot path alone, with negligible setup, no balancer and no pdes",
		setup: func(sc scale, seed uint64) error {
			_, err := machine.New(herdConfig(seed, nodeHerdSizes(sc)))
			return err
		},
		run:         runNodeHerd,
		node:        func() machine.Config { return herdConfig(0, sizes{}) },
		measure:     func(sc scale) int { return nodeHerdSizes(sc).measure },
		setupProbes: 5,
	},
	{
		name:        "dc-1000-sharded",
		why:         "1000 synthetic-exp nodes as 8 racks of 125 behind a jsqfull global tier, 8 shards: 1.1 GB of setup, two indexed picks per request, the cluster and pdes paths",
		setup:       dcSetup,
		run:         dcRun,
		node:        nodeTemplate,
		measure:     func(sc scale) int { return dcSizes(sc).measure },
		window:      core.HierGlobalHop,
		setupProbes: 1,
	},
	{
		name:        "figures-quick",
		why:         "figures 7a and cluster regenerated at quick options with nproc workers: many short runs each paying setup, and the paper's claims checked",
		setup:       figuresSetup,
		run:         runFigures,
		ref:         runReference,
		node:        func() machine.Config { return herdConfig(0, sizes{}) },
		measure:     func(sc scale) int { return figureOptions(sc, 0).Measure },
		setupProbes: 3,
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

type sizes struct{ warmup, measure int }

// The full sizes make each simulated run one to three host seconds of
// steady state on a 2-core host: long enough that setup is at most about
// a third of a run, short enough that one --seconds window holds many
// repeats. Many short repeats, each scaled by the calibration kernel timed
// around it, spread less than a few long ones on a shared host whose speed
// drifts (README.md).
func nodeHerdSizes(sc scale) sizes {
	if sc == scaleTiny {
		return sizes{200, 2000}
	}
	return sizes{10_000, 240_000}
}

func dcSizes(sc scale) sizes {
	if sc == scaleTiny {
		return sizes{100, 1000}
	}
	return sizes{20_000, 200_000}
}

// herdConfig is the paper's headline node: machine.Defaults() (RPCValet
// 1x16) serving HERD, open-loop Poisson at 0.8 of its capacity.
func herdConfig(seed uint64, sz sizes) machine.Config {
	p := machine.Defaults()
	wl := workload.HERD()
	return machine.Config{
		Params:   p,
		Workload: wl,
		RateMRPS: 0.8 * core.CapacityMRPS(p, wl),
		Warmup:   sz.warmup,
		Measure:  sz.measure,
		Seed:     seed,
	}
}

func runNodeHerd(sc scale, seed uint64, p *probes) (outcome, error) {
	sz := nodeHerdSizes(sc)
	cfg := herdConfig(seed, sz)
	if p != nil {
		cfg.Trace = p.rec
	}
	res, err := machine.Run(cfg)
	if err != nil {
		return outcome{}, err
	}
	return machineOutcome(res, sz), nil
}

func machineOutcome(res machine.Result, sz sizes) outcome {
	want := sz.warmup + sz.measure
	o := outcome{
		Attempted:     want,
		Failed:        want - res.Completed,
		Completions:   res.Completed,
		Model:         modelOf(res.Latency.P50, res.Latency.P99, res.Latency.P999, res.Latency.Mean, res.Latency.Count),
		WaitP99Ns:     res.Wait.P99,
		MaxQueueDepth: res.DispatcherMaxDepth,
	}
	if res.TimedOut && o.Failed == 0 {
		o.Failed = 1
	}
	return o
}

func modelOf(p50, p99, p999, mean float64, n int) model {
	return model{P50: p50, P99: p99, P999: p999, Mean: mean, Count: n}
}

// nodeTemplate is dc-1000-sharded's node: the rack and hier figures'
// synthetic-exp 1x16 machine.
func nodeTemplate() machine.Config {
	p := machine.Defaults()
	p.Mode = machine.ModeSingleQueue
	return machine.Config{Params: p, Workload: workload.SyntheticExp()}
}

// dcConfig is the hier figure's jsqfull x jsqfull cell at its widest, 1000
// nodes, run as shards: 8 racks of 125 behind a jsqfull global balancer,
// 500 ns hops at both tiers, 0.85 of aggregate capacity, one engine per
// rack plus the global tier's. Tiny runs keep the topology at 16 nodes.
func dcConfig(sc scale, seed uint64) (cluster.Config, sizes) {
	sz := dcSizes(sc)
	cfg := cluster.Config{
		Nodes:        1000,
		Node:         nodeTemplate(),
		Policy:       cluster.JSQ{D: cluster.FullScan},
		Hop:          core.ClusterHop,
		Warmup:       sz.warmup,
		Measure:      sz.measure,
		Seed:         seed,
		Racks:        core.HierRacks,
		GlobalPolicy: cluster.JSQ{D: cluster.FullScan},
		GlobalHop:    core.HierGlobalHop,
		Shards:       core.HierRacks,
	}
	if sc == scaleTiny {
		cfg.Nodes = 16
	}
	cfg.RateMRPS = core.HierLoad * core.ClusterCapacityMRPS(cfg)
	// Abort a run that takes ten times its expected simulated span, as the
	// hier figure does; a run that hits it fails its checks.
	cfg.MaxSimTime = sim.FromNanos(10 * float64(cfg.Warmup+cfg.Measure) / cfg.RateMRPS * 1000)
	return cfg, sz
}

// dcSetup builds the cluster by running it to one completion: cluster.Run
// offers no way to build without running.
func dcSetup(sc scale, seed uint64) error {
	cfg, _ := dcConfig(sc, seed)
	cfg.Warmup, cfg.Measure = 0, 1
	res, err := cluster.Run(cfg)
	if err == nil && res.Completed != 1 {
		err = fmt.Errorf("setup probe completed %d requests, want 1", res.Completed)
	}
	return err
}

func dcRun(sc scale, seed uint64, p *probes) (outcome, error) {
	cfg, sz := dcConfig(sc, seed)
	if p != nil {
		cfg.Trace = p.rec
		cfg.Policy = p.wrap(cfg.Policy)
		cfg.GlobalPolicy = p.wrap(cfg.GlobalPolicy)
	}
	res, err := cluster.Run(cfg)
	if err != nil {
		return outcome{}, err
	}
	want := sz.warmup + sz.measure
	o := outcome{
		Attempted:   want,
		Failed:      want - res.Completed,
		Completions: res.Completed,
		Model:       modelOf(res.Latency.P50, res.Latency.P99, res.Latency.P999, res.Latency.Mean, res.Latency.Count),
	}
	if res.TimedOut && o.Failed == 0 {
		o.Failed = 1
	}
	return o, nil
}

// figureIDs are the figures figures-quick regenerates: the paper's HERD
// hardware comparison and the rack-composition study.
var figureIDs = []string{"7a", "cluster"}

// figureOptions is core.QuickOptions with the benchmark's seed and one
// worker per CPU at every scale: quick is the smallest scale the figures'
// claims are stated for.
func figureOptions(_ scale, seed uint64) core.Options {
	o := core.QuickOptions()
	o.Seed = seed
	o.Workers = runtime.NumCPU()
	return o
}

// figuresSetup builds one instance of every system the two figures
// simulate: a HERD machine per hardware mode (7a) and a 4-node cluster of
// each mode (the cluster figure), the latter run to one completion.
func figuresSetup(_ scale, seed uint64) error {
	for _, mode := range []machine.Mode{machine.ModePartitioned, machine.ModeGrouped, machine.ModeSingleQueue} {
		cfg := herdConfig(seed, sizes{0, 1})
		cfg.Params.Mode = mode
		if _, err := machine.New(cfg); err != nil {
			return err
		}
		node := nodeTemplate()
		node.Params.Mode = mode
		ccfg := cluster.Config{Nodes: core.ClusterNodes, Node: node, Policy: cluster.Random{}, Hop: core.ClusterHop, Measure: 1, Seed: seed}
		ccfg.RateMRPS = 0.5 * core.ClusterCapacityMRPS(ccfg)
		if _, err := cluster.Run(ccfg); err != nil {
			return err
		}
	}
	return nil
}

// runReference is figures-quick's reference run: the 7a headline node,
// node-herd's run, with machine.New timed apart from the simulation. The
// figures expose no completion counts or latency percentiles of their own,
// so this run is where figures-quick's sim_mrps, allocs_per_req and
// model_* come from.
func runReference(sc scale, seed uint64, p *probes) (outcome, error) {
	sz := nodeHerdSizes(sc)
	cfg := herdConfig(seed, sz)
	if p != nil {
		cfg.Trace = p.rec
	}
	m, err := machine.New(cfg)
	if err != nil {
		return outcome{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	res, err := m.Run()
	if err != nil {
		return outcome{}, err
	}
	out := machineOutcome(res, sz)
	out.SimWallS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	out.SimMallocs = ms1.Mallocs - ms0.Mallocs
	return out, nil
}

// runFigures regenerates the figures through core.Figures and counts their
// claims.
func runFigures(sc scale, seed uint64, _ *probes) (outcome, error) {
	o := figureOptions(sc, seed)
	out := outcome{FigWallS: map[string]float64{}}
	for _, id := range figureIDs {
		t0 := time.Now()
		fig, err := core.Figures[id](o)
		if err != nil {
			return outcome{}, fmt.Errorf("figure %s: %w", id, err)
		}
		out.FigWallS[id] = time.Since(t0).Seconds()
		for _, c := range fig.Claims {
			out.Attempted++
			if !c.Ok {
				out.Failed++
				fmt.Fprintf(stderr, "figure %s: %s\n", id, c)
			}
		}
	}
	return out, nil
}
