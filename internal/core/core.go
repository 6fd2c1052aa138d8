// Package core is the experiment harness of the reproduction: it drives the
// machine model (internal/machine) and the queueing models
// (internal/queueing) through the paper's evaluation (§2.2, §6), producing
// the data behind every figure as report tables plus pass/fail checks of the
// paper's headline claims.
//
// Each figure has a generator listed in registry; cmd/rpcvalet-bench and
// the repository's bench_test.go both call into this package, so the CLI,
// the benchmarks, and EXPERIMENTS.md all describe the same code paths.
package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"rpcvalet/internal/cluster"
	"rpcvalet/internal/machine"
	"rpcvalet/internal/queueing"
	"rpcvalet/internal/report"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/workload"
)

// Options scales the experiments: full-size runs for figure regeneration,
// quick runs for the benchmark suite and smoke tests.
type Options struct {
	Warmup    int // machine-run completions discarded
	Measure   int // machine-run completions measured
	QGen      int // queueing-model requests measured per point
	Points    int // points per latency-throughput curve
	KneeIters int // bisection steps refining each curve's SLO knee
	Seed      uint64
	Workers   int // concurrent simulations (each is single-threaded); 0 = NumCPU
	// Shards splits every cluster simulation across parallel event engines
	// (cluster.Config.Shards): ≤ 1 runs the historical single-clock engine,
	// byte-identical to every pinned result. With Shards > 1 each cluster run
	// occupies a team of goroutines (node shards + the balancer shard), so
	// sweeps budget their fan-out accordingly: Workers stays the cap on
	// *total* goroutines, and the number of simulations in flight shrinks to
	// Workers / team size (see BudgetWorkers). Machine-only figures ignore it.
	Shards int
}

// DefaultOptions sizes runs for figure regeneration (seconds per figure).
// Sweeps fan out over all CPUs: each point is a single-threaded simulation,
// so NumCPU workers is the throughput-optimal cap (results are
// worker-count-independent).
func DefaultOptions() Options {
	return Options{Warmup: 5000, Measure: 50000, QGen: 100000, Points: 10, KneeIters: 5, Seed: 42, Workers: runtime.NumCPU()}
}

// QuickOptions sizes runs for benchmarks and smoke tests.
func QuickOptions() Options {
	return Options{Warmup: 1000, Measure: 10000, QGen: 20000, Points: 6, KneeIters: 3, Seed: 42, Workers: runtime.NumCPU()}
}

// Claim is one checkable statement from the paper, with the measured
// counterpart from this reproduction.
type Claim struct {
	Name     string // what is being checked
	Paper    string // what the paper reports
	Measured string // what this reproduction measured
	Ok       bool   // whether the measured value matches the claim's shape
}

func (c Claim) String() string {
	status := "OK "
	if !c.Ok {
		status = "MISS"
	}
	return fmt.Sprintf("[%s] %s: paper=%s measured=%s", status, c.Name, c.Paper, c.Measured)
}

// Figure is the reproduced data for one paper figure or table.
type Figure struct {
	ID     string
	Title  string
	Tables []*report.Table
	Claims []Claim
}

// Point is one measured point of a latency-throughput curve: a machine,
// cluster or queueing-model run at one offered rate.
type Point struct {
	// RateMRPS is the offered rate; for a queueing model it is the offered
	// load ρ, and ThroughputMRPS is completions per thousand service-time
	// units.
	RateMRPS       float64
	ThroughputMRPS float64
	P50, P99, Mean float64 // ns
	SLONanos       float64
	MeetsSLO       bool
	ServiceMean    float64 // ns
	Imbalance      float64 // cluster completions, max/mean; 0 elsewhere
}

// Curve is a labeled series of points for one configuration.
type Curve struct {
	Label  string
	Points []Point
	// Knee, if non-nil, is a bisection-refined point at the highest
	// offered rate that still meets the SLO (see refineKnee). It sharpens
	// ThroughputUnderSLO beyond the coarse grid's resolution.
	Knee *Point
}

// ThroughputUnderSLO returns the best throughput among points meeting their
// SLO (including the refined knee, when present), or 0 if none do.
func (c Curve) ThroughputUnderSLO() float64 {
	best := 0.0
	for _, p := range c.Points {
		if p.MeetsSLO && p.ThroughputMRPS > best {
			best = p.ThroughputMRPS
		}
	}
	if c.Knee != nil && c.Knee.MeetsSLO && c.Knee.ThroughputMRPS > best {
		best = c.Knee.ThroughputMRPS
	}
	return best
}

// MaxTailRatioVs returns the largest p99(other)/p99(c) over point pairs at
// equal offered rate where both systems still meet their SLO — the paper's
// "up to N× lower tail latency before saturation" metric.
func (c Curve) MaxTailRatioVs(other Curve) float64 {
	ratio := 0.0
	n := len(c.Points)
	if len(other.Points) < n {
		n = len(other.Points)
	}
	for i := 0; i < n; i++ {
		a, b := c.Points[i], other.Points[i]
		if a.RateMRPS != b.RateMRPS || !a.MeetsSLO {
			continue
		}
		if a.P99 > 0 && b.P99/a.P99 > ratio {
			ratio = b.P99 / a.P99
		}
	}
	return ratio
}

// CapacityMRPS estimates the machine's saturation throughput for a workload
// (machine.CapacityMRPS).
func CapacityMRPS(p machine.Params, wl workload.Profile) float64 {
	return machine.CapacityMRPS(p, wl)
}

// RateGrid builds n offered-load points spanning lo..hi fractions of the
// estimated capacity.
func RateGrid(capacity float64, lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{capacity * hi}
	}
	rates := make([]float64, n)
	for i := range rates {
		f := lo + (hi-lo)*float64(i)/float64(n-1)
		rates[i] = capacity * f
	}
	return rates
}

// GeometricRateGrid spaces n points geometrically between lo and hi
// fractions of capacity — denser at low loads, which resolves the knee of a
// system that saturates far below capacity (the software single queue).
func GeometricRateGrid(capacity float64, lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{capacity * hi}
	}
	rates := make([]float64, n)
	for i := range rates {
		f := lo * math.Pow(hi/lo, float64(i)/float64(n-1))
		rates[i] = capacity * f
	}
	return rates
}

// BudgetWorkers converts a sweep-level worker cap (0 = NumCPU) into the
// number of simulations allowed in flight when each simulation itself runs
// costPerRun goroutines (cluster.Engines for a cluster run), so
// Options.Workers stays a true bound on total running goroutines. At least
// one simulation always proceeds, so a Shards setting wider than the cap
// degrades to sequential points rather than failing.
func BudgetWorkers(workers, costPerRun int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if costPerRun > 1 {
		workers /= costPerRun
	}
	return max(workers, 1)
}

// runPoints is the worker pool behind every simulation fan-out in the
// harness: it evaluates point(i) for i in [0, n) concurrently — each point
// is an independent, single-threaded, deterministic simulation — and
// returns the results in index order. The first error aborts the whole run.
func runPoints[P any](n, workers int, point func(i int) (P, error)) ([]P, error) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	points := make([]P, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			points[i], errs[i] = point(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return points, nil
}

// series is one curve to sweep: its label, its offered rates in order, and
// point, which measures rate as the curve's i-th point. point owns the
// series' seed rule, so a result depends only on (rate, i), never on which
// pool ran it or alongside what.
type series struct {
	label string
	rates []float64
	point func(rate float64, i int) (Point, error)
}

// sweep measures every series' curve. All (series, rate) points run on one
// runPoints pool of `workers`; then, with kneeIters > 0, every curve's SLO
// knee is bisected on a second pool (each bisection is serial in itself).
// A bisection step measures point(mid, 0), the series' base seed.
func sweep(workers, kneeIters int, ss ...series) ([]Curve, error) {
	type job struct{ s, i int }
	var jobs []job
	for s := range ss {
		for i := range ss[s].rates {
			jobs = append(jobs, job{s, i})
		}
	}
	points, err := runPoints(len(jobs), workers, func(j int) (Point, error) {
		s := ss[jobs[j].s]
		return s.point(s.rates[jobs[j].i], jobs[j].i)
	})
	if err != nil {
		return nil, err
	}
	curves := make([]Curve, len(ss))
	for s := range ss {
		n := len(ss[s].rates)
		curves[s] = Curve{Label: ss[s].label, Points: points[:n:n]}
		points = points[n:]
	}
	if kneeIters <= 0 {
		return curves, nil
	}
	return runPoints(len(ss), workers, func(s int) (Curve, error) {
		return refineKnee(curves[s], kneeIters, ss[s].point)
	})
}

// only unwraps a one-series sweep.
func only(curves []Curve, err error) (Curve, error) {
	if err != nil {
		return Curve{}, err
	}
	return curves[0], nil
}

// refineKnee bisects between the curve's last SLO-meeting grid rate and the
// first violating one, measuring point(mid, 0) `iters` times to localize the
// knee. The coarse grid bounds throughput-under-SLO to one grid step; the
// paper's 1.1–1.4× mode ratios need finer resolution than a 10-point grid
// provides. The refined point is stored on the returned curve.
func refineKnee(c Curve, iters int, point func(rate float64, i int) (Point, error)) (Curve, error) {
	lastOK, firstBad := -1, -1
	for i, p := range c.Points {
		if p.MeetsSLO {
			lastOK = i
		} else if lastOK == i-1 && lastOK >= 0 && firstBad == -1 {
			firstBad = i
		}
	}
	if lastOK == -1 || firstBad == -1 {
		// Nothing to refine: either no point meets the SLO or the whole
		// grid does (the knee lies beyond the grid).
		return c, nil
	}
	lo, hi := c.Points[lastOK].RateMRPS, c.Points[firstBad].RateMRPS
	best := c.Points[lastOK]
	for it := 0; it < iters; it++ {
		mid := (lo + hi) / 2
		p, err := point(mid, 0)
		if err != nil {
			return c, err
		}
		if p.MeetsSLO {
			best = p
			lo = mid
		} else {
			hi = mid
		}
	}
	c.Knee = &best
	return c, nil
}

// capSimTime caps a sweep point's virtual time generously: ten times the
// time its completions take at the actual completion rate — the offered
// rate below saturation, the capacity above it.
func capSimTime(capacity, rate float64, completions int) sim.Duration {
	need := float64(completions) / min(rate, capacity) * 1000 // ns
	return sim.FromNanos(need * 10)
}

// machineCapSimTime is capSimTime for one machine run.
func machineCapSimTime(cfg machine.Config, rate float64) sim.Duration {
	return capSimTime(CapacityMRPS(cfg.Params, cfg.Workload), rate, cfg.Warmup+cfg.Measure)
}

// clusterCapSimTime is capSimTime for one cluster run plus its hops and SLO,
// so even a run of a few completions has time to finish its first one.
func clusterCapSimTime(cfg cluster.Config, rate float64) sim.Duration {
	return capSimTime(ClusterCapacityMRPS(cfg), rate, cfg.Warmup+cfg.Measure) +
		cfg.Hop + cfg.GlobalHop + sim.FromNanos(cfg.SLONanos())
}

// MachineSweep runs the machine at every rate (concurrently) and returns the
// curve in rate order.
func MachineSweep(base machine.Config, rates []float64, label string, workers int) (Curve, error) {
	return only(sweep(workers, 0, machineSeries(base, rates, label)))
}

// machineSeries sweeps base over rates with machinePoint's seed rule.
func machineSeries(base machine.Config, rates []float64, label string) series {
	return series{label, rates, func(rate float64, i int) (Point, error) {
		return machinePoint(base, rate, i, label)
	}}
}

// machinePoint runs base at one offered rate as point i of a sweep: point i
// draws seed base.Seed + i·1_000_003.
func machinePoint(base machine.Config, rate float64, i int, label string) (Point, error) {
	cfg := base
	cfg.RateMRPS = rate
	cfg.Seed = base.Seed + uint64(i)*1_000_003
	if cfg.MaxSimTime == 0 {
		cfg.MaxSimTime = machineCapSimTime(cfg, rate)
	}
	res, err := machine.Run(cfg)
	if err != nil {
		return Point{}, fmt.Errorf("sweep %s at %.2f MRPS: %w", label, rate, err)
	}
	return Point{
		RateMRPS:       rate,
		ThroughputMRPS: res.ThroughputMRPS,
		P50:            res.Latency.P50,
		P99:            res.Latency.P99,
		Mean:           res.Latency.Mean,
		SLONanos:       res.SLONanos,
		MeetsSLO:       res.MeetsSLO,
		ServiceMean:    res.ServiceMeanNanos,
	}, nil
}

// ClusterSweep runs the cluster at every aggregate rate (concurrently) and
// returns the curve in rate order. When base is sharded, each point is
// itself a team of goroutines, so the fan-out narrows to keep `workers` the
// cap on total goroutines.
func ClusterSweep(base cluster.Config, rates []float64, label string, workers int) (Curve, error) {
	return only(sweep(BudgetWorkers(workers, cluster.Engines(base)), 0, clusterSeries(base, rates, label)))
}

// clusterSeries sweeps base over aggregate rates. Point i draws seed
// base.Seed + i·1_000_003 and gets freshly cloned policies (rack and, when
// hierarchical, global), so rotation state never leaks across points or
// goroutines.
func clusterSeries(base cluster.Config, rates []float64, label string) series {
	return series{label, rates, func(rate float64, i int) (Point, error) {
		cfg := base
		cfg.RateMRPS = rate
		cfg.Seed = base.Seed + uint64(i)*1_000_003
		cfg.Policy = base.Policy.Clone()
		if base.GlobalPolicy != nil {
			cfg.GlobalPolicy = base.GlobalPolicy.Clone()
		}
		if cfg.MaxSimTime == 0 {
			cfg.MaxSimTime = clusterCapSimTime(cfg, rate)
		}
		res, err := cluster.Run(cfg)
		if err != nil {
			return Point{}, fmt.Errorf("cluster sweep %s at %.2f MRPS: %w", label, rate, err)
		}
		return Point{
			RateMRPS:       rate,
			ThroughputMRPS: res.ThroughputMRPS,
			P50:            res.Latency.P50,
			P99:            res.Latency.P99,
			Mean:           res.Latency.Mean,
			SLONanos:       res.SLONanos,
			MeetsSLO:       res.MeetsSLO,
			Imbalance:      res.Imbalance,
		}, nil
	}}
}

// QueueingSweep runs the queueing model cfg at every offered load
// (concurrently) and returns the curve in load order, judging each point
// against a p99 bound of slo service-time units.
func QueueingSweep(cfg queueing.Config, loads []float64, slo float64, label string, workers int) (Curve, error) {
	return only(sweep(workers, 0, queueingSeries(cfg, loads, slo, label)))
}

// queueingSeries sweeps the queueing model cfg over offered loads. Point i
// draws seed cfg.Seed + 1e9·i(i+1)/2: the serial sweep this replaced added
// i·1e9 to a running seed, and keeping its triangular rule keeps the Fig
// 2a–2c tables byte-identical. The SLO is an argument rather than 10× the
// distribution's mean, which for a normalized distribution need not be
// exactly 1.
func queueingSeries(cfg queueing.Config, loads []float64, slo float64, label string) series {
	return series{label, loads, func(load float64, i int) (Point, error) {
		c := cfg
		c.Load = load
		c.Seed = cfg.Seed + uint64(i*(i+1)/2)*1e9
		return queueingPoint(c, slo, label)
	}}
}

// queueingPoint runs cfg, its load and seed already set, as one curve
// point at offered rate cfg.Load, with throughput scaled ×1000 (per µs when
// the service times are in ns).
func queueingPoint(cfg queueing.Config, slo float64, label string) (Point, error) {
	res, err := queueing.Run(cfg)
	if err != nil {
		return Point{}, fmt.Errorf("sweep %s at load %v: %w", label, cfg.Load, err)
	}
	return Point{
		RateMRPS:       cfg.Load,
		ThroughputMRPS: res.Throughput * 1000,
		P50:            res.Latency.P50,
		P99:            res.Latency.P99,
		Mean:           res.Latency.Mean,
		SLONanos:       slo,
		MeetsSLO:       res.Latency.P99 <= slo,
		ServiceMean:    res.MeanSvc,
	}, nil
}

// machineBase assembles a machine config for one dispatch plan spec (see
// machine.ParsePlan: "1x16", "16x1", "sw", "1x16:random2", ...) and workload
// at the harness's measurement scale.
func machineBase(o Options, wl workload.Profile, plan string) machine.Config {
	p := machine.Defaults()
	p.Plan = mustPlan(plan)
	return machine.Config{
		Params:   p,
		Workload: wl,
		Warmup:   o.Warmup,
		Measure:  o.Measure,
		Seed:     o.Seed,
	}
}

// clusterBase assembles a ClusterNodes-node cluster config over nodes of
// one dispatch plan spec. Options.Shards is threaded through, so every
// cluster figure and sweep in the harness runs sharded when asked to.
func clusterBase(o Options, wl workload.Profile, plan string, pol cluster.Policy) cluster.Config {
	return cluster.Config{
		Nodes:   ClusterNodes,
		Node:    machineBase(Options{}, wl, plan), // run control is the cluster's
		Policy:  pol,
		Hop:     ClusterHop,
		Warmup:  o.Warmup,
		Measure: o.Measure,
		Seed:    o.Seed,
		Shards:  o.Shards,
	}
}

// mustPlan resolves a plan spec the harness itself names; a bad one is a
// programming error.
func mustPlan(spec string) *machine.Plan {
	pl, err := machine.ParsePlan(spec)
	if err != nil {
		panic(err)
	}
	return pl
}

// hwPlans are the three hardware queuing configurations of §6.1, ordered as
// the paper's legends list them.
var hwPlans = []string{"16x1", "4x4", "1x16"}

// grid builds the harness's table layout: one row per rows[i], whose first
// cell (column corner) is rows[i] itself, then for every column key k and
// every prefix p a column named prefixes[p]+keys[k], filled by cell(i, k, p).
func grid[R any](title, corner string, rows []R, keys, prefixes []string, cell func(i, k, p int) any) *report.Table {
	cols := make([]string, 0, 1+len(keys)*len(prefixes))
	cols = append(cols, corner)
	for _, key := range keys {
		for _, prefix := range prefixes {
			cols = append(cols, prefix+key)
		}
	}
	tbl := report.NewTable(title, cols...)
	for i, r := range rows {
		row := make([]any, 0, len(cols))
		row = append(row, r)
		for k := range keys {
			for p := range prefixes {
				row = append(row, cell(i, k, p))
			}
		}
		tbl.AddRowf(row...)
	}
	return tbl
}

// statement declares one claim: what is checked and what the paper reports.
// A figure judges it against its measurement once, or reports why it could
// not measure it.
type statement struct{ name, paper string }

// A check is the verdict a claim is judged by, built only by the
// constructors below. Every comparison with a NaN side fails, so a NaN
// measurement judges MISS.
type check bool

// within checks lo <= v <= hi, both edges inclusive.
func within(v, lo, hi float64) check { return v >= lo && v <= hi }

// below, atMost, above and atLeast check a <, <=, > and >= b; b may be a
// scaled quantity (1.5*ref).
func below(a, b float64) check   { return a < b }
func atMost(a, b float64) check  { return a <= b }
func above(a, b float64) check   { return a > b }
func atLeast(a, b float64) check { return a >= b }

// fact is a plain observed outcome: an ordering over a whole curve, a count.
func fact(ok bool) check { return check(ok) }

// and holds when every check does.
func and(checks ...check) check {
	for _, c := range checks {
		if !c {
			return false
		}
	}
	return true
}

// judge states the claim with its measurement, formatted printf-style, and
// its verdict.
func (s statement) judge(ok check, format string, args ...any) Claim {
	return Claim{Name: s.name, Paper: s.paper, Measured: fmt.Sprintf(format, args...), Ok: bool(ok)}
}

// unmeasured states a claim the figure could not measure, saying why; it
// misses.
func (s statement) unmeasured(why string) Claim {
	return Claim{Name: s.name, Paper: s.paper, Measured: why}
}

// ratio states a claim on a measured ratio, judged in the inclusive band
// [lo, hi].
func ratio(name, paper string, measured, lo, hi float64) Claim {
	return statement{name, paper}.judge(within(measured, lo, hi), "%.2f×", measured)
}

// noWorse states that a is at most b, measured as "a vs b".
func noWorse(name, paper string, a, b float64) Claim {
	return statement{name, paper}.judge(atMost(a, b), "%.4g vs %.4g", a, b)
}

// Generator produces one figure's data at the given scale.
type Generator func(Options) (Figure, error)

// registry lists every figure in presentation order: the paper's figures
// and table, the ablations, then the extension studies.
var registry = []struct {
	id  string
	gen Generator
}{
	{"2a", fig2a}, {"2b", fig2b}, {"2c", fig2c}, {"6", fig6},
	{"7a", fig7a}, {"7b", fig7b}, {"7c", fig7c}, {"8", fig8}, {"9", fig9},
	{"table1", table1},
	{"ablation-outstanding", ablationOutstanding},
	{"ablation-dispatcher", ablationDispatcher},
	{"ablation-rss", ablationRSS},
	{"ablation-policy", ablationPolicy},
	{"anatomy", figAnatomy},
	{"burst", figBurst},
	{"cluster", figCluster},
	{"hier", figHier},
	{"live", figLive},
	{"policy", figPolicy},
	{"rack", figRack},
	{"transient", figTransient},
}

// FigureIDs lists the figures in presentation order, and Figures maps each
// ID ("2a", "7c", "table1", ...) to its generator.
var FigureIDs, Figures = index()

func index() ([]string, map[string]Generator) {
	ids := make([]string, len(registry))
	gens := make(map[string]Generator, len(registry))
	for i, f := range registry {
		ids[i] = f.id
		gens[f.id] = f.gen
	}
	return ids, gens
}
