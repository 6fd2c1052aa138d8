package core

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rpcvalet/internal/arrival"
	"rpcvalet/internal/cluster"
	"rpcvalet/internal/dist"
	"rpcvalet/internal/machine"
	"rpcvalet/internal/queueing"
	"rpcvalet/internal/workload"
)

// tinyOptions keeps unit tests fast; claim checks at this scale are noisy,
// so tests here verify structure and the direction of effects, while
// claim-level validation happens at QuickOptions scale in TestFigures.
func tinyOptions() Options {
	return Options{Warmup: 300, Measure: 4000, QGen: 8000, Points: 4, Seed: 7, Workers: 4}
}

func TestCapacityMRPS(t *testing.T) {
	got := CapacityMRPS(machine.Defaults(), workload.HERD())
	// 16 cores / (330 + 200) ns ≈ 30 MRPS.
	if got < 28 || got < 0 || got > 33 {
		t.Fatalf("capacity = %v MRPS, want ~30", got)
	}
}

func TestRateGrid(t *testing.T) {
	g := RateGrid(100, 0.1, 0.9, 5)
	if len(g) != 5 || g[0] != 10 || g[4] != 90 {
		t.Fatalf("grid = %v", g)
	}
	if mid := g[2]; mid != 50 {
		t.Fatalf("grid midpoint = %v", mid)
	}
	if one := RateGrid(100, 0.1, 0.9, 1); len(one) != 1 || one[0] != 90 {
		t.Fatalf("single-point grid = %v", one)
	}
}

func TestCurveHelpers(t *testing.T) {
	c := Curve{Points: []Point{
		{RateMRPS: 1, ThroughputMRPS: 1, P99: 100, MeetsSLO: true},
		{RateMRPS: 2, ThroughputMRPS: 2, P99: 200, MeetsSLO: true},
		{RateMRPS: 3, ThroughputMRPS: 2.5, P99: 900, MeetsSLO: false},
	}}
	if got := c.ThroughputUnderSLO(); got != 2 {
		t.Fatalf("thr under SLO = %v", got)
	}
	other := Curve{Points: []Point{
		{RateMRPS: 1, P99: 400}, {RateMRPS: 2, P99: 500}, {RateMRPS: 3, P99: 1000},
	}}
	if got := c.MaxTailRatioVs(other); got != 4 {
		t.Fatalf("max tail ratio = %v, want 4 (400/100)", got)
	}
	empty := Curve{}
	if empty.ThroughputUnderSLO() != 0 || empty.MaxTailRatioVs(c) != 0 {
		t.Fatal("empty curve helpers should return 0")
	}
}

func TestSafeRatio(t *testing.T) {
	if safeRatio(4, 2) != 2 || safeRatio(1, 0) != 0 {
		t.Fatal("safeRatio wrong")
	}
}

func TestMachineSweepDeterministic(t *testing.T) {
	cfg := machineBase(tinyOptions(), workload.HERD(), "1x16")
	rates := []float64{3, 9, 15}
	a, err := MachineSweep(cfg, rates, "a", 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MachineSweep(cfg, rates, "b", 1) // different worker count
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d differs across worker counts: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
}

func TestMachineSweepPropagatesError(t *testing.T) {
	cfg := machineBase(tinyOptions(), workload.HERD(), "1x16")
	cfg.Params.Cores = 0
	if _, err := MachineSweep(cfg, []float64{1}, "x", 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"2a", "2b", "2c", "6", "7a", "7b", "7c", "8", "9", "table1",
		"ablation-outstanding", "ablation-dispatcher", "ablation-rss", "ablation-policy",
		"anatomy", "burst", "cluster", "hier", "live", "policy", "rack", "transient"}
	if !reflect.DeepEqual(FigureIDs, want) {
		t.Errorf("FigureIDs = %v, want the presentation order %v", FigureIDs, want)
	}
	for _, id := range FigureIDs {
		if _, ok := Figures[id]; !ok {
			t.Errorf("figure %q in FigureIDs but not registered", id)
		}
	}
	if len(Figures) != len(FigureIDs) {
		t.Fatalf("registered %d figures, listed %d", len(Figures), len(FigureIDs))
	}
}

func TestClaimString(t *testing.T) {
	ok := Claim{Name: "n", Paper: "p", Measured: "m", Ok: true}
	if got, want := ok.String(), "[OK ] n: paper=p measured=m"; got != want {
		t.Fatalf("ok claim string %q, want %q", got, want)
	}
	bad := Claim{Name: "n", Paper: "p", Measured: "m"}
	if got, want := bad.String(), "[MISS] n: paper=p measured=m"; got != want {
		t.Fatalf("miss claim string %q, want %q", got, want)
	}
	// A judged claim prints exactly as the literal it replaces.
	s := statement{"1x16 vs 4x4 throughput under SLO", "1.16×"}
	if got, want := s.judge(within(1.2, 1, 1.5), "%.2f×", 1.2).String(),
		"[OK ] 1x16 vs 4x4 throughput under SLO: paper=1.16× measured=1.20×"; got != want {
		t.Fatalf("judged claim string %q, want %q", got, want)
	}
	if got, want := s.unmeasured("never met SLO").String(),
		"[MISS] 1x16 vs 4x4 throughput under SLO: paper=1.16× measured=never met SLO"; got != want {
		t.Fatalf("unmeasured claim string %q, want %q", got, want)
	}
}

// TestClaimJudge pins the judge's verdicts: inclusive edges hold, strict
// edges do not, a NaN side always misses, and an AND misses when any part
// does.
func TestClaimJudge(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		name string
		ok   check
		want bool
	}{
		{"within at lo", within(1, 1, 2), true},
		{"within at hi", within(2, 1, 2), true},
		{"within below lo", within(0.999, 1, 2), false},
		{"within NaN", within(nan, 1, 2), false},
		{"within NaN band", within(1.5, nan, 2), false},
		{"atMost at edge", atMost(2, 2), true},
		{"atLeast at edge", atLeast(2, 2), true},
		{"below at edge", below(2, 2), false},
		{"above at edge", above(2, 2), false},
		{"below scaled", below(0.49, 0.5*1), true},
		{"below NaN", below(nan, 1), false},
		{"above NaN", above(1, nan), false},
		{"atMost NaN", atMost(nan, nan), false},
		{"atLeast NaN", atLeast(nan, 0), false},
		{"fact", fact(true), true},
		{"and all hold", and(above(2, 1), atMost(1, 1), fact(true)), true},
		{"and one fails", and(above(2, 1), below(1, 1), fact(true)), false},
		{"and NaN part", and(above(2, 1), atMost(nan, 3)), false},
		{"and empty", and(), true},
	} {
		got := statement{c.name, "p"}.judge(c.ok, "%v", c.want)
		if got.Ok != c.want || got.Name != c.name || got.Paper != "p" {
			t.Errorf("%s: judged %+v, want Ok=%v", c.name, got, c.want)
		}
	}
	if miss := (statement{"n", "p"}).unmeasured("why"); miss.Ok || miss.Measured != "why" {
		t.Errorf("unmeasured claim %+v", miss)
	}
}

// TestFigureStructure runs the cheap figures end to end at tiny scale and
// checks they produce tables with data. (Claims may be noisy at this scale;
// structure must hold regardless.)
func TestFigureStructure(t *testing.T) {
	o := tinyOptions()
	for _, id := range []string{"2a", "2b", "6", "table1", "ablation-outstanding", "ablation-rss"} {
		fig, err := Figures[id](o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if fig.ID != id {
			t.Errorf("%s: ID mismatch %q", id, fig.ID)
		}
		if len(fig.Tables) == 0 {
			t.Errorf("%s: no tables", id)
		}
		for _, tbl := range fig.Tables {
			if len(tbl.Rows) == 0 {
				t.Errorf("%s: empty table %q", id, tbl.Title)
			}
		}
	}
}

// TestTable1Golden pins every printed row of table1: the chip's mesh,
// memory and per-request core overhead are constants, and this is where
// their values reach a reader.
func TestTable1Golden(t *testing.T) {
	fig, err := table1(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"Cores", "16 @ 2 GHz"},
		{"NI backends", "4 (mesh edge)"},
		{"Interconnect", "4x4 mesh, 16B links, 3 cycles/hop"},
		{"L1 latency", "3 cycles"},
		{"LLC latency", "6 cycles + NUCA distance"},
		{"Memory", "50 ns"},
		{"MTU / cache block", "64 B"},
		{"Messaging domain", "N=200 nodes, S=32 slots, max msg 2048 B"},
		{"Messaging footprint", "13.1 MB/node"},
		{"Outstanding threshold", "2 per core"},
		{"Core overhead", "200 ns/request"},
	}
	if len(fig.Tables) != 1 {
		t.Fatalf("table1 has %d tables, want 1", len(fig.Tables))
	}
	if got := fig.Tables[0].Rows; !reflect.DeepEqual(got, want) {
		t.Fatalf("table1 rows:\n%q\nwant\n%q", got, want)
	}
}

// concurrencyHighWater runs n points through runPoints at the given cap,
// with each point holding its slot for `hold` so any overlap beyond the cap
// would register, and returns the atomic high-water mark of concurrently
// running points.
func concurrencyHighWater(t *testing.T, n, workers int, hold time.Duration) int {
	t.Helper()
	var cur, high atomic.Int32
	_, err := runPoints(n, workers, func(i int) (int, error) {
		c := cur.Add(1)
		for {
			h := high.Load()
			if c <= h || high.CompareAndSwap(h, c) {
				break
			}
		}
		time.Sleep(hold)
		cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return int(high.Load())
}

// TestRunPointsHonorsWorkerCap is the oversubscription regression test: an
// atomic high-water-mark counter in the point fn proves Options.Workers is a
// true cap on concurrently running simulations. (figCluster once spawned a
// goroutine per (mode, policy) cell around a parallel ClusterSweep,
// multiplying concurrency to cells × Workers; every sweep now runs through
// this one pool.)
func TestRunPointsHonorsWorkerCap(t *testing.T) {
	const workers = 3
	got := concurrencyHighWater(t, 24, workers, 2*time.Millisecond)
	if got > workers {
		t.Fatalf("observed %d concurrent points, cap is %d", got, workers)
	}
	if got < 1 {
		t.Fatalf("high-water mark %d never registered a running point", got)
	}
}

// TestRunPointsDefaultCap: a zero worker count falls back to NumCPU, never
// unbounded.
func TestRunPointsDefaultCap(t *testing.T) {
	if got, limit := concurrencyHighWater(t, 64, 0, time.Millisecond), runtime.NumCPU(); got > limit {
		t.Fatalf("observed %d concurrent points with a zero cap, NumCPU is %d", got, limit)
	}
}

// checkWorkerInvariant regenerates figure id at tiny scale with Workers 1
// and 8 and requires equal tables and claims: every (series, rate) point of
// a figure's sweep depends only on its own seed rule, never on the pool.
func checkWorkerInvariant(t *testing.T, id string) {
	t.Helper()
	o := tinyOptions()
	o.Points = 2
	o.Measure = 2000
	o.KneeIters = 2
	run := func(workers int) Figure {
		o := o
		o.Workers = workers
		fig, err := Figures[id](o)
		if err != nil {
			t.Fatal(err)
		}
		return fig
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a.Tables, b.Tables) {
		t.Fatalf("%s: tables differ across worker caps:\n  %+v\n  %+v", id, a.Tables, b.Tables)
	}
	if !reflect.DeepEqual(a.Claims, b.Claims) {
		t.Fatalf("%s: claims differ across worker caps:\n  %v\n  %v", id, a.Claims, b.Claims)
	}
}

// TestFigClusterDeterministic: figCluster pools every (mode, policy) cell's
// points, where its cells once ran a goroutine each around a parallel sweep.
func TestFigClusterDeterministic(t *testing.T) { checkWorkerInvariant(t, "cluster") }

// TestFiguresWorkerInvariant covers the other figures whose curves run on
// the shared sweep pool. The queueing figures ran serially before.
func TestFiguresWorkerInvariant(t *testing.T) {
	for _, id := range []string{"2a", "2c", "8", "9", "policy", "burst"} {
		t.Run(id, func(t *testing.T) { checkWorkerInvariant(t, id) })
	}
}

// TestSweepModesDeterministic: pooling every mode's grid points and then
// every mode's knee bisection must give the curves and knees of sweeping the
// modes one after another, at any worker cap.
func TestSweepModesDeterministic(t *testing.T) {
	o := tinyOptions()
	o.Points = 3
	o.Measure = 2000
	o.KneeIters = 2
	ss := hwSeries(o, workload.HERD(), 0.3, 1.02)
	run := func(workers int) []Curve {
		curves, err := sweep(workers, o.KneeIters, ss...)
		if err != nil {
			t.Fatal(err)
		}
		return curves
	}
	a, b := run(1), run(8)
	knees := 0
	for m, s := range ss {
		serial, err := only(sweep(1, o.KneeIters, s))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a[m], b[m]) {
			t.Fatalf("mode %s differs across worker caps:\n  %+v\n  %+v", s.label, a[m], b[m])
		}
		if !reflect.DeepEqual(a[m], serial) {
			t.Fatalf("mode %s differs from a serial sweep:\n  %+v\n  %+v", s.label, a[m], serial)
		}
		if serial.Knee != nil {
			knees++
		}
	}
	if knees == 0 {
		t.Fatal("no mode found a knee to refine; the test does not cover bisection")
	}
}

// TestClusterSweepDeterministic: cluster sweeps must give identical points
// regardless of worker count, like the machine sweeps.
func TestClusterSweepDeterministic(t *testing.T) {
	o := tinyOptions()
	base := clusterBase(o, workload.SyntheticExp(), "1x16", cluster.JSQ{D: 2})
	cap := ClusterCapacityMRPS(base)
	rates := []float64{0.3 * cap, 0.6 * cap, 0.8 * cap}
	a, err := ClusterSweep(base, rates, "a", 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ClusterSweep(base, rates, "b", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d differs across worker counts: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
}

func TestClusterSweepPropagatesError(t *testing.T) {
	o := tinyOptions()
	base := clusterBase(o, workload.SyntheticExp(), "1x16", cluster.JSQ{D: 2})
	base.Node.Params.Cores = 0
	if _, err := ClusterSweep(base, []float64{1}, "x", 1); err == nil {
		t.Fatal("expected error")
	}
}

// TestClusterFigure runs the rack-scale composition figure at tiny scale:
// three node modes × four policies must each yield a full curve.
func TestClusterFigure(t *testing.T) {
	o := tinyOptions()
	o.Points = 3
	o.Measure = 3000
	fig, err := Figures["cluster"](o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Tables) != 3 {
		t.Fatalf("cluster figure tables = %d, want 3 (one per node mode)", len(fig.Tables))
	}
	for _, tbl := range fig.Tables {
		if len(tbl.Rows) != o.Points || len(tbl.Columns) != 1+len(cluster.PolicyNames) {
			t.Fatalf("table %q shape %dx%d", tbl.Title, len(tbl.Rows), len(tbl.Columns))
		}
	}
	if len(fig.Claims) != 2 {
		t.Fatalf("cluster figure claims = %d, want 2", len(fig.Claims))
	}
}

// TestFig9ModelComparison checks the Fig 9 machinery at small scale: the
// machine curve must sit above (or near) the idealized model at every load,
// never dramatically below it.
func TestFig9ModelComparison(t *testing.T) {
	o := tinyOptions()
	o.Points = 3
	fig, err := Figures["9"](o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Tables) != 4 || len(fig.Claims) != 4 {
		t.Fatalf("fig9 shape: %d tables %d claims", len(fig.Tables), len(fig.Claims))
	}
}

func TestRefineKnee(t *testing.T) {
	o := tinyOptions()
	base := machineBase(o, workload.HERD(), "1x16")
	cap := CapacityMRPS(base.Params, base.Workload)
	s := machineSeries(base, RateGrid(cap, 0.3, 1.05, 4), "knee")
	coarse, err := only(sweep(2, 0, s))
	if err != nil {
		t.Fatal(err)
	}
	refined, err := refineKnee(coarse, 3, s.point)
	if err != nil {
		t.Fatal(err)
	}
	if refined.Knee == nil {
		t.Skip("grid had no SLO crossing at tiny scale")
	}
	if !refined.Knee.MeetsSLO {
		t.Fatal("refined knee violates SLO")
	}
	if refined.ThroughputUnderSLO() < coarse.ThroughputUnderSLO() {
		t.Fatalf("refinement reduced throughput under SLO: %v -> %v",
			coarse.ThroughputUnderSLO(), refined.ThroughputUnderSLO())
	}
}

func TestRefineKneeNoCrossing(t *testing.T) {
	// All points meet the SLO: nothing to refine, no error.
	o := tinyOptions()
	base := machineBase(o, workload.HERD(), "1x16")
	cap := CapacityMRPS(base.Params, base.Workload)
	refined, err := only(sweep(2, 3, machineSeries(base, RateGrid(cap, 0.1, 0.4, 3), "low")))
	if err != nil {
		t.Fatal(err)
	}
	if refined.Knee != nil {
		t.Fatal("refinement invented a knee without a crossing")
	}
}

// TestRefineKneeEdgeCases exercises the refinement's degenerate inputs with
// synthetic curves: every early-return path must leave the curve untouched
// and measure no point.
func TestRefineKneeEdgeCases(t *testing.T) {
	mk := func(meets ...bool) Curve {
		c := Curve{Label: "synthetic"}
		for i, m := range meets {
			c.Points = append(c.Points, Point{
				RateMRPS: float64(i + 1), ThroughputMRPS: float64(i + 1),
				P99: 100 * float64(i+1), SLONanos: 250, MeetsSLO: m,
			})
		}
		return c
	}
	cases := map[string]Curve{
		"noneMeetSLO":    mk(false, false, false),
		"allMeetSLO":     mk(true, true, true),
		"kneeAtLowEdge":  mk(false, true, true), // SLO region touches the grid's top: nothing above to bisect toward
		"kneeBeyondGrid": mk(true),              // single point, trivially at the edge
		"emptyCurve":     mk(),
	}
	for name, c := range cases {
		refined, err := refineKnee(c, 5, func(rate float64, i int) (Point, error) {
			t.Fatalf("%s: refinement measured rate %v", name, rate)
			return Point{}, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if refined.Knee != nil {
			t.Errorf("%s: refinement invented a knee", name)
		}
		if !reflect.DeepEqual(refined.Points, c.Points) {
			t.Errorf("%s: points changed", name)
		}
	}
}

// TestRefineKneeAtGridEdge drives a real refinement whose knee sits at the
// top of the grid: the last grid point meets the SLO, so there is no
// violating point to bisect against and the curve must come back unchanged,
// while a grid extended past saturation must produce a refined knee between
// the crossing points.
func TestRefineKneeAtGridEdge(t *testing.T) {
	o := tinyOptions()
	base := machineBase(o, workload.HERD(), "1x16")
	cap := CapacityMRPS(base.Params, base.Workload)

	// Grid confined below the knee: every point meets, edge case.
	low, err := only(sweep(2, 3, machineSeries(base, RateGrid(cap, 0.2, 0.5, 3), "low")))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range low.Points {
		if !p.MeetsSLO {
			t.Skipf("low-load grid unexpectedly violated SLO at tiny scale: %+v", p)
		}
	}
	if low.Knee != nil {
		t.Fatal("knee refined despite the whole grid meeting the SLO")
	}

	// Grid crossing saturation: the knee must land inside the crossing
	// bracket and meet the SLO.
	s := machineSeries(base, RateGrid(cap, 0.5, 1.3, 4), "wide")
	wide, err := only(sweep(2, 0, s))
	if err != nil {
		t.Fatal(err)
	}
	refined, err := refineKnee(wide, 3, s.point)
	if err != nil {
		t.Fatal(err)
	}
	if refined.Knee == nil {
		t.Skip("no SLO crossing materialized at tiny scale")
	}
	lastOK, firstBad := -1.0, -1.0
	for _, p := range wide.Points {
		if p.MeetsSLO {
			lastOK = p.RateMRPS
		} else if firstBad < 0 && lastOK >= 0 {
			firstBad = p.RateMRPS
		}
	}
	if k := refined.Knee.RateMRPS; k < lastOK || (firstBad > 0 && k > firstBad) {
		t.Fatalf("knee at %.2f outside bracket [%.2f, %.2f]", k, lastOK, firstBad)
	}
}

// TestMachineSweepDeterministicPerArrival mirrors TestMachineSweepDeterministic
// for every built-in arrival process: the worker count must never change a
// sweep's points.
func TestMachineSweepDeterministicPerArrival(t *testing.T) {
	o := tinyOptions()
	rates := []float64{4, 10, 14}
	for _, kind := range arrival.Names {
		arr, err := arrival.ByName(kind, rates[0])
		if err != nil {
			t.Fatal(err)
		}
		cfg := machineBase(o, workload.HERD(), "1x16")
		cfg.Arrival = arr
		a, err := MachineSweep(cfg, rates, kind+"-a", 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := MachineSweep(cfg, rates, kind+"-b", 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Points {
			if a.Points[i] != b.Points[i] {
				t.Fatalf("%s: point %d differs across worker counts: %+v vs %+v",
					kind, i, a.Points[i], b.Points[i])
			}
		}
	}
}

// TestClusterSweepDeterministicPerArrival is the cluster-layer counterpart.
func TestClusterSweepDeterministicPerArrival(t *testing.T) {
	o := tinyOptions()
	o.Measure = 3000
	base := clusterBase(o, workload.SyntheticExp(), "1x16", cluster.JSQ{D: 2})
	cap := ClusterCapacityMRPS(base)
	rates := []float64{0.4 * cap, 0.7 * cap}
	for _, kind := range arrival.Names {
		arr, err := arrival.ByName(kind, rates[0])
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Arrival = arr
		a, err := ClusterSweep(cfg, rates, kind+"-a", 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ClusterSweep(cfg, rates, kind+"-b", 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Points {
			if a.Points[i] != b.Points[i] {
				t.Fatalf("%s: point %d differs across worker counts: %+v vs %+v",
					kind, i, a.Points[i], b.Points[i])
			}
		}
	}
}

// TestFigureBurstStructure checks the burst study's shape at tiny scale.
func TestFigureBurstStructure(t *testing.T) {
	o := tinyOptions()
	fig, err := Figures["burst"](o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Tables) != 3 {
		t.Fatalf("burst tables = %d, want 3", len(fig.Tables))
	}
	for _, tbl := range fig.Tables {
		if len(tbl.Rows) != len(arrival.Names) || len(tbl.Columns) != 1+len(hwPlans) {
			t.Fatalf("table %q shape %dx%d", tbl.Title, len(tbl.Rows), len(tbl.Columns))
		}
	}
	if len(fig.Claims) != 2 {
		t.Fatalf("burst claims = %d, want 2", len(fig.Claims))
	}
}

// TestFigurePolicyStructure checks the dispatch-policy study's shape at tiny
// scale: two tables per workload (curve + SLO summary) and three claims.
func TestFigurePolicyStructure(t *testing.T) {
	o := tinyOptions()
	o.Points = 3
	o.Measure = 3000
	fig, err := Figures["policy"](o)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(policyWorkloads); len(fig.Tables) != want {
		t.Fatalf("policy tables = %d, want %d", len(fig.Tables), want)
	}
	for i, tbl := range fig.Tables {
		if i%2 == 0 { // curve table: one row per rate, one p99 column per plan
			if len(tbl.Rows) != o.Points || len(tbl.Columns) != 1+len(policyPlans) {
				t.Fatalf("table %q shape %dx%d", tbl.Title, len(tbl.Rows), len(tbl.Columns))
			}
		} else if len(tbl.Rows) != len(policyPlans) {
			t.Fatalf("summary %q rows = %d", tbl.Title, len(tbl.Rows))
		}
	}
	if len(fig.Claims) != 3 {
		t.Fatalf("policy claims = %d, want 3", len(fig.Claims))
	}
}

// TestFigurePolicyClaims regenerates the policy study at QuickOptions scale —
// the acceptance scale — and requires every claim to hold: occupancy
// feedback never loses to blind dispatch, JBSQ(1) tracks the single-queue
// ideal where the partitioned baseline collapses, and two random choices
// recover most of the full-information gain.
func TestFigurePolicyClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickOptions-scale regeneration")
	}
	fig, err := Figures["policy"](QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range fig.Claims {
		if !c.Ok {
			t.Errorf("claim failed: %s", c)
		}
	}
	// The random-of-2 recovery claim is enforced by name: it was the
	// EXPERIMENTS.md known-flaky cell until its estimator moved to median
	// recovery over the top SLO-meeting loads, and a silent rename or
	// removal must not let it regress to a single-point statistic.
	found := false
	for _, c := range fig.Claims {
		if strings.HasPrefix(c.Name, "random-of-2 recovers") {
			found = true
			if !c.Ok {
				t.Errorf("deflaked recovery claim failed: %s", c)
			}
			if !strings.Contains(c.Measured, "median over top") {
				t.Errorf("recovery claim regressed to a single-point estimator: %s", c.Measured)
			}
		}
	}
	if !found {
		t.Error("random-of-2 recovery claim missing from the policy figure")
	}
}

// TestFigureTransientStructure checks the transient study's shape: the
// pulse comparison, the rendered timeline, the recovery summary, the
// degraded-node table, and three claims.
func TestFigureTransientStructure(t *testing.T) {
	o := tinyOptions()
	fig, err := Figures["transient"](o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Tables) != 4 {
		t.Fatalf("transient tables = %d, want 4", len(fig.Tables))
	}
	for _, tbl := range fig.Tables {
		if len(tbl.Rows) == 0 {
			t.Fatalf("empty table %q", tbl.Title)
		}
	}
	if len(fig.Claims) != 3 {
		t.Fatalf("transient claims = %d, want 3", len(fig.Claims))
	}
}

// TestFigureTransientClaims regenerates the transient study at QuickOptions
// scale — the acceptance scale — and requires every claim to hold: the
// single queue out-recovers the partitioned baseline after a 2× pulse, its
// pulse peak stays lower, and JSQ's margin over random widens under a
// degraded node.
func TestFigureTransientClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickOptions-scale regeneration")
	}
	fig, err := Figures["transient"](QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range fig.Claims {
		if !c.Ok {
			t.Errorf("claim failed: %s", c)
		}
	}
}

// TestFigureAnatomyStructure checks the tail-anatomy figure's shape: one
// summary row per dispatch plan, a span table per plan with the slowest
// requests decomposed, and three claims.
func TestFigureAnatomyStructure(t *testing.T) {
	fig, err := Figures["anatomy"](tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Tables) != 1+len(anatomyPlans) {
		t.Fatalf("anatomy tables = %d, want %d", len(fig.Tables), 1+len(anatomyPlans))
	}
	if got := len(fig.Tables[0].Rows); got != len(anatomyPlans) {
		t.Fatalf("summary rows = %d, want %d", got, len(anatomyPlans))
	}
	for _, tbl := range fig.Tables[1:] {
		if len(tbl.Rows) == 0 {
			t.Fatalf("empty span table %q", tbl.Title)
		}
	}
	if len(fig.Claims) != 3 {
		t.Fatalf("anatomy claims = %d, want 3", len(fig.Claims))
	}
}

// TestFigureAnatomyClaims regenerates the tail-anatomy figure at
// QuickOptions scale — the acceptance scale — and requires every claim to
// hold: the partitioned tail is queue-wait dominated, and both the ideal
// single queue and JBSQ(2) cut the tail's wait share below half of the
// partitioned baseline's.
func TestFigureAnatomyClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickOptions-scale regeneration")
	}
	fig, err := Figures["anatomy"](QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range fig.Claims {
		if !c.Ok {
			t.Errorf("claim failed: %s", c)
		}
	}
}

// TestRecoveryHelpers pins the transient figure's analysis helpers.
func TestRecoveryHelpers(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := median([]float64{4, 1}); got != 4 {
		t.Fatalf("even median = %v (upper-middle)", got)
	}
	in := []float64{9, 2}
	_ = median(in)
	if in[0] != 9 {
		t.Fatal("median mutated its input")
	}
}

// TestFigureBurstClaims regenerates the burst study at QuickOptions scale —
// the acceptance scale — and requires both claims to hold: MMPP2 punishes
// the partitioned system disproportionately, and deterministic arrivals
// tighten every tail.
func TestFigureBurstClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickOptions-scale regeneration")
	}
	fig, err := Figures["burst"](QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range fig.Claims {
		if !c.Ok {
			t.Errorf("claim failed: %s", c)
		}
	}
}

// TestBudgetWorkers: sweep fan-out divides by the per-run goroutine team so
// the worker cap bounds total goroutines, never dropping below one
// simulation in flight.
func TestBudgetWorkers(t *testing.T) {
	cases := []struct {
		workers, cost, want int
	}{
		{16, 1, 16},
		{16, 5, 3},
		{4, 5, 1},  // team wider than the cap: sequential points
		{1, 99, 1}, // never zero
	}
	for _, c := range cases {
		if got := BudgetWorkers(c.workers, c.cost); got != c.want {
			t.Errorf("BudgetWorkers(%d, %d) = %d, want %d", c.workers, c.cost, got, c.want)
		}
	}
	if got := BudgetWorkers(0, 1); got != runtime.NumCPU() {
		t.Errorf("BudgetWorkers(0, 1) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
}

// TestShardSmoke is the `make shard-smoke` target: a short sharded
// figCluster run under the race detector in CI — the full harness path
// (figure → budgeted fan-out → sharded cluster.Run → pdes rounds) with
// every policy × mode cell exercising cross-shard traffic concurrently.
// Run twice to also smoke run-to-run determinism of the sharded figure.
func TestShardSmoke(t *testing.T) {
	o := tinyOptions()
	o.Points = 2
	o.Measure = 1500
	o.Shards = 4
	gen := func() Figure {
		fig, err := figCluster(o)
		if err != nil {
			t.Fatal(err)
		}
		if len(fig.Tables) == 0 {
			t.Fatal("sharded figCluster produced no tables")
		}
		for _, tbl := range fig.Tables {
			if len(tbl.Rows) != o.Points {
				t.Fatalf("table %q has %d rows, want %d", tbl.Title, len(tbl.Rows), o.Points)
			}
		}
		return fig
	}
	a, b := gen(), gen()
	for ti := range a.Tables {
		for ri := range a.Tables[ti].Rows {
			for ci := range a.Tables[ti].Rows[ri] {
				if a.Tables[ti].Rows[ri][ci] != b.Tables[ti].Rows[ri][ci] {
					t.Fatalf("sharded figCluster diverged run-to-run: table %q cell [%d][%d]: %v vs %v",
						a.Tables[ti].Title, ri, ci, a.Tables[ti].Rows[ri][ci], b.Tables[ti].Rows[ri][ci])
				}
			}
		}
	}
}

// TestRackFigure checks the rack figure's structure and determinism at toy
// cluster sizes: registered ID, both tables fully populated across the
// policy set, the claim set present, and identical cells run-to-run.
func TestRackFigure(t *testing.T) {
	if _, ok := Figures["rack"]; !ok {
		t.Fatal("rack figure not registered")
	}
	o := tinyOptions()
	o.Measure = 1500
	ns := []int{4, 9}
	gen := func() Figure {
		fig, err := figRackOver(o, ns)
		if err != nil {
			t.Fatal(err)
		}
		if len(fig.Tables) != 2 {
			t.Fatalf("rack figure has %d tables, want 2", len(fig.Tables))
		}
		for _, tbl := range fig.Tables {
			if len(tbl.Rows) != len(ns) || len(tbl.Columns) != 1+len(rackPolicyNames) {
				t.Fatalf("table %q is %d×%d, want %d×%d",
					tbl.Title, len(tbl.Rows), len(tbl.Columns), len(ns), 1+len(rackPolicyNames))
			}
		}
		if len(fig.Claims) != 4 {
			t.Fatalf("rack figure has %d claims, want 4", len(fig.Claims))
		}
		return fig
	}
	a, b := gen(), gen()
	for ti := range a.Tables {
		for ri := range a.Tables[ti].Rows {
			for ci := range a.Tables[ti].Rows[ri] {
				if a.Tables[ti].Rows[ri][ci] != b.Tables[ti].Rows[ri][ci] {
					t.Fatalf("rack figure diverged run-to-run: table %q cell [%d][%d]: %v vs %v",
						a.Tables[ti].Title, ri, ci, a.Tables[ti].Rows[ri][ci], b.Tables[ti].Rows[ri][ci])
				}
			}
		}
	}
}

// TestRackSmoke is the `make rack-smoke` CI gate: the rack figure at its
// full 1000-node size (reduced completion counts), generated twice, every
// table cell byte-identical — the depth-indexed balancer must stay
// deterministic at the scale that motivated it. The per-size memory cap in
// figRackOver keeps the 1000-node cells sequential, so the test stays inside
// race-detector memory budgets.
func TestRackSmoke(t *testing.T) {
	o := tinyOptions()
	o.Measure = 1500
	gen := func() Figure {
		fig, err := figRackOver(o, []int{1000})
		if err != nil {
			t.Fatal(err)
		}
		for _, tbl := range fig.Tables {
			if len(tbl.Rows) != 1 {
				t.Fatalf("table %q has %d rows, want 1", tbl.Title, len(tbl.Rows))
			}
		}
		return fig
	}
	a, b := gen(), gen()
	for ti := range a.Tables {
		for ci := range a.Tables[ti].Rows[0] {
			if a.Tables[ti].Rows[0][ci] != b.Tables[ti].Rows[0][ci] {
				t.Fatalf("1000-node rack figure diverged run-to-run: table %q cell [%d]: %v vs %v",
					a.Tables[ti].Title, ci, a.Tables[ti].Rows[0][ci], b.Tables[ti].Rows[0][ci])
			}
		}
	}
}

// TestHierFigure checks the hierarchical figure's structure and determinism
// at toy datacenter sizes: registered ID, all four tables populated, the
// five-claim set present, and identical cells run-to-run.
func TestHierFigure(t *testing.T) {
	if _, ok := Figures["hier"]; !ok {
		t.Fatal("hier figure not registered")
	}
	o := tinyOptions()
	o.Measure = 1500
	ns := []int{16, 24} // multiples of HierRacks
	gen := func() Figure {
		fig, err := figHierOver(o, ns)
		if err != nil {
			t.Fatal(err)
		}
		if len(fig.Tables) != 4 {
			t.Fatalf("hier figure has %d tables, want 4", len(fig.Tables))
		}
		for _, tbl := range fig.Tables[:2] {
			if len(tbl.Rows) != len(ns) || len(tbl.Columns) != 1+len(hierTopologies) {
				t.Fatalf("table %q is %d×%d, want %d×%d",
					tbl.Title, len(tbl.Rows), len(tbl.Columns), len(ns), 1+len(hierTopologies))
			}
		}
		for _, tbl := range fig.Tables[2:] {
			if len(tbl.Rows) != 2 {
				t.Fatalf("table %q has %d rows, want 2", tbl.Title, len(tbl.Rows))
			}
		}
		if len(fig.Claims) != 5 {
			t.Fatalf("hier figure has %d claims, want 5", len(fig.Claims))
		}
		return fig
	}
	a, b := gen(), gen()
	for ti := range a.Tables {
		for ri := range a.Tables[ti].Rows {
			for ci := range a.Tables[ti].Rows[ri] {
				if a.Tables[ti].Rows[ri][ci] != b.Tables[ti].Rows[ri][ci] {
					t.Fatalf("hier figure diverged run-to-run: table %q cell [%d][%d]: %v vs %v",
						a.Tables[ti].Title, ri, ci, a.Tables[ti].Rows[ri][ci], b.Tables[ti].Rows[ri][ci])
				}
			}
		}
	}
}

// TestHierSmoke is the `make hier-smoke` CI gate: the hierarchical figure at
// its full 1000-node size (reduced completion counts), generated twice,
// every table cell byte-identical — the stacked dispatch tier must stay as
// deterministic as the flat balancer at the scale that motivated it. The
// per-size memory cap in figHierOver keeps the 1000-node cells sequential,
// so the test stays inside race-detector memory budgets.
func TestHierSmoke(t *testing.T) {
	o := tinyOptions()
	o.Measure = 1500
	gen := func() Figure {
		fig, err := figHierOver(o, []int{1000})
		if err != nil {
			t.Fatal(err)
		}
		for _, tbl := range fig.Tables[:2] {
			if len(tbl.Rows) != 1 {
				t.Fatalf("table %q has %d rows, want 1", tbl.Title, len(tbl.Rows))
			}
		}
		return fig
	}
	a, b := gen(), gen()
	for ti := range a.Tables {
		for ri := range a.Tables[ti].Rows {
			for ci := range a.Tables[ti].Rows[ri] {
				if a.Tables[ti].Rows[ri][ci] != b.Tables[ti].Rows[ri][ci] {
					t.Fatalf("1000-node hier figure diverged run-to-run: table %q cell [%d][%d]: %v vs %v",
						a.Tables[ti].Title, ri, ci, a.Tables[ti].Rows[ri][ci], b.Tables[ti].Rows[ri][ci])
				}
			}
		}
	}
}

// qConfig is a small M/M/1 queueing model for the queueing-series tests.
func qConfig() queueing.Config {
	return queueing.Config{
		Queues: 1, ServersPerQueue: 1,
		Service: dist.Exponential{MeanValue: 1},
		Warmup:  500, Measure: 5000, Seed: 1,
	}
}

func TestQueueingSweepAndSLO(t *testing.T) {
	cfg := qConfig()
	cfg.Queues, cfg.ServersPerQueue = 1, 16
	curve, err := QueueingSweep(cfg, []float64{0.2, 0.5, 0.8}, 10, "1x16", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 3 || curve.Label != "1x16" {
		t.Fatalf("curve malformed: %+v", curve)
	}
	// SLO of 10×mean service (=10) should be met at least at the low loads.
	if curve.ThroughputUnderSLO() <= 0 {
		t.Fatal("no point met a 10x SLO at low load")
	}
	// An impossible SLO yields zero.
	if c, err := QueueingSweep(cfg, []float64{0.2, 0.5, 0.8}, 0.0001, "1x16", 2); err != nil || c.ThroughputUnderSLO() != 0 {
		t.Fatalf("impossible SLO: throughput %v, err %v", c.ThroughputUnderSLO(), err)
	}
}

func TestQueueingSweepPropagatesError(t *testing.T) {
	if _, err := QueueingSweep(qConfig(), []float64{-1}, 10, "bad", 1); err == nil {
		t.Fatal("expected error from invalid load")
	}
}

// TestQueueingSeriesSeeds pins the queueing series' triangular seed rule:
// point i is queueing.Run at Seed + 1e9·i(i+1)/2, the seed the retired
// serial sweep's running sum reached, not Seed + i·1e9.
func TestQueueingSeriesSeeds(t *testing.T) {
	cfg := qConfig()
	cfg.ServersPerQueue = 4
	loads := []float64{0.3, 0.5, 0.7, 0.9}
	curve, err := QueueingSweep(cfg, loads, 10, "1x4", 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(load float64, seed uint64) float64 {
		c := cfg
		c.Load, c.Seed = load, seed
		res, err := queueing.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency.P99
	}
	for i, load := range loads {
		want := run(load, cfg.Seed+uint64(i*(i+1)/2)*1e9)
		if got := curve.Points[i].P99; got != want {
			t.Fatalf("point %d p99 = %v, want %v (queueing.Run at the triangular seed)", i, got, want)
		}
	}
	if run(loads[2], cfg.Seed+2e9) == curve.Points[2].P99 {
		t.Fatal("point 2 also matches seed+2e9; the test cannot tell the seed rules apart")
	}
}
