package queueing

import (
	"math"
	"testing"
	"testing/quick"

	"rpcvalet/internal/dist"
)

func run(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func baseConfig() Config {
	return Config{
		Queues:          1,
		ServersPerQueue: 1,
		Service:         dist.Exponential{MeanValue: 1},
		Load:            0.5,
		Warmup:          2000,
		Measure:         60000,
		Seed:            1,
	}
}

func TestValidation(t *testing.T) {
	bad := []Config{
		{Queues: 0, ServersPerQueue: 1, Service: dist.Fixed{Value: 1}, Load: 0.5, Measure: 10},
		{Queues: 1, ServersPerQueue: 0, Service: dist.Fixed{Value: 1}, Load: 0.5, Measure: 10},
		{Queues: 1, ServersPerQueue: 1, Load: 0.5, Measure: 10},
		{Queues: 1, ServersPerQueue: 1, Service: dist.Fixed{Value: 1}, Load: 0, Measure: 10},
		{Queues: 1, ServersPerQueue: 1, Service: dist.Fixed{Value: 1}, Load: 2, Measure: 10},
		{Queues: 1, ServersPerQueue: 1, Service: dist.Fixed{Value: 1}, Load: 0.5, Measure: 0},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

func TestInfiniteMeanServiceRejected(t *testing.T) {
	cfg := baseConfig()
	cfg.Service = dist.GEV{Loc: 0, Scale: 1, Shape: 1.5}
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected error for infinite-mean service distribution")
	}
}

// TestMM1MeanSojourn validates the DES against the closed-form M/M/1 result:
// E[T] = 1/(µ−λ).
func TestMM1MeanSojourn(t *testing.T) {
	for _, load := range []float64{0.3, 0.5, 0.7, 0.9} {
		cfg := baseConfig()
		cfg.Load = load
		// High loads relax slowly from the empty start; give them more
		// warmup and a longer measurement window.
		cfg.Warmup = 30000
		cfg.Measure = 300000
		res := run(t, cfg)
		want := MM1MeanSojourn(load, 1) // µ=1 since E[S]=1
		got := res.Latency.Mean
		if math.Abs(got-want)/want > 0.06 {
			t.Errorf("load %v: mean sojourn %v, analytic %v", load, got, want)
		}
	}
}

// TestMM1P99 validates the DES tail against the exponential sojourn
// distribution of M/M/1: p99 = ln(100)/(µ−λ).
func TestMM1P99(t *testing.T) {
	cfg := baseConfig()
	cfg.Load = 0.7
	cfg.Measure = 120000
	res := run(t, cfg)
	want := MM1SojournQuantile(0.7, 1, 0.99)
	if math.Abs(res.Latency.P99-want)/want > 0.08 {
		t.Errorf("p99 = %v, analytic %v", res.Latency.P99, want)
	}
}

// TestMMcMeanWait validates the multi-server station against Erlang-C.
func TestMMcMeanWait(t *testing.T) {
	cfg := baseConfig()
	cfg.ServersPerQueue = 16
	cfg.Load = 0.8
	cfg.Measure = 120000
	res := run(t, cfg)
	lambda := 0.8 * 16
	want := MMcMeanWait(16, lambda, 1)
	got := res.Wait.Mean
	if math.Abs(got-want) > 0.02*MMcMeanSojourn(16, lambda, 1) {
		t.Errorf("mean wait %v, Erlang-C %v", got, want)
	}
}

// TestMD1MeanWait validates deterministic service against Pollaczek–Khinchine.
func TestMD1MeanWait(t *testing.T) {
	cfg := baseConfig()
	cfg.Service = dist.Fixed{Value: 1}
	cfg.Load = 0.7
	cfg.Measure = 120000
	res := run(t, cfg)
	want := MD1MeanWait(0.7, 1)
	if math.Abs(res.Wait.Mean-want)/want > 0.06 {
		t.Errorf("M/D/1 mean wait %v, analytic %v", res.Wait.Mean, want)
	}
}

// TestMG1MeanWait validates the P-K formula with uniform service.
func TestMG1MeanWait(t *testing.T) {
	cfg := baseConfig()
	cfg.Service = dist.Uniform{Lo: 0, Hi: 2} // mean 1, E[S^2]=4/3
	cfg.Load = 0.6
	cfg.Measure = 120000
	res := run(t, cfg)
	want := MG1MeanWait(0.6, 1, 4.0/3)
	if math.Abs(res.Wait.Mean-want)/want > 0.08 {
		t.Errorf("M/G/1 mean wait %v, analytic %v", res.Wait.Mean, want)
	}
}

func TestErlangCProperties(t *testing.T) {
	// c=1 reduces to rho.
	if got, want := ErlangC(1, 0.6, 1), 0.6; math.Abs(got-want) > 1e-12 {
		t.Fatalf("ErlangC(1) = %v, want %v", got, want)
	}
	// Unstable system always waits.
	if ErlangC(4, 10, 1) != 1 {
		t.Fatal("unstable ErlangC should be 1")
	}
	// More servers at equal per-server load wait less.
	if !(ErlangC(16, 0.8*16, 1) < ErlangC(2, 0.8*2, 1)) {
		t.Fatal("ErlangC should decrease with pooling")
	}
}

func TestMMcWaitQuantile(t *testing.T) {
	// Below the no-wait probability mass, quantile is 0.
	if q := MMcWaitQuantile(16, 8, 1, 0.5); q != 0 {
		t.Fatalf("median wait at low load = %v, want 0", q)
	}
	// High quantiles are positive and increase with p.
	q90 := MMcWaitQuantile(16, 15, 1, 0.90)
	q99 := MMcWaitQuantile(16, 15, 1, 0.99)
	if !(q99 > q90 && q90 > 0) {
		t.Fatalf("wait quantiles not increasing: q90=%v q99=%v", q90, q99)
	}
}

// TestPoolingDominance is the paper's core theoretical claim (§2.2, Fig 2a):
// for the same total service capacity, fewer-queues-more-servers dominates.
// We check p99(1×16) < p99(4×4) < p99(16×1) at high load.
func TestPoolingDominance(t *testing.T) {
	shapes := []struct{ q, u int }{{1, 16}, {4, 4}, {16, 1}}
	var p99s []float64
	for _, s := range shapes {
		cfg := baseConfig()
		cfg.Queues, cfg.ServersPerQueue = s.q, s.u
		cfg.Load = 0.8
		cfg.Measure = 80000
		res := run(t, cfg)
		p99s = append(p99s, res.Latency.P99)
	}
	if !(p99s[0] < p99s[1] && p99s[1] < p99s[2]) {
		t.Fatalf("pooling dominance violated: 1x16=%v 4x4=%v 16x1=%v", p99s[0], p99s[1], p99s[2])
	}
}

// TestVarianceOrdering reproduces Fig 2b/2c's observation: the higher the
// service-time variance, the higher the tail, for both 1×16 and 16×1.
func TestVarianceOrdering(t *testing.T) {
	gev := dist.GEV{Loc: 363, Scale: 100, Shape: 0.65}
	dists := []dist.Sampler{
		dist.Fixed{Value: 1},
		dist.Normalized(dist.Uniform{Lo: 0, Hi: 2}),
		dist.Exponential{MeanValue: 1},
		dist.Normalized(gev),
	}
	for _, shape := range []struct{ q, u int }{{1, 16}, {16, 1}} {
		var prev float64
		for i, d := range dists {
			cfg := baseConfig()
			cfg.Queues, cfg.ServersPerQueue = shape.q, shape.u
			cfg.Service = d
			cfg.Load = 0.6
			cfg.Measure = 80000
			res := run(t, cfg)
			if i > 0 && res.Latency.P99 < prev*0.98 {
				t.Errorf("%dx%d: tail ordering violated at dist %d: %v < %v",
					shape.q, shape.u, i, res.Latency.P99, prev)
			}
			prev = res.Latency.P99
		}
	}
}

// TestTailGrowsWithLoad: p99 must be monotonically non-decreasing in load
// (within noise) for a 1×16 exponential system.
func TestTailGrowsWithLoad(t *testing.T) {
	cfg := baseConfig()
	cfg.Queues, cfg.ServersPerQueue = 1, 16
	cfg.Measure = 50000
	var prev float64
	for _, load := range []float64{0.2, 0.5, 0.8, 0.95} {
		cfg.Load = load
		res := run(t, cfg)
		if res.Latency.P99 < prev*0.95 {
			t.Fatalf("p99 decreased with load: %v -> %v at %v", prev, res.Latency.P99, load)
		}
		prev = res.Latency.P99
	}
}

func TestThroughputMatchesOffered(t *testing.T) {
	cfg := baseConfig()
	cfg.Queues, cfg.ServersPerQueue = 1, 16
	cfg.Load = 0.6
	cfg.Measure = 100000
	res := run(t, cfg)
	offered := 0.6 * 16 / 1.0 // λ = ρ·c/E[S] per ns
	if math.Abs(res.Throughput-offered)/offered > 0.03 {
		t.Fatalf("throughput %v, offered %v", res.Throughput, offered)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := baseConfig()
	cfg.Load = 0.8
	cfg.Measure = 20000
	a := run(t, cfg)
	b := run(t, cfg)
	if a.Latency != b.Latency || a.Throughput != b.Throughput {
		t.Fatal("identical seeds produced different results")
	}
	cfg.Seed = 2
	c := run(t, cfg)
	if a.Latency == c.Latency {
		t.Fatal("different seeds produced identical results")
	}
}

func TestLatencyAtLeastService(t *testing.T) {
	// Sojourn time can never be below the minimum service time.
	cfg := baseConfig()
	cfg.Service = dist.Shifted{Base: 0.5, Inner: dist.Exponential{MeanValue: 0.5}}
	cfg.Load = 0.7
	cfg.Measure = 30000
	res := run(t, cfg)
	if res.Latency.Min < 0.5 {
		t.Fatalf("min sojourn %v below min service 0.5", res.Latency.Min)
	}
}

func TestSplitService(t *testing.T) {
	d := SplitService(dist.Exponential{MeanValue: 1}, 330, 550)
	if math.Abs(d.Mean()-550) > 1e-9 {
		t.Fatalf("split mean = %v, want 550", d.Mean())
	}
	// Minimum possible value is the fixed part.
	q := d.(dist.Quantiler)
	if fixed := q.Quantile(0.000001); fixed < 219 || fixed > 221 {
		t.Fatalf("fixed part = %v, want 220", fixed)
	}
}

func TestSplitServicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SplitService(dist.Fixed{Value: 1}, 10, 5)
}

// Property: the single-queue system is never (statistically) worse than the
// fully partitioned one at equal load, for any service distribution drawn
// from our menagerie.
func TestPropertySingleQueueDominates(t *testing.T) {
	dists := []dist.Sampler{
		dist.Fixed{Value: 1},
		dist.Exponential{MeanValue: 1},
		dist.Normalized(dist.GEV{Loc: 363, Scale: 100, Shape: 0.65}),
	}
	f := func(seed uint64, loadPct uint8) bool {
		load := 0.3 + float64(loadPct%60)/100 // 0.3..0.89
		d := dists[int(seed%uint64(len(dists)))]
		mk := func(q, u int) float64 {
			res, err := Run(Config{
				Queues: q, ServersPerQueue: u, Service: d,
				Load: load, Warmup: 500, Measure: 15000, Seed: seed,
			})
			if err != nil {
				return math.NaN()
			}
			return res.Latency.P99
		}
		single := mk(1, 16)
		part := mk(16, 1)
		// Allow 10% noise tolerance on a short run.
		return single <= part*1.1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
