package arrival

import (
	"math"
	"reflect"
	"testing"

	"rpcvalet/internal/dist"
	"rpcvalet/internal/rng"
	"rpcvalet/internal/sim"
)

// TestPoissonRateConversion pins the single MRPS→interarrival conversion the
// whole repository now routes through: 1000/rate for MRPS, 1/lambda for
// per-ns rates. These must stay exactly (not approximately) these
// expressions — the machine and cluster simulators' historical byte-for-byte
// reproducibility depends on it.
func TestPoissonRateConversion(t *testing.T) {
	for _, rate := range []float64{0.5, 1, 4, 12.7, 30} {
		if got, want := PoissonAtMRPS(rate).MeanGapNanos, 1000/rate; got != want {
			t.Fatalf("PoissonAtMRPS(%v) mean gap = %v, want %v", rate, got, want)
		}
	}
	for _, lambda := range []float64{0.001, 0.004, 0.0217} {
		if got, want := PoissonAtPerNs(lambda).MeanGapNanos, 1/lambda; got != want {
			t.Fatalf("PoissonAtPerNs(%v) mean gap = %v, want %v", lambda, got, want)
		}
	}
	// 1 MRPS is one request per microsecond, i.e. 0.001 per ns.
	if PoissonAtMRPS(1).MeanGapNanos != 1000 || PoissonAtPerNs(0.001).MeanGapNanos != 1000 {
		t.Fatal("MRPS and per-ns parameterizations disagree at 1 MRPS")
	}
}

// TestPoissonMatchesLegacyExponential: the Poisson process must reproduce
// the exact gap sequence the simulators used to compute inline via
// dist.Exponential{MeanValue: 1000/rate}.
func TestPoissonMatchesLegacyExponential(t *testing.T) {
	const rate = 7.3
	p := PoissonAtMRPS(rate)
	legacy := dist.Exponential{MeanValue: 1000 / rate}
	a, b := rng.New(42), rng.New(42)
	for i := 0; i < 1000; i++ {
		want := sim.FromNanos(legacy.Sample(a))
		if got := p.Next(b); got != want {
			t.Fatalf("gap %d: %v != legacy %v", i, got, want)
		}
	}
}

// meanGap estimates a process's mean gap in ns over n draws.
func meanGap(p Process, n int, seed uint64) float64 {
	r := rng.New(seed)
	total := sim.Duration(0)
	for i := 0; i < n; i++ {
		total += p.Next(r)
	}
	return total.Nanos() / float64(n)
}

func TestMeanRates(t *testing.T) {
	const rate = 5.0 // MRPS → 200 ns mean gap
	for _, name := range Names {
		p, err := ByName(name, rate)
		if err != nil {
			t.Fatal(err)
		}
		got := meanGap(Fresh(p), 200000, 11)
		if math.Abs(got-200) > 200*0.05 {
			t.Errorf("%s: mean gap %v ns, want 200±5%%", name, got)
		}
	}
}

func TestDeterministicGap(t *testing.T) {
	p := DeterministicAtMRPS(4)
	if p.GapNanos != 250 {
		t.Fatalf("gap = %v, want 250", p.GapNanos)
	}
	r := rng.New(1)
	for i := 0; i < 10; i++ {
		if g := p.Next(r); g != sim.FromNanos(250) {
			t.Fatalf("draw %d: %v", i, g)
		}
	}
}

func TestLognormalMean(t *testing.T) {
	p := LognormalAtMRPS(2, 1.5)
	if got := p.MeanGapNanos(); math.Abs(got-500) > 1e-9 {
		t.Fatalf("analytic mean gap = %v, want 500", got)
	}
}

func TestMMPP2Construction(t *testing.T) {
	p := NewMMPP2(10, 4, 20000, 5000)
	if got := p.MeanRatePerNs(); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("mean rate = %v per ns, want 0.01", got)
	}
	if got := p.BurstRatio(); math.Abs(got-4) > 1e-12 {
		t.Fatalf("burst ratio = %v, want 4", got)
	}
	if p.BurstRate <= p.CalmRate {
		t.Fatal("burst rate not above calm rate")
	}
}

func TestMMPP2BurstierThanPoisson(t *testing.T) {
	// Squared CV of gaps: Poisson gives 1; MMPP2 must exceed it.
	scv := func(p Process, n int) float64 {
		r := rng.New(9)
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			g := p.Next(r).Nanos()
			sum += g
			sumSq += g * g
		}
		mean := sum / float64(n)
		return (sumSq/float64(n) - mean*mean) / (mean * mean)
	}
	mmpp := scv(NewMMPP2(5, DefaultBurstRatio, DefaultCalmDwellNanos, DefaultBurstDwellNanos), 200000)
	poisson := scv(PoissonAtMRPS(5), 200000)
	if mmpp < poisson*1.2 {
		t.Fatalf("MMPP2 gap SCV %v not burstier than Poisson's %v", mmpp, poisson)
	}
}

func TestFreshIsolatesMMPP2State(t *testing.T) {
	base := NewMMPP2(5, 4, 2000, 500)
	// Drive one clone far enough to likely flip into a burst phase.
	dirty := Fresh(base).(*MMPP2)
	r := rng.New(3)
	for i := 0; i < 5000; i++ {
		dirty.Next(r)
	}
	// Fresh copies of the (untouched) base must produce identical sequences.
	a, b := Fresh(base), Fresh(base)
	ra, rb := rng.New(7), rng.New(7)
	for i := 0; i < 5000; i++ {
		if a.Next(ra) != b.Next(rb) {
			t.Fatalf("fresh clones diverged at draw %d", i)
		}
	}
	if base.dwellSet || base.burst {
		t.Fatal("Fresh mutated the template process")
	}
}

func TestAtMRPSPreservesShape(t *testing.T) {
	p := NewMMPP2(5, 4, 20000, 5000)
	q := p.AtMRPS(10).(*MMPP2)
	if math.Abs(q.MeanRatePerNs()-0.01) > 1e-12 {
		t.Fatalf("re-rated mean = %v, want 0.01", q.MeanRatePerNs())
	}
	if math.Abs(q.BurstRatio()-4) > 1e-9 {
		t.Fatalf("re-rating changed burst ratio: %v", q.BurstRatio())
	}
	// Dwells scale inversely with rate: arrivals per phase are preserved.
	if math.Abs(q.CalmDwellNanos-10000) > 1e-9 || math.Abs(q.BurstDwellNanos-2500) > 1e-9 {
		t.Fatalf("dwells = %v/%v, want 10000/2500", q.CalmDwellNanos, q.BurstDwellNanos)
	}
	if math.Abs(q.CalmRate*q.CalmDwellNanos-p.CalmRate*p.CalmDwellNanos) > 1e-9 {
		t.Fatal("arrivals per calm phase not preserved")
	}
	ln := LognormalAtMRPS(5, 1.5).AtMRPS(10).(LognormalGap)
	if ln.Sigma != 1.5 || math.Abs(ln.MeanGapNanos()-100) > 1e-9 {
		t.Fatalf("lognormal re-rate: sigma=%v mean=%v", ln.Sigma, ln.MeanGapNanos())
	}
	if AtMRPS(PoissonAtMRPS(5), 10).(Poisson).MeanGapNanos != 100 {
		t.Fatal("helper AtMRPS did not re-rate poisson")
	}
	if AtMRPS(PoissonAtMRPS(5), 0).(Poisson).MeanGapNanos != 200 {
		t.Fatal("AtMRPS with zero rate should be a no-op")
	}
}

func TestByName(t *testing.T) {
	types := map[string]Process{"poisson": Poisson{}, "det": Deterministic{}, "deterministic": Deterministic{},
		"mmpp2": &MMPP2{}, "lognormal": LognormalGap{}}
	for _, name := range append([]string{"deterministic"}, Names...) {
		p, err := ByName(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := types[name]
		if !ok || reflect.TypeOf(p) != reflect.TypeOf(want) {
			t.Fatalf("ByName(%q) = %T, want %T", name, p, want)
		}
		if p.String() == "" {
			t.Fatalf("%s: empty String()", name)
		}
	}
	if _, err := ByName("bogus", 3); err == nil {
		t.Fatal("unknown name accepted")
	}
	if _, err := ByName("poisson", 0); err == nil {
		t.Fatal("zero rate accepted")
	}
}

// TestDegenerateRatesPanic: a zero or negative rate would yield infinite or
// NaN gaps and spin a simulation forever at virtual time zero, so every
// constructor must reject it loudly.
func TestDegenerateRatesPanic(t *testing.T) {
	cases := map[string]func(){
		"poissonMRPS":  func() { PoissonAtMRPS(0) },
		"poissonPerNs": func() { PoissonAtPerNs(-1) },
		"det":          func() { DeterministicAtMRPS(0) },
		"lognormal":    func() { LognormalAtMRPS(-2, 1.5) },
		"mmpp2":        func() { NewMMPP2(0, 2, 100, 100) },
	}
	for name, build := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: degenerate rate accepted", name)
				}
			}()
			build()
		}()
	}
}

func TestResolve(t *testing.T) {
	if p := Resolve(nil, 5); p.(Poisson).MeanGapNanos != 200 {
		t.Fatalf("Resolve(nil, 5) = %v", p)
	}
	if p := Resolve(nil, 0); p != nil {
		t.Fatalf("Resolve(nil, 0) = %v, want nil", p)
	}
	if p := Resolve(DeterministicAtMRPS(1), 5); p.(Deterministic).GapNanos != 200 {
		t.Fatalf("Resolve re-rate = %v", p)
	}
	mm := NewMMPP2(5, 2, 1000, 1000)
	r := rng.New(1)
	Resolve(mm, 5).Next(r) // drives the clone, not the template
	if mm.dwellSet {
		t.Fatal("Resolve shared the template's run state")
	}
}
