package workload

import (
	"math"
	"testing"

	"rpcvalet/internal/dist"
	"rpcvalet/internal/rng"
)

func sampleMean(d dist.Sampler, n int) float64 {
	r := rng.New(42)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	return sum / float64(n)
}

func TestAllProfilesValid(t *testing.T) {
	for _, p := range []Profile{
		SyntheticFixed(), SyntheticUniform(), SyntheticExp(), SyntheticGEV(),
		HERD(), Masstree(),
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good := SyntheticFixed()
	cases := map[string]func(p *Profile){
		"noClasses":  func(p *Profile) { p.Classes = nil },
		"badWeight":  func(p *Profile) { p.Classes[0].Weight = 0 },
		"nilService": func(p *Profile) { p.Classes[0].Service = nil },
		"noMeasured": func(p *Profile) { p.Classes[0].Measured = false },
		"badSizes":   func(p *Profile) { p.RequestBytes = 0 },
		"noSLO":      func(p *Profile) { p.SLOFactor = 0 },
		"infMean": func(p *Profile) {
			p.Classes[0].Service = dist.GEV{Loc: 0, Scale: 1, Shape: 2}
		},
	}
	for name, mutate := range cases {
		p := good
		p.Classes = append([]Class(nil), good.Classes...)
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("%s: invalid profile accepted", name)
		}
	}
}

// TestSyntheticMeans checks §5's construction: every synthetic profile has a
// 300 ns base plus a 300 ns average extra, i.e. 600 ns mean.
func TestSyntheticMeans(t *testing.T) {
	for _, p := range []Profile{SyntheticFixed(), SyntheticUniform(), SyntheticExp(), SyntheticGEV()} {
		m := p.MeanService()
		if math.Abs(m-600) > 6 { // GEV lands within 1%
			t.Errorf("%s mean = %v, want ~600", p.Name, m)
		}
	}
}

// TestHERDCalibration checks the HERD-like profile against Fig 6b's
// statistics: mean 330 ns, effectively all mass below ~1.2 µs.
func TestHERDCalibration(t *testing.T) {
	p := HERD()
	d := p.Classes[0].Service
	if math.Abs(d.Mean()-330) > 3 {
		t.Fatalf("HERD mean = %v, want 330", d.Mean())
	}
	if m := sampleMean(d, 200000); math.Abs(m-330) > 5 {
		t.Fatalf("HERD sampled mean = %v", m)
	}
	r := rng.New(7)
	over := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if d.Sample(r) > 1200 {
			over++
		}
	}
	if frac := float64(over) / n; frac > 0.005 {
		t.Fatalf("HERD tail beyond 1.2µs = %v of mass, want <0.5%%", frac)
	}
}

// TestMasstreeCalibration checks Fig 6c's statistics: get mean 1.25 µs,
// scans 60–120 µs at 1% weight.
func TestMasstreeCalibration(t *testing.T) {
	gets := MasstreeGets()
	if math.Abs(gets.Mean()-1250) > 10 {
		t.Fatalf("get mean = %v, want 1250", gets.Mean())
	}
	scans := MasstreeScans()
	if scans.Mean() != 90_000 {
		t.Fatalf("scan mean = %v, want 90000", scans.Mean())
	}
	r := rng.New(8)
	for i := 0; i < 10000; i++ {
		v := scans.Sample(r)
		if v < 60_000 || v > 120_000 {
			t.Fatalf("scan sample %v outside [60,120]µs", v)
		}
	}
	p := Masstree()
	// Weighted mean: 0.99×1.25µs + 0.01×90µs ≈ 2.14µs.
	if m := p.MeanService(); math.Abs(m-2137.5) > 15 {
		t.Fatalf("masstree mean service = %v, want ~2137", m)
	}
	if p.SLONanos != 12500 {
		t.Fatalf("masstree SLO = %v, want 12.5µs", p.SLONanos)
	}
	if p.Classes[1].Measured {
		t.Fatal("scans must not be latency-measured")
	}
}

func TestPickClassFrequencies(t *testing.T) {
	p := Masstree()
	r := rng.New(9)
	scans := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if p.PickClass(r) == 1 {
			scans++
		}
	}
	frac := float64(scans) / n
	if math.Abs(frac-0.01) > 0.002 {
		t.Fatalf("scan frequency = %v, want ~0.01", frac)
	}
}

func TestSyntheticLookup(t *testing.T) {
	for _, kind := range []string{"fixed", "uniform", "exp", "gev"} {
		p, err := Synthetic(kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if p.Name != "synthetic-"+kind {
			t.Fatalf("name = %q", p.Name)
		}
	}
	if _, err := Synthetic("zipf"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestProfileFraming(t *testing.T) {
	// The paper's microbenchmark sends 512B replies.
	for _, p := range []Profile{SyntheticFixed(), HERD(), Masstree()} {
		if p.ReplyBytes != 512 {
			t.Errorf("%s reply = %dB, want 512", p.Name, p.ReplyBytes)
		}
		if p.RequestBytes <= 0 {
			t.Errorf("%s request size missing", p.Name)
		}
	}
}

// TestVarianceOrdering: the synthetic profiles must be ordered by variance
// (fixed < uniform < exp < gev), which drives the Fig 2/7 tail ordering.
func TestVarianceOrdering(t *testing.T) {
	variance := func(d dist.Sampler) float64 {
		r := rng.New(11)
		const n = 300000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := d.Sample(r)
			sum += v
			sumSq += v * v
		}
		m := sum / n
		return sumSq/n - m*m
	}
	profiles := []Profile{SyntheticFixed(), SyntheticUniform(), SyntheticExp(), SyntheticGEV()}
	var prev float64 = -1
	for _, p := range profiles {
		v := variance(p.Classes[0].Service)
		if v <= prev {
			t.Fatalf("variance ordering violated at %s: %v <= %v", p.Name, v, prev)
		}
		prev = v
	}
}

// TestByName: every workload name the command-line tools accept resolves to
// its profile, and anything else errors.
func TestByName(t *testing.T) {
	cases := map[string]string{
		"herd":     "herd",
		"masstree": "masstree",
		"fixed":    "synthetic-fixed",
		"uniform":  "synthetic-uniform",
		"exp":      "synthetic-exp",
		"gev":      "synthetic-gev",
	}
	if len(cases) != len(SyntheticKinds)+2 {
		t.Fatalf("table covers %d names, want every synthetic kind plus herd and masstree", len(cases))
	}
	for name, want := range cases {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name != want {
			t.Errorf("%s resolved to %q, want %q", name, p.Name, want)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, bad := range []string{"", "HERD", "gev2", "synthetic-exp"} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("ByName(%q) accepted", bad)
		}
	}
}

// TestUnit: every synthetic kind has a unit-mean service shape, unknown kinds
// error, and the GEV shape is §5's GEV(363, 100, 0.65) normalized — the
// same draws, bit for bit.
func TestUnit(t *testing.T) {
	for _, kind := range SyntheticKinds {
		d, err := Unit(kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if m := d.Mean(); math.Abs(m-1) > 1e-12 {
			t.Errorf("Unit(%q).Mean() = %v, want 1", kind, m)
		}
	}
	for _, bad := range []string{"", "herd", "masstree", "normal"} {
		if _, err := Unit(bad); err == nil {
			t.Errorf("Unit(%q) accepted", bad)
		}
	}
	got, err := Unit("gev")
	if err != nil {
		t.Fatal(err)
	}
	want := dist.Normalized(dist.GEV{Loc: 363, Scale: 100, Shape: 0.65})
	rg, rw := rng.New(9), rng.New(9)
	for i := 0; i < 10000; i++ {
		if a, b := got.Sample(rg), want.Sample(rw); a != b {
			t.Fatalf("draw %d: %v, want %v", i, a, b)
		}
	}
}
