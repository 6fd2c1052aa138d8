package arrival

import (
	"math"
	"testing"

	"rpcvalet/internal/rng"
)

// integrate numerically checks Advance against the factor's cumulative
// integral: FactorAt integrated over [t, t+Advance(t, area)] must equal area.
func checkAdvance(t *testing.T, e Envelope, from, area float64) {
	t.Helper()
	dt := e.Advance(from, area)
	if dt < 0 {
		t.Fatalf("%s.Advance(%g, %g) = %g < 0", e, from, area, dt)
	}
	// Trapezoidal integration at fine steps (envelopes are piecewise
	// linear, so this converges fast).
	const steps = 200000
	h := dt / steps
	sum := 0.0
	for i := 0; i < steps; i++ {
		a := from + float64(i)*h
		sum += h * (e.FactorAt(a) + e.FactorAt(a+h)) / 2
	}
	if rel := math.Abs(sum-area) / area; rel > 1e-3 {
		t.Fatalf("%s.Advance(%g, %g) = %g integrates to %g (rel err %g)", e, from, area, dt, sum, rel)
	}
}

func TestEnvelopeAdvanceInvertsIntegral(t *testing.T) {
	envs := []Envelope{
		NewStep(1000, 2),
		NewStep(1000, 0.5),
		NewPulse(1000, 500, 3),
		NewRamp(1000, 2000, 2.5),
		NewRamp(500, 1000, 0.25),
		NewSquareWave(400, 100, 2),
	}
	for _, e := range envs {
		for _, from := range []float64{0, 900, 1000, 1200, 2900, 5000} {
			for _, area := range []float64{10, 500, 1500, 6000} {
				checkAdvance(t, e, from, area)
			}
		}
	}
}

func TestEnvelopeFactors(t *testing.T) {
	s := NewStep(100, 2)
	if s.FactorAt(99) != 1 || s.FactorAt(100) != 2 || s.FactorAt(1e9) != 2 {
		t.Fatal("step factors wrong")
	}
	p := NewPulse(100, 50, 3)
	if p.FactorAt(99) != 1 || p.FactorAt(100) != 3 || p.FactorAt(149) != 3 || p.FactorAt(150) != 1 {
		t.Fatal("pulse factors wrong")
	}
	r := NewRamp(100, 100, 3)
	if r.FactorAt(0) != 1 || r.FactorAt(150) != 2 || r.FactorAt(200) != 3 || r.FactorAt(1e9) != 3 {
		t.Fatal("ramp factors wrong")
	}
	q := NewSquareWave(100, 25, 2)
	if q.FactorAt(10) != 2 || q.FactorAt(30) != 1 || q.FactorAt(110) != 2 || q.FactorAt(160) != 1 {
		t.Fatal("square factors wrong")
	}
}

// TestModulatedMeanRate: over a region where the envelope holds factor f,
// the modulated process's mean rate is f × the base rate, for every base
// shape.
func TestModulatedMeanRate(t *testing.T) {
	const rate = 10.0 // MRPS → mean gap 100ns
	for _, base := range []Process{
		PoissonAtMRPS(rate),
		DeterministicAtMRPS(rate),
		LognormalAtMRPS(rate, 1.0),
		NewMMPP2(rate, 2, 4000, 2000),
	} {
		m := Fresh(NewModulated(base, NewStep(0, 2))).(*Modulated) // factor 2 from t=0
		r := rng.New(7)
		n := 20000
		total := 0.0
		for i := 0; i < n; i++ {
			total += m.Next(r).Nanos()
		}
		meanGap := total / float64(n)
		want := 100.0 / 2 // base gap compressed 2×
		if math.Abs(meanGap-want)/want > 0.08 {
			t.Errorf("%s: mean gap %g, want ≈%g", base.Name(), meanGap, want)
		}
	}
}

// TestModulatedPulseDensity: arrivals inside a pulse come factor× denser
// than outside it.
func TestModulatedPulseDensity(t *testing.T) {
	const rate = 10.0
	pulse := NewPulse(200_000, 100_000, 3)
	m := Fresh(NewModulated(PoissonAtMRPS(rate), pulse)).(*Modulated)
	r := rng.New(3)
	tNow, inPulse, prePulse := 0.0, 0, 0
	for tNow < 500_000 {
		tNow += m.Next(r).Nanos()
		switch {
		case tNow >= 200_000 && tNow < 300_000:
			inPulse++
		case tNow < 200_000:
			prePulse++
		}
	}
	// Pre-pulse: 200µs at 10/µs ≈ 2000 arrivals; pulse: 100µs at 30/µs ≈ 3000.
	perUsIn, perUsPre := float64(inPulse)/100, float64(prePulse)/200
	if ratio := perUsIn / perUsPre; ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("pulse density ratio = %.2f, want ≈3 (in %d, pre %d)", ratio, inPulse, prePulse)
	}
}

// TestModulatedDeterminism: same seed, same gap sequence; Fresh resets run
// state so a reused config does not leak clock position across runs.
func TestModulatedDeterminism(t *testing.T) {
	cfgProcess := NewModulated(PoissonAtMRPS(5), NewSquareWave(50_000, 10_000, 2))
	gaps := func() []float64 {
		p := Fresh(cfgProcess)
		r := rng.New(42)
		out := make([]float64, 500)
		for i := range out {
			out[i] = p.Next(r).Nanos()
		}
		return out
	}
	a, b := gaps(), gaps()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("gap %d differs: %g vs %g", i, a[i], b[i])
		}
	}
	// The original wrapper's state must be untouched by the Fresh clones.
	if cfgProcess.tNanos != 0 {
		t.Fatalf("config-held process mutated: t=%g", cfgProcess.tNanos)
	}
}

// TestModulatedRerates: AtMRPS re-rates the base (the factor-1 rate) while
// keeping the envelope.
func TestModulatedRerates(t *testing.T) {
	m := NewModulated(PoissonAtMRPS(1), NewStep(0, 2))
	rr := AtMRPS(m, 20).(*Modulated)
	if rr.Base.(Poisson).MeanGapNanos != 50 {
		t.Fatalf("base not re-rated: %+v", rr.Base)
	}
	if rr.Env.(Step).Factor != 2 {
		t.Fatalf("envelope lost in re-rating: %+v", rr.Env)
	}
	// Resolve composes re-rating and freshening without losing the wrapper.
	p := Resolve(m, 20)
	if _, ok := p.(*Modulated); !ok {
		t.Fatalf("Resolve returned %T", p)
	}
}

func TestParseEnvelope(t *testing.T) {
	cases := map[string]string{
		"step@400us:x2":          "step@400000ns:x2",
		"pulse@400us+200us:x2":   "pulse@400000ns+200000ns:x2",
		"ramp@100us+500us:x3":    "ramp@100000ns+500000ns:x3",
		"square@200us/50us:x2.5": "square@200000ns/50000ns:x2.5",
		"step@1000:x0.5":         "step@1000ns:x0.5",
		"step@1.5ms:x2":          "step@1500000ns:x2",
		"pulse@1ms+1us:x2":       "pulse@1000000ns+1000ns:x2",
		"ramp@2ms+1us:x3":        "ramp@2000000ns+1000ns:x3",
		"square@2ms/1ms:x2":      "square@2000000ns/1000000ns:x2",
	}
	for spec, want := range cases {
		e, err := ParseEnvelope(spec)
		if err != nil {
			t.Errorf("ParseEnvelope(%q): %v", spec, err)
			continue
		}
		if e.String() != want {
			t.Errorf("ParseEnvelope(%q) = %s, want %s", spec, e, want)
		}
	}
	for _, bad := range []string{
		"", "step", "step@400us", "step@400us:y2", "step@400us:x0", "step@zz:x2",
		"pulse@400us:x2", "pulse@400us+0:x2", "ramp@1us+0:x2",
		"square@50us/50us:x2", "square@50us+10us:x2", "sine@50us:x2",
		"step@NaN:x2", "step@inf:x2", "step@1e30s:x2", "pulse@NaN+1us:x2",
		"ramp@1us+inf:x2", "step@400us:xNaN", "step@400us:xInf",
		"square@200us/50us:xInf", "pulse@1us+1us:x+Inf",
	} {
		if _, err := ParseEnvelope(bad); err == nil {
			t.Errorf("ParseEnvelope(%q) accepted", bad)
		}
	}
}

func TestModulatedString(t *testing.T) {
	m := NewModulated(PoissonAtMRPS(10), NewPulse(100, 50, 2))
	if m.Name() != "modulated" {
		t.Fatalf("name = %s", m.Name())
	}
	want := "pulse@100ns+50ns:x2(poisson(mean=100ns))"
	if m.String() != want {
		t.Fatalf("string = %s, want %s", m, want)
	}
}

func TestNestedModulatedRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nested Modulated accepted")
		}
	}()
	NewModulated(NewModulated(PoissonAtMRPS(1), NewStep(0, 2)), NewStep(0, 2))
}

func TestParseEnvelopeRejectsTrailingGarbage(t *testing.T) {
	for _, bad := range []string{"step@400us:x2..5", "step@400us:x2x3", "pulse@1us+1us:x1e"} {
		if _, err := ParseEnvelope(bad); err == nil {
			t.Errorf("ParseEnvelope(%q) accepted", bad)
		}
	}
}

// FuzzParseEnvelope checks that no spec panics the parser and that every
// accepted spec's String() parses back to an equal Envelope.
func FuzzParseEnvelope(f *testing.F) {
	for _, seed := range []string{
		"step@400us:x2", "pulse@400us+200us:x2", "ramp@100us+500us:x3",
		"square@200us/50us:x2.5", "step@1000:x0.5",
		"step@NaN:x2", "step@1e30s:x2", "square@200us/50us:xInf",
		"step@999999999999.999999ns:x2", "pulse@1ms+1us:x2", "ramp@2ms+1us:x3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		e, err := ParseEnvelope(spec)
		if err != nil {
			return
		}
		back, err := ParseEnvelope(e.String())
		if err != nil {
			t.Fatalf("ParseEnvelope(%q) = %v, which does not parse back: %v", spec, e, err)
		}
		if back != e {
			t.Fatalf("ParseEnvelope(%q) = %#v, String %q parses back to %#v", spec, e, e, back)
		}
	})
}
