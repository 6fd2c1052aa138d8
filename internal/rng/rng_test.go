package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("sequence diverged at %d: %d != %d", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	// Children must differ from each other.
	diff := false
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("two Split children produced identical sequences")
	}
}

func TestSplitReproducible(t *testing.T) {
	mk := func() *Source { return New(99).Split() }
	a, b := mk(), mk()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestOpenFloat64NeverZero(t *testing.T) {
	s := New(4)
	for i := 0; i < 100000; i++ {
		if v := s.OpenFloat64(); v <= 0 || v >= 1 {
			t.Fatalf("OpenFloat64 out of (0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntNRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n16 uint16) bool {
		n := int(n16%1000) + 1
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.IntN(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntNUniform(t *testing.T) {
	s := New(6)
	const n, draws = 8, 400000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[s.IntN(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.02 {
			t.Fatalf("bucket %d has %d draws, want ~%v", i, c, want)
		}
	}
}

func TestIntNPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntN(0) did not panic")
		}
	}()
	New(1).IntN(0)
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(8)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(9)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		x, y, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.x, c.y)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.x, c.y, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Float64()
	}
	_ = sink
}
