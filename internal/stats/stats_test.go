package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"rpcvalet/internal/rng"
)

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Count() != 0 || s.Mean() != 0 || s.Quantile(0.99) != 0 || s.Variance() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestSampleBasic(t *testing.T) {
	var s Sample
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.Count() != 5 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Mean() != 3 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if s.Quantile(0.5) != 3 {
		t.Fatalf("median = %v", s.Quantile(0.5))
	}
	if s.Quantile(0) != 1 || s.Quantile(1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	if v := s.Variance(); math.Abs(v-2) > 1e-12 {
		t.Fatalf("variance = %v, want 2", v)
	}
	if sd := s.StdDev(); math.Abs(sd-math.Sqrt2) > 1e-12 {
		t.Fatalf("stddev = %v", sd)
	}
}

func TestSampleAddAfterQuantile(t *testing.T) {
	var s Sample
	s.Add(10)
	s.Add(20)
	_ = s.Quantile(0.5) // forces sort
	s.Add(5)            // must invalidate sorted flag
	if got := s.Quantile(0); got != 5 {
		t.Fatalf("min quantile after late add = %v, want 5", got)
	}
}

func TestNearestRank(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	// Nearest-rank: p99 of 1..100 is the 99th value.
	if got := s.P99(); got != 99 {
		t.Fatalf("p99 = %v, want 99", got)
	}
	if got := s.P50(); got != 50 {
		t.Fatalf("p50 = %v, want 50", got)
	}
	if got := s.Quantile(0.999); got != 100 {
		t.Fatalf("p99.9 = %v, want 100", got)
	}
}

func TestSampleReset(t *testing.T) {
	var s Sample
	s.Add(1)
	s.Add(2)
	s.Reset()
	if s.Count() != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("reset did not clear state")
	}
	s.Add(7)
	if s.Mean() != 7 || s.Min() != 7 {
		t.Fatal("sample unusable after reset")
	}
}

func TestSummary(t *testing.T) {
	var s Sample
	for i := 1; i <= 1000; i++ {
		s.Add(float64(i))
	}
	sum := s.Summarize()
	if sum.Count != 1000 || sum.P50 != 500 || sum.P99 != 990 || sum.P999 != 999 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.String() == "" {
		t.Fatal("empty summary string")
	}
}

// Property: Quantile agrees with direct sorted-slice indexing for random data.
func TestPropertySampleQuantile(t *testing.T) {
	f := func(seed uint64, n16 uint16) bool {
		n := int(n16%2000) + 1
		r := rng.New(seed)
		var s Sample
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.Float64() * 1e6
			s.Add(vals[i])
		}
		sort.Float64s(vals)
		for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.99} {
			rank := int(math.Ceil(p*float64(n))) - 1
			if rank < 0 {
				rank = 0
			}
			if s.Quantile(p) != vals[rank] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSampleAdd(b *testing.B) {
	var s Sample
	for i := 0; i < b.N; i++ {
		s.Add(float64(i))
	}
}

func TestSampleValues(t *testing.T) {
	var s Sample
	s.Add(3)
	s.Add(1)
	vals := s.Values()
	if len(vals) != 2 {
		t.Fatalf("values = %v", vals)
	}
	_ = s.Quantile(0.5) // sorts in place
	vals = s.Values()
	if vals[0] != 1 || vals[1] != 3 {
		t.Fatalf("values after sort = %v", vals)
	}
}

func TestSampleValuesDefensiveCopy(t *testing.T) {
	var s Sample
	for _, v := range []float64{5, 2, 9} {
		s.Add(v)
	}
	vals := s.Values()
	vals[0], vals[1], vals[2] = -1, -1, -1 // scribble on the copy
	if got := s.Quantile(0.5); got != 5 {
		t.Fatalf("median after mutating Values() copy = %v, want 5", got)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max corrupted: %v/%v", s.Min(), s.Max())
	}
}

// TestSampleMerge cross-validates Merge against a single sample fed every
// observation directly: counts, moments, extrema, and quantiles must agree
// exactly.
func TestSampleMerge(t *testing.T) {
	r := rng.New(11)
	var whole, a, b, c Sample
	for i := 0; i < 3000; i++ {
		v := math.Exp(r.NormFloat64())
		whole.Add(v)
		switch i % 3 {
		case 0:
			a.Add(v)
		case 1:
			b.Add(v)
		default:
			c.Add(v)
		}
	}
	var merged Sample
	merged.Merge(&a)
	merged.Merge(&b)
	merged.Merge(&c)
	merged.Merge(&Sample{}) // empty merge is a no-op
	if merged.Count() != whole.Count() {
		t.Fatalf("count = %d, want %d", merged.Count(), whole.Count())
	}
	if merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("extrema diverge: min %v/%v max %v/%v",
			merged.Min(), whole.Min(), merged.Max(), whole.Max())
	}
	// Summation order differs between the split and whole paths, so the
	// sums agree only to floating-point roundoff.
	if rel := math.Abs(merged.Sum()-whole.Sum()) / whole.Sum(); rel > 1e-12 {
		t.Fatalf("sum = %v, want %v (rel err %g)", merged.Sum(), whole.Sum(), rel)
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		if merged.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("q%.2f = %v, want %v", q, merged.Quantile(q), whole.Quantile(q))
		}
	}
	// Merging into an empty sample adopts the source's extrema.
	var fresh Sample
	fresh.Merge(&a)
	if fresh.Min() != a.Min() || fresh.Max() != a.Max() || fresh.Count() != a.Count() {
		t.Fatal("merge into empty sample lost state")
	}
}

func nearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch {
	case p <= 0:
		return sorted[0]
	case p >= 1:
		return sorted[n-1]
	}
	r := int(math.Ceil(p*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	return sorted[r]
}

// TestPropertySummarizeMatchesSort: Summarize's selection must return the
// very values sort-then-index gives, on sizes around the insertion-sort
// cutoff and far past it, and on the input shapes that break naive
// quickselects. Quantile must stay exact after Summarize has permuted the
// values.
func TestPropertySummarizeMatchesSort(t *testing.T) {
	r := rng.New(7)
	shapes := map[string]func(i, n int) float64{
		"random":     func(i, n int) float64 { return r.Float64() * 1e4 },
		"duplicates": func(i, n int) float64 { return float64(r.IntN(5)) },
		"all-equal":  func(i, n int) float64 { return 42 },
		"sorted":     func(i, n int) float64 { return float64(i) },
		"reverse":    func(i, n int) float64 { return float64(n - i) },
		"organ-pipe": func(i, n int) float64 { return float64(min(i, n-i)) },
	}
	probes := []float64{0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 0.9999, 1}
	for name, gen := range shapes {
		for _, n := range []int{1, 2, 3, 17, 1000, 240000} {
			var s Sample
			for i := 0; i < n; i++ {
				s.Add(gen(i, n))
			}
			sorted := s.Values()
			sort.Float64s(sorted)
			got := s.Summarize()
			want := Summary{
				Count: n, Mean: s.Mean(), Min: sorted[0], Max: sorted[n-1],
				P50: nearestRank(sorted, 0.50), P90: nearestRank(sorted, 0.90),
				P99: nearestRank(sorted, 0.99), P999: nearestRank(sorted, 0.999),
				StdDev: s.StdDev(),
			}
			if got != want {
				t.Fatalf("%s n=%d: Summarize = %+v, want %+v", name, n, got, want)
			}
			if again := s.Summarize(); again != want {
				t.Fatalf("%s n=%d: second Summarize = %+v, want %+v", name, n, again, want)
			}
			for _, p := range probes {
				if q, w := s.Quantile(p), nearestRank(sorted, p); q != w {
					t.Fatalf("%s n=%d: Quantile(%v) after Summarize = %v, want %v", name, n, p, q, w)
				}
			}
		}
	}
}

// BenchmarkSummarize measures one Summarize of a run-sized unsorted sample.
func BenchmarkSummarize(b *testing.B) {
	r := rng.New(1)
	vals := make([]float64, 240000)
	for i := range vals {
		vals[i] = r.Float64() * 1e4
	}
	var s Sample
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Reset()
		for _, v := range vals {
			s.Add(v)
		}
		s.Summarize()
	}
}
