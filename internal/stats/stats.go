// Package stats collects latency samples and computes the tail statistics
// the paper reports (99th-percentile latency as a function of throughput).
//
// Sample keeps every observation and computes exact order statistics; it
// serves experiment-sized runs (hundreds of thousands of samples).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Moments are a sample's running count, sum, sum of squares, minimum and
// maximum: every Summary field but the percentiles. The zero value is
// empty.
type Moments struct {
	N          int
	Sum, SumSq float64
	Min, Max   float64
}

// Add folds in one observation.
func (m *Moments) Add(v float64) {
	if m.N == 0 || v < m.Min {
		m.Min = v
	}
	if m.N == 0 || v > m.Max {
		m.Max = v
	}
	m.N++
	m.Sum += v
	m.SumSq += v * v
}

// Merge folds in o, whose observations follow m's. Merging empty moments
// is a no-op.
func (m *Moments) Merge(o Moments) {
	if o.N == 0 {
		return
	}
	if m.N == 0 || o.Min < m.Min {
		m.Min = o.Min
	}
	if m.N == 0 || o.Max > m.Max {
		m.Max = o.Max
	}
	m.N += o.N
	m.Sum += o.Sum
	m.SumSq += o.SumSq
}

// Mean returns the arithmetic mean, or 0 when empty.
func (m Moments) Mean() float64 {
	if m.N == 0 {
		return 0
	}
	return m.Sum / float64(m.N)
}

// Variance returns the population variance, or 0 when empty.
func (m Moments) Variance() float64 {
	n := float64(m.N)
	if n == 0 {
		return 0
	}
	mean := m.Sum / n
	v := m.SumSq/n - mean*mean
	if v < 0 { // floating-point guard
		return 0
	}
	return v
}

// StdDev returns the population standard deviation.
func (m Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Sample accumulates float64 observations and computes exact statistics.
// The zero value is ready to use.
type Sample struct {
	values []float64
	sorted bool
	m      Moments
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.m.Add(v)
	s.values = append(s.values, v)
	s.sorted = false
}

// Grow pre-sizes the sample to hold at least n observations without
// reallocating, for collectors whose expected count is known up front (a
// run's Measure target). It never shrinks and never drops observations.
func (s *Sample) Grow(n int) {
	if n <= cap(s.values) {
		return
	}
	values := make([]float64, len(s.values), n)
	copy(values, s.values)
	s.values = values
}

// Count reports the number of observations recorded.
func (s *Sample) Count() int { return len(s.values) }

// Sum returns the running sum of all observations.
func (s *Sample) Sum() float64 { return s.m.Sum }

// Mean returns the arithmetic mean, or 0 when empty.
func (s *Sample) Mean() float64 { return s.m.Mean() }

// Variance returns the population variance, or 0 when empty.
func (s *Sample) Variance() float64 { return s.m.Variance() }

// StdDev returns the population standard deviation.
func (s *Sample) StdDev() float64 { return s.m.StdDev() }

// Min returns the smallest observation, or 0 when empty.
func (s *Sample) Min() float64 { return s.m.Min }

// Max returns the largest observation, or 0 when empty.
func (s *Sample) Max() float64 { return s.m.Max }

// Quantile returns the p-quantile (0 ≤ p ≤ 1) using the nearest-rank method
// on the sorted observations. It returns 0 when the sample is empty.
func (s *Sample) Quantile(p float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
	return s.values[rank(p, len(s.values))]
}

// rank is the nearest-rank index of the p-quantile among n sorted values.
func rank(p float64, n int) int {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return n - 1
	}
	return max(int(math.Ceil(p*float64(n)))-1, 0)
}

// P99 is shorthand for Quantile(0.99), the paper's tail-latency metric.
func (s *Sample) P99() float64 { return s.Quantile(0.99) }

// P50 is shorthand for Quantile(0.50).
func (s *Sample) P50() float64 { return s.Quantile(0.50) }

// Reset discards all observations.
func (s *Sample) Reset() {
	s.values = s.values[:0]
	s.sorted = false
	s.m = Moments{}
}

// Values returns a copy of the recorded observations, in no promised order
// (sorted once Quantile has been called). The copy is the caller's to keep: mutating it cannot
// corrupt the collector's internal state.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

// Merge folds all of o's observations into s, as if every o.Add had been
// replayed onto s in insertion order. o is unchanged. Merging an empty
// sample is a no-op.
func (s *Sample) Merge(o *Sample) {
	if o == nil || len(o.values) == 0 {
		return
	}
	s.m.Merge(o.m)
	s.values = append(s.values, o.values...)
	s.sorted = false
}

// Summary is a compact set of tail statistics, suitable for tables.
type Summary struct {
	Count          int
	Mean, Min, Max float64
	P50, P90, P99  float64
	P999           float64
	StdDev         float64
}

// summaryQuantiles are the percentiles a Summary reports, ascending.
var summaryQuantiles = [...]float64{0.50, 0.90, 0.99, 0.999}

// Summarize computes a Summary from the sample. Its percentiles equal
// Quantile's exactly; an unsorted sample finds them by selection
// (Summarize) instead of sorting every value.
func (s *Sample) Summarize() Summary {
	if !s.sorted {
		return Summarize(s.values, s.m)
	}
	var q [len(summaryQuantiles)]float64
	for i, p := range summaryQuantiles {
		q[i] = s.values[rank(p, len(s.values))]
	}
	return s.m.summary(q)
}

// Summarize computes the Summary of the observations v, whose moments are
// m. It finds each percentile by selection over the suffix past the
// previous rank, so it reorders v.
func Summarize(v []float64, m Moments) Summary {
	var q [len(summaryQuantiles)]float64
	if n := len(v); n > 0 {
		from := 0
		for i, p := range summaryQuantiles {
			r := rank(p, n)
			if r >= from {
				selectRank(v[from:], r-from)
				from = r + 1
			}
			q[i] = v[r]
		}
	}
	return m.summary(q)
}

// summary completes a Summary from the moments and the percentiles q.
func (m Moments) summary(q [len(summaryQuantiles)]float64) Summary {
	return Summary{
		Count:  m.N,
		Mean:   m.Mean(),
		Min:    m.Min,
		Max:    m.Max,
		P50:    q[0],
		P90:    q[1],
		P99:    q[2],
		P999:   q[3],
		StdDev: m.StdDev(),
	}
}

func (m Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p99=%.1f p99.9=%.1f max=%.1f",
		m.Count, m.Mean, m.P50, m.P99, m.P999, m.Max)
}
