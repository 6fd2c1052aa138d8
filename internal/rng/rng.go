// Package rng provides small, fast, deterministic random number generators
// for the simulator.
//
// Every stochastic component of an experiment (arrival process, service-time
// sampler, RSS hash, ...) draws from its own Source, split off a single
// experiment seed with Split. Streams produced by Split are statistically
// independent, so adding a new component to a simulation does not perturb the
// random sequence seen by existing components. This is what makes experiment
// results reproducible run-to-run and stable across refactorings.
//
// The generator is xoshiro256**, seeded through SplitMix64, following the
// reference construction by Blackman and Vigna. Both are public-domain
// algorithms, implemented here from the specification so the module stays
// dependency-free.
package rng

import "math"

// Source is a deterministic pseudo-random number generator. It is not safe
// for concurrent use; give each goroutine (or each simulated component) its
// own Source via Split.
type Source struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output. It is
// used to expand a 64-bit seed into the 256-bit xoshiro state and to derive
// independent child seeds.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Two Sources created with the same
// seed produce identical sequences.
func New(seed uint64) *Source {
	var s Source
	sm := seed
	for i := range s.s {
		s.s[i] = splitMix64(&sm)
	}
	// xoshiro256** requires a state that is not all zero; SplitMix64 cannot
	// produce four consecutive zeros, so the state is always valid.
	return &s
}

// Split derives a new, statistically independent Source from s. The parent
// advances, so successive Split calls yield distinct children.
func (s *Source) Split() *Source {
	return New(s.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Float64 returns a uniformly distributed value in [0, 1) with 53 bits of
// precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// OpenFloat64 returns a uniformly distributed value in the open interval
// (0, 1). It never returns exactly 0, which makes it safe to pass to
// logarithms and inverse CDFs with poles at the origin.
func (s *Source) OpenFloat64() float64 {
	for {
		if v := s.Float64(); v > 0 {
			return v
		}
	}
}

// IntN returns a uniformly distributed int in [0, n). It panics if n <= 0.
// The implementation uses Lemire's multiply-shift rejection method, which is
// unbiased.
func (s *Source) IntN(n int) int {
	if n <= 0 {
		panic("rng: IntN called with n <= 0")
	}
	un := uint64(n)
	// Fast path avoiding 128-bit arithmetic for small n.
	for {
		v := s.Uint64()
		hi, lo := mul64(v, un)
		if lo >= un || lo >= (-un)%un {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask32 + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return hi, lo
}

// ExpFloat64 returns an exponentially distributed value with mean 1.
func (s *Source) ExpFloat64() float64 {
	return -math.Log(s.OpenFloat64())
}

// NormFloat64 returns a normally distributed value with mean 0 and standard
// deviation 1, using the Marsaglia polar method.
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}
