// Package depth is the incremental per-depth bitmap index behind every
// balancer in the simulator: the NI dispatcher's choice among its cores
// (internal/ni) and each cluster tier's choice among its nodes or racks
// (internal/cluster).
//
// A naive balancer asks each endpoint its depth at decision time, O(N) per
// pick, which at rack scale makes the decision the simulation bottleneck and
// models a balancer that could never hold a nanosecond budget (mRPC and
// nanoPU in PAPERS.md). The index inverts the representation: it moves each
// endpoint between per-depth bitmap rows at update time. Updates are O(1)
// (Inc, Dec) or O(N/64 + rows) (Rebuild); decisions become find-first-set,
// popcount and select scans over one or a few rows.
//
// Invariants (checked exhaustively by depth_test.go):
//
//   - Endpoint i's bit is set in exactly one row: row min(depth[i], clamp).
//     Rows below clamp are exact; the clamp row holds every deeper
//     endpoint. Exact depths are kept in depth[], so clamped states degrade
//     to exact linear scans, never to wrong answers.
//   - minD is the smallest d with a nonempty row; total is Σ depth[i].
//
// Tie-break contract: every query answers in endpoint order (circular from
// a start where it takes one), exactly the order the naive scans visit
// endpoints in, so indexed picks are identical to brute-force ones.
package depth

import (
	"math/bits"
	"slices"
)

// Clamp is the deepest exactly indexed depth of a cluster tier's index. A
// tier's bounds (BoundedLoad's) can sit anywhere, so it keeps 64 rows; an
// NI dispatcher only asks "below the threshold?" and clamps at its
// threshold instead.
const Clamp = 63

// Set is a bitmap over endpoints: bit i of word i/64 is endpoint i. A Set
// returned by an Index query may alias the index's rows or scratch; it is
// read-only and valid until the index's next update or query.
type Set []uint64

// Count reports the number of endpoints in s.
func (s Set) Count() int {
	n := 0
	for _, v := range s {
		n += bits.OnesCount64(v)
	}
	return n
}

// Nth returns the k-th (0-based) endpoint of s in endpoint order, or -1
// when s holds k or fewer.
func (s Set) Nth(k int) int {
	for w, v := range s {
		c := bits.OnesCount64(v)
		if k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			v &= v - 1
		}
		return w<<6 + bits.TrailingZeros64(v)
	}
	return -1
}

// Index is the incremental per-depth endpoint index. It is owned by one
// balancer, mutated only between picks, and never shared across goroutines.
type Index struct {
	depth   []int    // exact per-endpoint depth
	backing []uint64 // rows 0..clamp, words uint64s each
	count   []int    // set-bit count per row
	scratch Set      // reused result of the multi-row queries
	words   int      // uint64 words per row: ceil(n/64)
	clamp   int      // deepest exact row; row clamp holds depths >= clamp
	minD    int      // smallest d with count[d] > 0
	total   int      // running Σ depth[i]
}

// New builds an index over n endpoints, all at depth 0, with exact rows for
// depths below clamp and one row for every depth at or past it.
func New(n, clamp int) *Index {
	words := (n + 63) / 64
	x := &Index{
		depth:   make([]int, n),
		backing: make([]uint64, (clamp+1)*words),
		count:   make([]int, clamp+1),
		scratch: make(Set, words),
		words:   words,
		clamp:   clamp,
	}
	row := x.row(0)
	for i := 0; i < n; i++ {
		row[i>>6] |= 1 << uint(i&63)
	}
	x.count[0] = n
	return x
}

func (x *Index) row(d int) Set { return x.backing[d*x.words : (d+1)*x.words] }

// Nodes reports the endpoint count.
func (x *Index) Nodes() int { return len(x.depth) }

// Depth reports endpoint i's exact depth.
func (x *Index) Depth(i int) int { return x.depth[i] }

// Total reports Σ depth over every endpoint, O(1).
func (x *Index) Total() int { return x.total }

// Inc and Dec apply one dispatch or one completion to endpoint i.
func (x *Index) Inc(i int) { x.set(i, x.depth[i]+1) }
func (x *Index) Dec(i int) { x.set(i, x.depth[i]-1) }

// set moves endpoint i to depth d. O(1) but for the cursor advance, which
// is amortized O(1): it only walks depths a prior decrease descended.
func (x *Index) set(i, d int) {
	old := x.depth[i]
	x.depth[i] = d
	x.total += d - old
	from, to := min(old, x.clamp), min(d, x.clamp)
	if from == to {
		return
	}
	w, b := i>>6, uint(i&63)
	x.backing[from*x.words+w] &^= 1 << b
	x.count[from]--
	x.backing[to*x.words+w] |= 1 << b
	x.count[to]++
	if to < x.minD {
		x.minD = to
	} else if from == x.minD && x.count[from] == 0 {
		for x.count[x.minD] == 0 {
			x.minD++
		}
	}
}

// Rebuild resets every endpoint's depth to depth(i): a stale tier's
// periodic refresh, where every visible depth changes at once.
// O(N + rows).
func (x *Index) Rebuild(depth func(i int) int) {
	clear(x.backing)
	clear(x.count)
	x.total = 0
	x.minD = x.clamp
	for i := range x.depth {
		d := depth(i)
		x.depth[i] = d
		x.total += d
		c := min(d, x.clamp)
		x.backing[c*x.words+i>>6] |= 1 << uint(i&63)
		x.count[c]++
		x.minD = min(x.minD, c)
	}
}

// AtMin returns the endpoints at the exact minimum depth. O(words) but in
// the degenerate all-clamped state, where the clamp row no longer
// separates depths and the exact minimum is found by a linear scan.
func (x *Index) AtMin() Set {
	if x.minD < x.clamp {
		return x.row(x.minD)
	}
	return x.Under(slices.Min(x.depth) + 1)
}

// Under returns the endpoints whose depth is strictly below bound. With
// bound at or past the clamp row it is the complement of that row plus the
// clamp-row endpoints the bound still admits; below it, the union of rows
// [minD, bound).
func (x *Index) Under(bound int) Set {
	s := x.scratch
	switch {
	case bound <= x.minD:
		clear(s)
	case bound >= x.clamp:
		c := x.row(x.clamp)
		for w := range s {
			s[w] = ^c[w]
		}
		if r := len(x.depth) & 63; r != 0 {
			s[x.words-1] &= 1<<uint(r) - 1
		}
		if bound > x.clamp && x.count[x.clamp] > 0 {
			for w, v := range c {
				for ; v != 0; v &= v - 1 {
					if b := bits.TrailingZeros64(v); x.depth[w<<6+b] < bound {
						s[w] |= 1 << uint(b)
					}
				}
			}
		}
	case bound == x.minD+1:
		return x.row(x.minD)
	default:
		clear(s)
		for d := x.minD; d < bound; d++ {
			if x.count[d] == 0 {
				continue
			}
			for w, v := range x.row(d) {
				s[w] |= v
			}
		}
	}
	return s
}

// HasUnder reports whether any endpoint's depth is below bound, in O(1)
// unless every endpoint sits in the clamp row.
func (x *Index) HasUnder(bound int) bool {
	return x.minD < bound && (x.minD < x.clamp || x.Under(bound).Nth(0) >= 0)
}

// FirstAtMin returns the first endpoint in circular order from start whose
// depth is the minimum: the pick of a naive wrap-around strict-less scan.
func (x *Index) FirstAtMin(start int) int { return x.firstFrom(x.AtMin(), start) }

// FirstUnder returns the first endpoint in circular order from start whose
// depth is strictly below bound, or -1 when there is none.
func (x *Index) FirstUnder(bound, start int) int {
	if bound <= x.minD {
		return -1
	}
	return x.firstFrom(x.Under(bound), start)
}

// LeastIn returns the first endpoint of mask, in endpoint order, among
// those with the smallest depth of the mask's endpoints under bound, or -1
// when no mask endpoint is under bound.
func (x *Index) LeastIn(mask Set, bound int) int {
	for d := x.minD; d < min(bound, x.clamp); d++ {
		if x.count[d] == 0 {
			continue
		}
		for w, v := range x.row(d) {
			if v &= mask[w]; v != 0 {
				return w<<6 + bits.TrailingZeros64(v)
			}
		}
	}
	best := -1
	if bound <= x.clamp {
		return best
	}
	for w, v := range x.row(x.clamp) {
		for v &= mask[w]; v != 0; v &= v - 1 {
			i := w<<6 + bits.TrailingZeros64(v)
			if d := x.depth[i]; d < bound && (best < 0 || d < x.depth[best]) {
				best = i
			}
		}
	}
	return best
}

// firstFrom returns the first endpoint of s at or after start in circular
// order, or -1 when s is empty: the tail of start's word, the following
// words (wrapping), then the head of start's word.
func (x *Index) firstFrom(s Set, start int) int {
	w, b := start>>6, uint(start&63)
	if v := s[w] &^ (1<<b - 1); v != 0 {
		return w<<6 + bits.TrailingZeros64(v)
	}
	for k := 1; k < x.words; k++ {
		ww := w + k
		if ww >= x.words {
			ww -= x.words
		}
		if v := s[ww]; v != 0 {
			return ww<<6 + bits.TrailingZeros64(v)
		}
	}
	if v := s[w] & (1<<b - 1); v != 0 {
		return w<<6 + bits.TrailingZeros64(v)
	}
	return -1
}
