package cluster

// The balancer's incremental depth index: the data structure behind O(N/64)
// policy decisions at rack scale.
//
// The naive policies pay O(N) per arrival — full JSQ walks every node with
// two Depth calls per comparison, BoundedLoad sums all N depths before its
// rotation scan — which at the ROADMAP's 1000-node target makes the decision
// itself the simulation bottleneck (and models a balancer that could never
// hold a nanosecond budget; see mRPC and nanoPU in PAPERS.md). The index
// inverts the representation: instead of asking each node its depth at
// decision time, it moves each node between per-depth bitmap rows at update
// time. Updates are O(1) (dispatch, completion) or O(N/64 + rows)
// (stale-view refresh); decisions become find-first-set scans over one or a
// few []uint64 rows.
//
// The index is also the balancer's view: *depthIndex implements View, and
// depth[] is the only store of the visible depths a policy reads. A tier
// (tier.go) mutates it through inc/dec on dispatch and live completion, and
// through rebuild at a stale tier's periodic refresh.
//
// Invariants (checked exhaustively by index_test.go):
//
//   - Node i's bit is set in exactly one row: rows[min(depth[i], clampDepth)].
//     Rows above clampDepth collapse into the clamp row; exact depths are
//     kept in depth[], so clamped states degrade to exact linear fallbacks
//     rather than wrong answers.
//   - minDepth is the smallest d with a nonempty row; total is Σ depth[i],
//     maintained incrementally so BoundedLoad's mean needs no O(N) sum.
//
// Tie-break contract: every query takes a start node and answers in
// *circular* node order from it, which is exactly the order the naive
// wrap-around scans visit nodes in — so indexed picks are byte-identical to
// the brute-force ones (policy_equiv_test.go enforces this across a
// policy × nodes × load grid).

import "math/bits"

// clampDepth is the deepest exactly-indexed queue depth; rows beyond it
// collapse into the final clamp row. Depths at or past it only occur in
// saturated/aborting runs (a stable cluster's depths sit near the offered
// load), and those degrade to exact linear scans, never wrong picks.
const clampDepth = 63

// numDepthRows counts the bitmap rows: depths 0..clampDepth-1 exact, plus
// the clamp row holding every node at depth >= clampDepth.
const numDepthRows = clampDepth + 1

// depthIndex is the incremental per-depth node index. It is owned by a
// single tier, mutated only between picks, and never shared across
// goroutines.
type depthIndex struct {
	depth   []int      // exact per-node visible depth: the view itself
	rows    [][]uint64 // rows[d]: bitmap of nodes with min(depth, clampDepth) == d
	count   []int      // set-bit count per row
	backing []uint64   // the rows' shared storage, one allocation
	scratch []uint64   // reused union bitmap for under-bound queries
	words   int        // uint64 words per row: ceil(nodes/64)
	minD    int        // smallest d with count[d] > 0
	total   int        // running Σ depth[i]
}

func newDepthIndex(nodes int) *depthIndex {
	words := (nodes + 63) / 64
	x := &depthIndex{
		depth:   make([]int, nodes),
		rows:    make([][]uint64, numDepthRows),
		count:   make([]int, numDepthRows),
		backing: make([]uint64, numDepthRows*words),
		scratch: make([]uint64, words),
		words:   words,
	}
	for d := range x.rows {
		x.rows[d] = x.backing[d*words : (d+1)*words]
	}
	// All nodes start idle: depth 0, row 0 full.
	row := x.rows[0]
	for i := 0; i < nodes; i++ {
		row[i>>6] |= 1 << uint(i&63)
	}
	x.count[0] = nodes
	return x
}

// Nodes, Depth and index implement View: the index is the view a tier's
// policy decides over.
func (x *depthIndex) Nodes() int         { return len(x.depth) }
func (x *depthIndex) Depth(i int) int    { return x.depth[i] }
func (x *depthIndex) index() *depthIndex { return x }

func clamp(d int) int {
	if d > clampDepth {
		return clampDepth
	}
	return d
}

// inc and dec apply one dispatch / one completion to node i's view depth.
func (x *depthIndex) inc(i int) { x.setDepth(i, x.depth[i]+1) }
func (x *depthIndex) dec(i int) { x.setDepth(i, x.depth[i]-1) }

// setDepth moves node i to view depth d, updating its row bit, the running
// total, and the min-depth cursor. O(1) except for the cursor advance, which
// is amortized O(1) (it only ever walks depths that a prior decrease
// descended through).
func (x *depthIndex) setDepth(i, d int) {
	old := x.depth[i]
	x.depth[i] = d
	x.total += d - old
	from, to := clamp(old), clamp(d)
	if from == to {
		return // moved within the clamp row (or no clamped change)
	}
	w, b := i>>6, uint(i&63)
	x.rows[from][w] &^= 1 << b
	x.count[from]--
	x.rows[to][w] |= 1 << b
	x.count[to]++
	if to < x.minD {
		x.minD = to
	} else if from == x.minD && x.count[from] == 0 {
		for x.count[x.minD] == 0 {
			x.minD++
		}
	}
}

// rebuild resets every node's depth to depth(i) — a stale tier's periodic
// refresh, where every visible depth changes at once. O(N + rows).
func (x *depthIndex) rebuild(depth func(i int) int) {
	for i := range x.backing {
		x.backing[i] = 0
	}
	for d := range x.count {
		x.count[d] = 0
	}
	x.total = 0
	x.minD = clampDepth
	for i := range x.depth {
		d := depth(i)
		x.depth[i] = d
		x.total += d
		c := clamp(d)
		x.rows[c][i>>6] |= 1 << uint(i&63)
		x.count[c]++
		if c < x.minD {
			x.minD = c
		}
	}
}

// firstAtMin returns the first node in circular order from start whose depth
// is the cluster minimum — exactly the pick of the naive wrap-around
// strict-less scan (full JSQ, and BoundedLoad's everyone-over-bound
// fallback). O(N/64): one find-first-set pass over the min-depth row.
func (x *depthIndex) firstAtMin(start int) int {
	if x.minD == clampDepth {
		// Degenerate overload: every node is in the clamp row, which no
		// longer separates depths. Fall back to the exact circular argmin.
		return x.argminFrom(start)
	}
	return firstSetFrom(x.rows[x.minD], x.words, start)
}

// argminFrom is the naive circular strict-less argmin over exact depths,
// used only when the whole cluster is clamped.
func (x *depthIndex) argminFrom(start int) int {
	n := len(x.depth)
	best := start
	for i := 1; i < n; i++ {
		c := start + i
		if c >= n {
			c -= n
		}
		if x.depth[c] < x.depth[best] {
			best = c
		}
	}
	return best
}

// firstUnder returns the first node in circular order from start whose depth
// is strictly below bound, or -1 when every node is at or over it. Cost: one
// row union per depth in [minD, bound) — O((bound−minD)·N/64), with the
// common single-row case short-circuited to one find-first-set pass.
func (x *depthIndex) firstUnder(bound, start int) int {
	if bound <= x.minD {
		// depth[i] >= clamp(depth[i]) >= minD >= bound for every node.
		return -1
	}
	hi := bound
	if hi > clampDepth {
		hi = clampDepth
	}
	if hi == x.minD+1 && bound <= clampDepth {
		return firstSetFrom(x.rows[x.minD], x.words, start)
	}
	s := x.scratch
	for w := range s {
		s[w] = 0
	}
	for d := x.minD; d < hi; d++ {
		if x.count[d] == 0 {
			continue
		}
		row := x.rows[d]
		for w := range s {
			s[w] |= row[w]
		}
	}
	if bound > clampDepth && x.count[clampDepth] > 0 {
		// Clamp-row nodes hold exact depths >= clampDepth; admit the ones
		// the bound still covers, one by one (saturated runs only).
		row := x.rows[clampDepth]
		for w, v := range row {
			for v != 0 {
				b := bits.TrailingZeros64(v)
				v &= v - 1
				if x.depth[w<<6+b] < bound {
					s[w] |= 1 << uint(b)
				}
			}
		}
	}
	return firstSetFrom(s, x.words, start)
}

// firstSetFrom returns the position of the first set bit of row at or after
// start in circular order, or -1 when the bitmap is empty. The three stages
// visit bits in exactly circular order: the tail of start's word, the
// following words (wrapping), then the head of start's word.
func firstSetFrom(row []uint64, words, start int) int {
	w, b := start>>6, uint(start&63)
	if v := row[w] &^ (1<<b - 1); v != 0 {
		return w<<6 + bits.TrailingZeros64(v)
	}
	for k := 1; k < words; k++ {
		ww := w + k
		if ww >= words {
			ww -= words
		}
		if v := row[ww]; v != 0 {
			return ww<<6 + bits.TrailingZeros64(v)
		}
	}
	if v := row[w] & (1<<b - 1); v != 0 {
		return w<<6 + bits.TrailingZeros64(v)
	}
	return -1
}
