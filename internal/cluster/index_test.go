package cluster

import (
	"testing"

	"rpcvalet/internal/rng"
)

// bruteFirstAtMin is the reference circular-first argmin over exact depths.
func bruteFirstAtMin(depth []int, start int) int {
	n := len(depth)
	best := start
	for i := 1; i < n; i++ {
		c := (start + i) % n
		if depth[c] < depth[best] {
			best = c
		}
	}
	return best
}

// bruteFirstUnder is the reference circular scan for the first node with
// depth strictly below bound (-1 when none).
func bruteFirstUnder(depth []int, bound, start int) int {
	n := len(depth)
	for i := 0; i < n; i++ {
		c := (start + i) % n
		if depth[c] < bound {
			return c
		}
	}
	return -1
}

// checkIndex verifies every structural invariant of the index against the
// exact depth slice: per-node row membership, per-row counts, the min-depth
// cursor, the running total, and the query results for a spread of starts
// and bounds (including bounds past the clamp row).
func checkIndex(t *testing.T, x *depthIndex, depth []int) {
	t.Helper()
	n := len(depth)
	total := 0
	minClamped := clampDepth
	counts := make([]int, numDepthRows)
	for i, d := range depth {
		if x.depth[i] != d {
			t.Fatalf("node %d: index depth %d, want %d", i, x.depth[i], d)
		}
		total += d
		c := clamp(d)
		counts[c]++
		if c < minClamped {
			minClamped = c
		}
		for row := 0; row < numDepthRows; row++ {
			got := x.rows[row][i>>6]&(1<<uint(i&63)) != 0
			if got != (row == c) {
				t.Fatalf("node %d (depth %d): bit in row %d = %v", i, d, row, got)
			}
		}
	}
	if x.total != total {
		t.Fatalf("total %d, want %d", x.total, total)
	}
	if n > 0 && x.minD != minClamped {
		t.Fatalf("minD %d, want %d", x.minD, minClamped)
	}
	for d, c := range counts {
		if x.count[d] != c {
			t.Fatalf("count[%d] = %d, want %d", d, x.count[d], c)
		}
	}
	starts := []int{0, 1 % n, n / 2, n - 1, 63 % n, 64 % n} // all in [0, n), as Pick guarantees
	maxD := 0
	for _, d := range depth {
		if d > maxD {
			maxD = d
		}
	}
	bounds := []int{0, 1, x.minD, x.minD + 1, maxD, maxD + 1, clampDepth, clampDepth + 1, clampDepth + 7}
	for _, s := range starts {
		if got, want := x.firstAtMin(s), bruteFirstAtMin(depth, s); got != want {
			t.Fatalf("firstAtMin(%d) = %d, want %d (depths %v)", s, got, want, depth)
		}
		for _, b := range bounds {
			if got, want := x.firstUnder(b, s), bruteFirstUnder(depth, b, s); got != want {
				t.Fatalf("firstUnder(%d, %d) = %d, want %d (depths %v)", b, s, got, want, depth)
			}
		}
	}
}

// TestDepthIndexInvariants churns indices of awkward sizes (word-boundary
// straddling, single-word, single-node) through random increments,
// decrements, and rebuilds — including depths past the clamp row — and
// checks every invariant and query against the brute-force reference after
// each operation.
func TestDepthIndexInvariants(t *testing.T) {
	for _, n := range []int{1, 3, 5, 63, 64, 65, 100, 257} {
		r := rng.New(uint64(1000 + n))
		x := newDepthIndex(n)
		depth := make([]int, n)
		checkIndex(t, x, depth)
		for step := 0; step < 400; step++ {
			switch op := r.IntN(10); {
			case op == 0:
				// Rebuild from scratch with arbitrary depths, clamped and not.
				for i := range depth {
					depth[i] = r.IntN(clampDepth * 2)
				}
				x.rebuild(func(i int) int { return depth[i] })
			case op < 4:
				// Completion on a random busy node.
				i := r.IntN(n)
				if depth[i] > 0 {
					depth[i]--
					x.dec(i)
				}
			default:
				// Dispatch; occasionally pile deep past the clamp row.
				i := r.IntN(n)
				reps := 1
				if r.IntN(20) == 0 {
					reps = clampDepth + 3
				}
				for k := 0; k < reps; k++ {
					depth[i]++
					x.inc(i)
				}
			}
			checkIndex(t, x, depth)
		}
	}
}

// TestFirstSetFrom pins the circular visiting order of the bitmap scan:
// start's word tail, the following words with wraparound, then start's word
// head — and the empty-bitmap sentinel.
func TestFirstSetFrom(t *testing.T) {
	words := 3 // 192 node slots
	row := make([]uint64, words)
	set := func(bits ...int) {
		for i := range row {
			row[i] = 0
		}
		for _, b := range bits {
			row[b>>6] |= 1 << uint(b&63)
		}
	}
	cases := []struct {
		bits  []int
		start int
		want  int
	}{
		{nil, 0, -1},
		{nil, 100, -1},
		{[]int{0}, 0, 0},
		{[]int{0}, 1, 0}, // wraps the whole way round
		{[]int{5, 70}, 6, 70},
		{[]int{5, 70}, 71, 5},   // wrap into an earlier word
		{[]int{5, 7}, 6, 7},     // same-word, after start
		{[]int{5, 7}, 8, 5},     // same-word, wraps to the head
		{[]int{63, 64}, 63, 63}, // word boundary
		{[]int{63, 64}, 64, 64},
		{[]int{191}, 100, 191},
		{[]int{0, 191}, 191, 191},
	}
	for _, c := range cases {
		set(c.bits...)
		if got := firstSetFrom(row, words, c.start); got != c.want {
			t.Errorf("firstSetFrom(bits %v, start %d) = %d, want %d", c.bits, c.start, got, c.want)
		}
	}
}
