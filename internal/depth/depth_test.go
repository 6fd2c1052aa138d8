package depth

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

// bruteFirstUnder is the reference circular scan for the first endpoint
// with depth strictly below bound (-1 when none).
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

// bruteLeastIn is the reference for LeastIn: the first mask endpoint under
// bound with the smallest depth among them (-1 when none).
func bruteLeastIn(depth []int, mask Set, bound int) int {
	best := -1
	for i, d := range depth {
		if has(mask, i) && d < bound && (best < 0 || d < depth[best]) {
			best = i
		}
	}
	return best
}

func has(s Set, i int) bool { return s[i>>6]&(1<<uint(i&63)) != 0 }

// members lists a set's endpoints in order through Nth, checking Count.
func members(t *testing.T, s Set) []int {
	t.Helper()
	var out []int
	for k := 0; ; k++ {
		i := s.Nth(k)
		if i < 0 {
			break
		}
		out = append(out, i)
	}
	if len(out) != s.Count() {
		t.Fatalf("Nth enumerates %d endpoints, Count says %d", len(out), s.Count())
	}
	return out
}

// equalSet checks that s holds exactly the endpoints keep admits.
func equalSet(t *testing.T, what string, s Set, depth []int, keep func(d int) bool) {
	t.Helper()
	var want []int
	for i, d := range depth {
		if keep(d) {
			want = append(want, i)
		}
	}
	got := members(t, s)
	if len(got) != len(want) {
		t.Fatalf("%s = %v, want %v (depths %v)", what, got, want, depth)
	}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("%s = %v, want %v (depths %v)", what, got, want, depth)
		}
	}
}

// checkIndex verifies every structural invariant of the index against the
// exact depth slice: per-endpoint row membership, per-row counts, the
// min-depth cursor, the running total, and every query for a spread of
// starts and bounds (including bounds past the clamp row).
func checkIndex(t *testing.T, x *Index, depth []int, r *rng.Source) {
	t.Helper()
	n := len(depth)
	total := 0
	minClamped := x.clamp
	counts := make([]int, x.clamp+1)
	for i, d := range depth {
		if x.Depth(i) != d {
			t.Fatalf("endpoint %d: index depth %d, want %d", i, x.Depth(i), d)
		}
		total += d
		c := min(d, x.clamp)
		counts[c]++
		minClamped = min(minClamped, c)
		for row := 0; row <= x.clamp; row++ {
			if got := has(x.row(row), i); got != (row == c) {
				t.Fatalf("endpoint %d (depth %d): bit in row %d = %v", i, d, row, got)
			}
		}
	}
	if x.Total() != total {
		t.Fatalf("total %d, want %d", x.Total(), total)
	}
	if x.minD != minClamped {
		t.Fatalf("minD %d, want %d", x.minD, minClamped)
	}
	for d, c := range counts {
		if x.count[d] != c {
			t.Fatalf("count[%d] = %d, want %d", d, x.count[d], c)
		}
	}
	starts := []int{0, 1 % n, n / 2, n - 1, 63 % n, 64 % n} // all in [0, n), as Pick guarantees
	maxD, minD := 0, depth[0]
	for _, d := range depth {
		maxD, minD = max(maxD, d), min(minD, d)
	}
	bounds := []int{0, 1, 2, x.minD, x.minD + 1, maxD, maxD + 1, x.clamp, x.clamp + 1, x.clamp + 7, Clamp + 1, int(^uint(0) >> 1)}
	equalSet(t, "AtMin", x.AtMin(), depth, func(d int) bool { return d == minD })
	mask := make(Set, x.words)
	for i := 0; i < n; i++ {
		if r.IntN(2) == 0 {
			mask[i>>6] |= 1 << uint(i&63)
		}
	}
	for _, b := range bounds {
		equalSet(t, "Under", x.Under(b), depth, func(d int) bool { return d < b })
		if got, want := x.HasUnder(b), minD < b; got != want {
			t.Fatalf("HasUnder(%d) = %v, want %v (depths %v)", b, got, want, depth)
		}
		if got, want := x.LeastIn(mask, b), bruteLeastIn(depth, mask, b); got != want {
			t.Fatalf("LeastIn(%v, %d) = %d, want %d (depths %v)", mask, b, got, want, depth)
		}
	}
	for _, s := range starts {
		if got, want := x.FirstAtMin(s), bruteFirstAtMin(depth, s); got != want {
			t.Fatalf("FirstAtMin(%d) = %d, want %d (depths %v)", s, got, want, depth)
		}
		for _, b := range bounds {
			if got, want := x.FirstUnder(b, s), bruteFirstUnder(depth, b, s); got != want {
				t.Fatalf("FirstUnder(%d, %d) = %d, want %d (depths %v)", b, s, got, want, depth)
			}
		}
	}
}

// TestDepthIndexInvariants churns indices of awkward sizes (word-boundary
// straddling, single-word, single-endpoint) and clamps (a tier's 63, an NI
// dispatcher's threshold-sized 1 and 2) through random increments,
// decrements and rebuilds, including depths past the clamp row, and checks
// every invariant and query against the brute-force reference after each
// operation.
func TestDepthIndexInvariants(t *testing.T) {
	for _, clamp := range []int{Clamp, 1, 2} {
		for _, n := range []int{1, 3, 5, 63, 64, 65, 100, 257} {
			r := rng.New(uint64(1000 + n + 7919*clamp))
			x := New(n, clamp)
			depth := make([]int, n)
			checkIndex(t, x, depth, r)
			for step := 0; step < 400; step++ {
				switch op := r.IntN(10); {
				case op == 0:
					// Rebuild from scratch with arbitrary depths, clamped and not.
					for i := range depth {
						depth[i] = r.IntN(Clamp * 2)
					}
					x.Rebuild(func(i int) int { return depth[i] })
				case op < 4:
					// Completion on a random busy endpoint.
					i := r.IntN(n)
					if depth[i] > 0 {
						depth[i]--
						x.Dec(i)
					}
				default:
					// Dispatch; occasionally pile deep past the clamp row.
					i := r.IntN(n)
					reps := 1
					if r.IntN(20) == 0 {
						reps = Clamp + 3
					}
					for k := 0; k < reps; k++ {
						depth[i]++
						x.Inc(i)
					}
				}
				checkIndex(t, x, depth, r)
			}
		}
	}
}

// TestFirstSetFrom pins the circular visiting order of the bitmap scan:
// start's word tail, the following words with wraparound, then start's word
// head, and the empty-bitmap sentinel.
func TestFirstSetFrom(t *testing.T) {
	x := New(192, 1) // 3 words
	row := make(Set, 3)
	set := func(bits ...int) {
		clear(row)
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
		if got := x.firstFrom(row, c.start); got != c.want {
			t.Errorf("firstFrom(bits %v, start %d) = %d, want %d", c.bits, c.start, got, c.want)
		}
	}
}

// TestSetNth pins Nth's select order across words and its past-the-end
// sentinel.
func TestSetNth(t *testing.T) {
	s := Set{1<<3 | 1<<63, 0, 1 << 0}
	for k, want := range []int{3, 63, 128, -1} {
		if got := s.Nth(k); got != want {
			t.Errorf("Nth(%d) = %d, want %d", k, got, want)
		}
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d, want 3", s.Count())
	}
}
