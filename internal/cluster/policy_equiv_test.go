package cluster

import (
	"math"
	"testing"

	"rpcvalet/internal/depth"
	"rpcvalet/internal/rng"
	"rpcvalet/internal/sim"
)

// refPick is the O(N) reference the indexed picks are checked against: the
// wrap-around strict-min scan for full JSQ and the depth-summing rotation
// scan for BoundedLoad, each reading only the public View surface and
// consuming exactly the RNG draws and cursor updates the production pick
// does. Policies without an indexed path pick as in production.
func refPick(pol Policy, v View, r *rng.Source) int {
	n := v.Nodes()
	switch p := pol.(type) {
	case JSQ:
		if p.D < n {
			break
		}
		start := r.IntN(n)
		best := start
		for i := 1; i < n; i++ {
			c := (start + i) % n
			if v.Depth(c) < v.Depth(best) {
				best = c
			}
		}
		return best
	case *BoundedLoad:
		start := p.next % n
		total := 0
		for i := 0; i < n; i++ {
			total += v.Depth(i)
		}
		bound := loadBound(p.Factor, total, n)
		least := start
		for i := 0; i < n; i++ {
			c := (start + i) % n
			if v.Depth(c) < v.Depth(least) {
				least = c
			}
			if v.Depth(c) < bound {
				p.next = (c + 1) % n
				return c
			}
		}
		p.next = (least + 1) % n
		return least
	}
	return pol.Pick(v, r)
}

// equivPolicies is the grid's policy set: every policy with an indexed fast
// path plus the untouched ones (their presence proves the index can't
// perturb a policy that ignores it).
func equivPolicies(nodes int) []Policy {
	return []Policy{
		Random{},
		&RoundRobin{},
		JSQ{D: 2},
		JSQ{D: min(4, nodes)},
		JSQ{D: FullScan},
		&BoundedLoad{Factor: 1.25},
		&BoundedLoad{Factor: 1.0},
		&BoundedLoad{Factor: 2.0},
	}
}

// TestPolicyIndexEquivalence is the depth index's correctness contract:
// across policy × cluster size × load level × view staleness, the indexed
// pick and the brute-force reference pick (refPick) must agree decision by
// decision, and both policy instances must leave their RNGs in identical
// states (same draw count). The churn covers idle, steady-state, and
// clamp-saturating loads (depths past the 63-deep bitmap rows) plus
// stale-view snapshots mid-run.
func TestPolicyIndexEquivalence(t *testing.T) {
	type level struct {
		name string
		out  int // target outstanding per node
	}
	levels := []level{{"idle", 0}, {"light", 1}, {"steady", 4}, {"clamped", depth.Clamp + 8}}
	for _, nodes := range []int{1, 2, 5, 64, 65, 200} {
		for _, lv := range levels {
			for _, live := range []bool{true, false} {
				seed := uint64(nodes*1000 + lv.out*10)
				for _, pol := range equivPolicies(nodes) {
					indexed := pol.Clone()
					naive := pol.Clone()
					rIdx := rng.New(seed)
					rNaive := rng.New(seed)
					churn := rng.New(seed + 1)

					// A policy-less tier: the test picks with its own twin
					// policies over the tier's index. A stale tier's
					// refresh is the one event on eng; Step fires it.
					eng := sim.New()
					tr := newTier(nil, nil, nodes, live)
					tr.scheduleRefresh(eng, 1, nil)
					v := tr.index
					var inflight []int
					for step := 0; step < 600; step++ {
						target := lv.out * nodes
						switch {
						case len(inflight) < target && churn.IntN(3) > 0, len(inflight) == 0:
							got := indexed.Pick(v, rIdx)
							want := refPick(naive, v, rNaive)
							if got != want {
								t.Fatalf("%s nodes=%d level=%s live=%v step %d: indexed pick %d, naive pick %d",
									pol, nodes, lv.name, live, step, got, want)
							}
							tr.dispatched(got)
							inflight = append(inflight, got)
						default:
							k := churn.IntN(len(inflight))
							tr.completed(inflight[k])
							inflight[k] = inflight[len(inflight)-1]
							inflight = inflight[:len(inflight)-1]
						}
						if !live && churn.IntN(40) == 0 {
							eng.Step()
						}
					}
					// Same draws consumed: the streams must still be aligned.
					for k := 0; k < 4; k++ {
						if a, b := rIdx.Uint64(), rNaive.Uint64(); a != b {
							t.Fatalf("%s nodes=%d level=%s live=%v: RNG streams diverged (draw %d: %x vs %x)",
								pol, nodes, lv.name, live, k, a, b)
						}
					}
				}
			}
		}
	}
}

// TestPolicyDrawCount pins the RNG draw-count contract each policy must
// honor for stream alignment: a fixed number of IntN(n) draws per Pick,
// independent of the view's depths. A twin RNG replays the expected draws
// and both streams must end aligned after every pick of a churny run.
func TestPolicyDrawCount(t *testing.T) {
	const nodes = 17
	cases := []struct {
		pol   Policy
		draws int
	}{
		{Random{}, 1},
		{&RoundRobin{}, 0},
		{JSQ{D: 2}, 2},
		{JSQ{D: 5}, 5},
		{JSQ{D: nodes}, 1}, // d ≥ n: full scan, one tie-break offset
		{JSQ{D: FullScan}, 1},
		{&BoundedLoad{Factor: 1.25}, 0},
	}
	for _, c := range cases {
		r := rng.New(42)
		twin := rng.New(42)
		churn := rng.New(43)
		tr := newTier(nil, nil, nodes, true)
		v := tr.index
		var inflight []int
		for step := 0; step < 300; step++ {
			got := c.pol.Pick(v, r)
			for k := 0; k < c.draws; k++ {
				twin.IntN(nodes)
			}
			// One probe draw from each stream: equal iff the pick consumed
			// exactly the expected draws. The probe advances both streams in
			// lockstep, so the loop stays aligned.
			if a, b := r.Uint64(), twin.Uint64(); a != b {
				t.Fatalf("%s: draw count != %d per pick (streams diverged at step %d)", c.pol, c.draws, step)
			}
			tr.dispatched(got)
			inflight = append(inflight, got)
			if len(inflight) > 3*nodes {
				k := churn.IntN(len(inflight))
				tr.completed(inflight[k])
				inflight[k] = inflight[len(inflight)-1]
				inflight = inflight[:len(inflight)-1]
			}
		}
	}
}

// TestCursorStaysBounded asserts the satellite normalization: the rotation
// cursors of RoundRobin and BoundedLoad stay in [0, n) forever, so they
// cannot overflow on ultra-long runs.
func TestCursorStaysBounded(t *testing.T) {
	const nodes = 7
	rr := &RoundRobin{}
	bl := &BoundedLoad{Factor: 1.25}
	r := rng.New(9)
	tr := newTier(nil, nil, nodes, true)
	v := tr.index
	for step := 0; step < 5000; step++ {
		tr.dispatched(rr.Pick(v, r))
		tr.dispatched(bl.Pick(v, r))
		if rr.next < 0 || rr.next >= nodes {
			t.Fatalf("step %d: RoundRobin cursor %d out of [0,%d)", step, rr.next, nodes)
		}
		if bl.next < 0 || bl.next >= nodes {
			t.Fatalf("step %d: BoundedLoad cursor %d out of [0,%d)", step, bl.next, nodes)
		}
		if step%3 == 0 {
			for k := 0; k < 2; k++ {
				if c := step % nodes; v.Depth(c) > 0 {
					tr.completed(c)
				}
			}
		}
	}
}

// TestLoadBoundCeil is the regression test for the float-ceil fix: the old
// `int(x + 0.999999)` epsilon hack misrounds in both directions — down when
// x's fractional part is below the epsilon, and up at large totals where
// adding 0.999999 to x rounds (half-ulp) to the next integer. math.Ceil has
// neither failure. The table pins exact bounds for both regimes plus the
// ordinary cases, and documents which of them the old hack got wrong.
func TestLoadBoundCeil(t *testing.T) {
	oldBound := func(factor float64, total, n int) int {
		return int(factor*float64(total+1)/float64(n) + 0.999999)
	}
	cases := []struct {
		name          string
		factor        float64
		total, n      int
		want          int
		oldHackBroken bool
	}{
		// Ordinary operating points: both formulas agree.
		{"idle", 1.25, 0, 4, 1, false},
		{"steady", 1.25, 15, 4, 5, false},
		{"exact-integer", 1.25, 15, 5, 4, false},
		{"rack", 1.25, 3999, 1000, 5, false},
		// Tiny fractional part (< 1e-6): the hack rounds DOWN, losing the
		// admit-anywhere slack the +1 in total+1 is meant to guarantee.
		{"tiny-fraction", 1 + math.Pow(2, -30), 3, 4, 2, true},
		// Large totals: x = 1.25 × 2^47 / 4 is an exact integer, but
		// x + 0.999999 is within half an ulp of x+1 and rounds UP.
		{"large-total", 1.25, 1<<47 - 1, 4, 5 << 43, true},
	}
	for _, c := range cases {
		if got := loadBound(c.factor, c.total, c.n); got != c.want {
			t.Errorf("%s: loadBound(%v, %d, %d) = %d, want %d", c.name, c.factor, c.total, c.n, got, c.want)
		}
		if broken := oldBound(c.factor, c.total, c.n) != c.want; broken != c.oldHackBroken {
			t.Errorf("%s: epsilon hack broken=%v, expected broken=%v", c.name, broken, c.oldHackBroken)
		}
	}
}
