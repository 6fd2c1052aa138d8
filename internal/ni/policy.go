package ni

import (
	"fmt"
	"strconv"
	"strings"

	"rpcvalet/internal/depth"
	"rpcvalet/internal/rng"
)

// This file holds the declarative side of the dispatch-policy layer: the
// parameterized policies beyond the simple arbiters in ni.go, and the Spec
// registry that lets a dispatch plan name a policy ("least-outstanding",
// "random2", "local", ...) and have each dispatcher receive its own fresh,
// deterministically seeded instance. Policies carry state (rotation
// counters, RNG streams), so sharing one instance across dispatchers would
// entangle their decisions; Spec.New exists to prevent exactly that.

// Group describes the dispatcher a policy instance will serve: its index
// within the machine, its core IDs, and enough mesh geometry for
// locality-aware policies. Seed is a per-dispatcher deterministic stream
// seed for randomized policies — derived from the run seed and the group
// index, so identical configurations reproduce identical dispatch decisions.
type Group struct {
	Index     int   // dispatcher index within the machine
	Cores     []int // core IDs in this dispatcher's group
	Row       int   // mesh row of the dispatcher's tile
	MeshWidth int   // mesh width, for the core ID → row mapping
	Seed      uint64
}

// Spec names a dispatch policy and builds fresh instances per dispatcher.
// The zero Spec means "default": the machine falls back to its historical
// occupancy-feedback arbiter (LeastOutstandingRR).
type Spec struct {
	Name string
	New  func(Group) Policy
}

// PolicyNames lists the built-in policy names in report order. randomN is
// accepted for any N ≥ 2 ("random2", "random3", ...); the canonical list
// shows the power-of-two-choices instance.
var PolicyNames = []string{
	"first-available",
	"round-robin",
	"least-outstanding",
	"least-outstanding-rr",
	"random2",
	"local",
}

// SpecByName resolves a policy name to its Spec. Accepted names are those in
// PolicyNames, with "randomN" generalized to any N ≥ 2 written in plain
// decimal: "random007" and "random+7" are errors, so an accepted name is the
// one its Spec reports and parses back to the same Spec.
func SpecByName(name string) (Spec, error) {
	switch name {
	case "first-available":
		return Spec{Name: name, New: func(Group) Policy { return FirstAvailable{} }}, nil
	case "round-robin":
		return Spec{Name: name, New: func(Group) Policy { return &RoundRobin{} }}, nil
	case "least-outstanding":
		return Spec{Name: name, New: func(Group) Policy { return LeastOutstanding{} }}, nil
	case "least-outstanding-rr":
		return Spec{Name: name, New: func(Group) Policy { return &LeastOutstandingRR{} }}, nil
	case "local":
		return Spec{Name: name, New: func(g Group) Policy {
			return &LocalFirst{HomeRow: g.Row, MeshWidth: g.MeshWidth}
		}}, nil
	}
	if d, ok := strings.CutPrefix(name, "random"); ok {
		n, err := strconv.Atoi(d)
		if err != nil || n < 2 || strconv.Itoa(n) != d {
			return Spec{}, fmt.Errorf("ni: bad random-of-d policy %q (want random2, random3, ...)", name)
		}
		return Spec{Name: name, New: func(g Group) Policy { return NewRandomOfD(n, g.Seed) }}, nil
	}
	return Spec{}, fmt.Errorf("ni: unknown dispatch policy %q (have %s)",
		name, strings.Join(PolicyNames, ", "))
}

// RandomOfD is the power-of-d-choices arbiter: sample d distinct available
// cores uniformly at random (all of them when d ≥ the available count) and
// hand the message to the least-outstanding of the sample. d=2 captures
// most of the full least-outstanding benefit while probing only two
// occupancy counters — the classic Mitzenmacher result, and a plausible
// microcoded NI policy.
type RandomOfD struct {
	D     int
	rng   *rng.Source
	draws []int // this Pick's Fisher–Yates swap targets, one per sample
}

// NewRandomOfD builds a power-of-d-choices policy with its own
// deterministic stream.
func NewRandomOfD(d int, seed uint64) *RandomOfD {
	if d < 2 {
		panic(fmt.Sprintf("ni: RandomOfD needs d >= 2, got %d", d))
	}
	return &RandomOfD{D: d, rng: rng.New(seed)}
}

// Pick implements Policy. When the sample would cover every available core
// it is full least-outstanding and draws nothing. Otherwise it runs a
// partial Fisher–Yates over the n available cores' ranks: sample k swaps
// rank k with rank j = k + IntN(n−k), and the core it takes is the one at
// rank j, found by replaying the earlier swaps backwards from j. Ties go to
// the earlier sample.
func (p *RandomOfD) Pick(_ Msg, v *View) int {
	avail := v.Available()
	n := avail.Count()
	if p.D >= n {
		return v.Least().Nth(0)
	}
	if p.draws == nil {
		// Sized on the first sampling pick, when D is below the group's
		// size: a hostile D ("random99999999999") never reaches here.
		p.draws = make([]int, p.D)
	}
	best := -1
	for k := 0; k < p.D; k++ {
		j := k + p.rng.IntN(n-k)
		p.draws[k] = j
		for s := k - 1; s >= 0; s-- {
			if p.draws[s] == j {
				j = s
			}
		}
		if c := avail.Nth(j); best == -1 || v.Outstanding(c) < v.Outstanding(best) {
			best = c
		}
	}
	return best
}

func (p *RandomOfD) String() string { return fmt.Sprintf("random%d", p.D) }

// LocalFirst prefers cores on the dispatcher's own mesh row — the cores a
// CQE reaches in X-dimension hops only, without crossing rows — and falls
// back to the whole group when the home row is saturated. Within either set
// it picks the least-outstanding core (earliest position on ties). This is
// the paper's "certain types of RPCs serviced by specific cores" sketch
// turned into a topology policy: it trades some balancing freedom for
// shorter dispatcher→core delivery paths.
type LocalFirst struct {
	HomeRow   int // mesh row of the dispatcher's tile
	MeshWidth int // core ID → row mapping: row = id / MeshWidth

	home depth.Set // home-row positions of the view it was built for
	of   *View
}

// Pick implements Policy.
func (p *LocalFirst) Pick(_ Msg, v *View) int {
	if p.of != v {
		p.of, p.home = v, make(depth.Set, (v.Len()+63)/64)
		for i := range v.Len() {
			if v.Core(i)/p.MeshWidth == p.HomeRow {
				p.home[i>>6] |= 1 << uint(i&63)
			}
		}
	}
	if c := v.LeastIn(p.home); c >= 0 {
		return c
	}
	return v.Least().Nth(0)
}

func (p *LocalFirst) String() string { return fmt.Sprintf("local(row %d)", p.HomeRow) }
