package cluster

import (
	"reflect"
	"testing"

	"rpcvalet/internal/rng"
	"rpcvalet/internal/sim"
)

// depthProbe is a policy that records every depth its view shows and picks
// endpoint 0: a window onto exactly what a tier's policy decides over.
type depthProbe struct{ seen []int }

func (p *depthProbe) Pick(v View, _ *rng.Source) int {
	p.seen = p.seen[:0]
	for i := 0; i < v.Nodes(); i++ {
		p.seen = append(p.seen, v.Depth(i))
	}
	return 0
}
func (p *depthProbe) Clone() Policy  { return &depthProbe{} }
func (p *depthProbe) String() string { return "probe" }

// TestStaleTierVisibility models staleness independently of how a tier
// stores it: dispatches show at once on every tier; drains show at once on
// a live tier and only at the next refresh on a stale one; a scraped tier
// shows the scraped values plus the dispatches made since the scrape, and
// never its own drains.
func TestStaleTierVisibility(t *testing.T) {
	const every = 10 * sim.Nanosecond
	build := func(live bool) (*tier, *depthProbe) {
		p := &depthProbe{}
		return newTier(p, nil, 3, live), p
	}
	check := func(name string, tr *tier, p *depthProbe, want ...int) {
		t.Helper()
		tr.pick()
		if !reflect.DeepEqual(p.seen, want) {
			t.Fatalf("%s: visible depths %v, want %v", name, p.seen, want)
		}
	}

	live, lp := build(true)
	live.scheduleRefresh(sim.New(), every, nil) // a no-op on a live tier
	live.dispatched(0)
	live.dispatched(0)
	live.dispatched(1)
	check("live dispatch", live, lp, 2, 1, 0)
	live.completed(0)
	check("live drain", live, lp, 1, 1, 0)

	eng := sim.New()
	stale, sp := build(false)
	stale.scheduleRefresh(eng, every, nil)
	stale.dispatched(0)
	stale.dispatched(0)
	stale.dispatched(1)
	check("stale dispatch", stale, sp, 2, 1, 0)
	stale.completed(0)
	eng.RunUntil(sim.Time(0).Add(every - 1))
	check("stale drain before refresh", stale, sp, 2, 1, 0)
	eng.RunUntil(sim.Time(0).Add(every))
	check("stale drain at refresh", stale, sp, 1, 1, 0)
	stale.dispatched(2)
	stale.completed(1)
	check("stale dispatch after refresh", stale, sp, 1, 1, 1)
	eng.RunUntil(sim.Time(0).Add(2 * every))
	check("stale second refresh", stale, sp, 1, 0, 1)

	eng = sim.New()
	src := []int{5, 0, 3}
	scraped, cp := build(false)
	scraped.scheduleRefresh(eng, every, func(i int) int { return src[i] })
	scraped.dispatched(1)
	scraped.completed(1)
	check("scraped before first scrape", scraped, cp, 0, 1, 0)
	eng.RunUntil(sim.Time(0).Add(every))
	check("scraped values", scraped, cp, 5, 0, 3)
	scraped.dispatched(1)
	scraped.dispatched(1)
	scraped.completed(0)
	check("scrape plus dispatches", scraped, cp, 5, 2, 3)
	src = []int{1, 1, 1}
	eng.RunUntil(sim.Time(0).Add(2 * every))
	check("second scrape", scraped, cp, 1, 1, 1)
}
