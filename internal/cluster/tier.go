package cluster

// tier.go: the composable dispatch tier behind every balancer in the
// package. A tier is one balancing stage — a Policy deciding over the depth
// index of E endpoints: machines for the flat cluster balancer and for each
// rack balancer, whole racks for the global balancer of a two-tier
// datacenter (run.go). The index is the view (internal/depth), so the O(N/64)
// indexed policies work unchanged at either tier.
//
// The property that makes tiers stack is that a tier also *exposes* the
// depth-observable surface a node does: its index's running total is the
// tier's visible outstanding, O(1) to read. To the global balancer a rack is
// just one more balanceable endpoint publishing a queue-depth number;
// whether that number is exact, stale-sampled, or scraped periodically is
// the enclosing run's choice (Config.SampleEvery, Config.GlobalSampleEvery).
//
// Staleness delays only the *completion* side. The tier always knows its
// own dispatches the instant it makes them, so they show in the index at
// once; a live tier's drains show at once too, while a stale tier's show
// only at its next periodic refresh — the herding a delayed-feedback
// balancer actually exhibits.

import (
	"rpcvalet/internal/rng"
	"rpcvalet/internal/sim"
)

// tier is one balancing stage: a policy, its private RNG stream, and the
// depth index it decides over — the only store of its endpoints' visible
// depths. out holds the true outstanding per endpoint, copied into the index
// at each refresh; it exists only on a stale tier that refreshes from its own
// accounting rather than a scrape. settle is set only on a sharded run's
// front tier: it applies the completions the tier is owed and reports
// whether the run goes on, and each refresh runs it first.
type tier struct {
	pol    Policy
	rng    *rng.Source
	index  depthIndex
	live   bool
	out    []int
	settle func() bool
}

// newTier builds a tier over `endpoints` endpoints. A nil policy is allowed
// only for a degenerate single-endpoint tier whose caller never calls pick.
func newTier(pol Policy, src *rng.Source, endpoints int, live bool) *tier {
	return &tier{pol: pol, rng: src, index: newDepthIndex(endpoints), live: live}
}

// pick runs the tier's policy over its index.
func (t *tier) pick() int { return t.pol.Pick(t.index, t.rng) }

// dispatched records one RPC routed to endpoint i (always visible
// immediately — the decision happens here).
func (t *tier) dispatched(i int) {
	if t.out != nil {
		t.out[i]++
	}
	t.index.Inc(i)
}

// completed records one RPC known to have drained from endpoint i: visible
// at once on a live tier, at the next refresh on a stale one.
func (t *tier) completed(i int) {
	switch {
	case t.live:
		t.index.Dec(i)
	case t.out != nil:
		t.out[i]--
	}
}

// scheduleRefresh installs the tier's periodic stale-view refresh on eng
// (no-op for a live tier). Every `every`, the visible depths are reset to
// the tier's own outstanding truth or, with scrape set, to an external depth
// source — the global tier scraping each rack balancer's published
// aggregate. Dispatches after a refresh count in the index at once, so the
// tier never forgets its own in-flight decisions; what a scrape can miss is
// requests still crossing the global hop, an undercount bounded by
// rate × GlobalHop. A refresh whose settle ends the run does nothing else.
func (t *tier) scheduleRefresh(eng *sim.Engine, every sim.Duration, scrape func(i int) int) {
	if t.live {
		return
	}
	if scrape == nil {
		t.out = make([]int, t.index.Nodes())
		scrape = func(i int) int { return t.out[i] }
	}
	var refresh func()
	refresh = func() {
		if t.settle != nil && !t.settle() {
			return
		}
		t.index.Rebuild(scrape)
		eng.Schedule(every, refresh)
	}
	eng.Schedule(every, refresh)
}
