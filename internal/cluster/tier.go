package cluster

// tier.go: the composable dispatch tier behind every balancer in the
// package. A tier is one balancing stage — a Policy deciding over a depth
// view of E endpoints: machines for the flat cluster balancer and for each
// rack balancer, whole racks for the global balancer of a two-tier
// datacenter (run.go). The depth index rides inside the view,
// so the O(N/64) indexed policies work unchanged at either tier.
//
// The property that makes tiers stack is that a tier also *exposes* the
// depth-observable surface a node does: aggregate() is the tier's total
// visible outstanding — the aggregate-over-index signal (index.go keeps the
// running Σ depth, so it is O(1)). To the global balancer a rack is just one
// more balanceable endpoint publishing a queue-depth number; whether that
// number is exact, stale-sampled, or scraped periodically is the enclosing
// run's choice (Config.SampleEvery, Config.GlobalSampleEvery).

import (
	"rpcvalet/internal/rng"
	"rpcvalet/internal/sim"
)

// tier is one balancing stage: a policy, its private RNG stream, and the
// depth view it decides over.
type tier struct {
	pol Policy
	rng *rng.Source
	v   *view
}

// newTier builds a tier over `endpoints` endpoints. A nil policy is allowed
// only for a degenerate single-endpoint tier whose caller never calls pick.
func newTier(pol Policy, src *rng.Source, endpoints int, live bool) *tier {
	return &tier{pol: pol, rng: src, v: newView(endpoints, live)}
}

// pick runs the tier's policy over its current view.
func (t *tier) pick() int { return t.pol.Pick(t.v, t.rng) }

// dispatched records one RPC routed to endpoint i (always visible
// immediately — the decision happens here).
func (t *tier) dispatched(i int) { t.v.dispatched(i) }

// completed records one RPC known to have drained from endpoint i.
func (t *tier) completed(i int) { t.v.completed(i) }

// depth is the tier's visible depth of endpoint i.
func (t *tier) depth(i int) int { return t.v.Depth(i) }

// aggregate is the tier's own published depth signal: the total visible
// outstanding across its endpoints, read off the depth index's running sum in
// O(1). For a live view this is exact; for a stale view it reflects the
// tier's own sampling delay — an enclosing tier scraping it inherits that
// staleness, exactly as real telemetry pipelines compound.
func (t *tier) aggregate() int { return t.v.idx.total }

// scheduleRefresh installs the tier's periodic stale-view refresh on eng
// (no-op for a live view). Every `every`, the visible depths are reset to
// the tier's own outstanding truth or, with scrape set, to an external depth
// source — the global tier scraping each rack balancer's published
// aggregate. Endpoints dispatched to since the last refresh still count live
// (view.sent), so the tier never forgets its own in-flight decisions; what a
// scrape can miss is requests still crossing the global hop, an undercount
// bounded by rate × GlobalHop.
func (t *tier) scheduleRefresh(eng *sim.Engine, every sim.Duration, scrape func(i int) int) {
	if t.v.live {
		return
	}
	var refresh func()
	refresh = func() {
		if scrape != nil {
			t.v.snapshotFrom(scrape)
		} else {
			t.v.snapshot()
		}
		eng.Schedule(every, refresh)
	}
	eng.Schedule(every, refresh)
}
