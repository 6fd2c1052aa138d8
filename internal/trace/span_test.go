package trace

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"rpcvalet/internal/sim"
)

// events builds a full single-machine lifecycle for one request.
func machineLifecycle(id uint64, arrive, dispatch, start, complete int64, core, depth int) []Event {
	return []Event{
		{ReqID: id, Phase: PhaseArrive, At: sim.Time(arrive), Core: -1, Depth: depth},
		{ReqID: id, Phase: PhaseDispatch, At: sim.Time(dispatch), Core: core, Depth: -1},
		{ReqID: id, Phase: PhaseStart, At: sim.Time(start), Core: core, Depth: -1},
		{ReqID: id, Phase: PhaseComplete, At: sim.Time(complete), Core: core, Depth: -1},
	}
}

func TestSpanAssembly(t *testing.T) {
	evs := machineLifecycle(7, 100, 150, 400, 900, 3, 5)
	spans := Spans(evs)
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	s := spans[0]
	if !s.Completed() {
		t.Fatal("span not completed")
	}
	if s.ReqID != 7 || s.Core != 3 || s.DepthAtArrival != 5 {
		t.Fatalf("attribution wrong: %+v", s)
	}
	if got := s.TotalNs(); got != sim.Time(900).Sub(sim.Time(100)).Nanos() {
		t.Fatalf("total = %v", got)
	}
	if s.QueueWaitNs() != sim.Time(400).Sub(sim.Time(100)).Nanos() {
		t.Fatalf("wait = %v", s.QueueWaitNs())
	}
	if s.ServiceNs() != sim.Time(900).Sub(sim.Time(400)).Nanos() {
		t.Fatalf("service = %v", s.ServiceNs())
	}
	if s.HopNs() != 0 {
		t.Fatalf("single-machine hop = %v, want 0", s.HopNs())
	}
	ws := s.WaitShare()
	if ws <= 0 || ws >= 1 {
		t.Fatalf("wait share = %v", ws)
	}
}

func TestSpanClusterHops(t *testing.T) {
	evs := []Event{
		{ReqID: 1, Phase: PhaseBalancerRecv, At: sim.Time(10), Core: -1, Node: -1, Depth: 4},
		{ReqID: 1, Phase: PhaseForward, At: sim.Time(20), Core: -1, Node: 2, Depth: 1},
		{ReqID: 1, Phase: PhaseArrive, At: sim.Time(50), Core: -1, Node: 2, Depth: 0},
		{ReqID: 1, Phase: PhaseDispatch, At: sim.Time(60), Core: 0, Node: 2, Depth: -1},
		{ReqID: 1, Phase: PhaseStart, At: sim.Time(70), Core: 0, Node: 2, Depth: -1},
		{ReqID: 1, Phase: PhaseComplete, At: sim.Time(170), Core: 0, Node: 2, Depth: -1},
	}
	s := Spans(evs)[0]
	if s.Node != 2 || s.DepthAtForward != 1 || s.DepthAtArrival != 0 {
		t.Fatalf("cluster attribution wrong: %+v", s)
	}
	if s.Begin() != sim.Time(10) {
		t.Fatalf("begin = %v, want balancer recv", s.Begin())
	}
	if s.TotalNs() != sim.Time(170).Sub(sim.Time(10)).Nanos() {
		t.Fatalf("total = %v", s.TotalNs())
	}
	if s.HopNs() != sim.Time(50).Sub(sim.Time(20)).Nanos() {
		t.Fatalf("hop = %v", s.HopNs())
	}
}

func TestSpanUnsetFields(t *testing.T) {
	s := newSpan(1)
	if s.TotalNs() != 0 || s.QueueWaitNs() != 0 || s.ServiceNs() != 0 || s.WaitShare() != 0 {
		t.Fatal("empty span should measure zero everywhere")
	}
	if s.Completed() {
		t.Fatal("empty span reports completed")
	}
	if s.String() == "" {
		t.Fatal("empty span string")
	}
}

func TestPhaseRankCausalOrder(t *testing.T) {
	order := []Phase{PhaseGlobalRecv, PhaseGlobalForward, PhaseBalancerRecv, PhaseForward,
		PhaseArrive, PhaseDispatch, PhaseStart, PhaseComplete}
	for i := 1; i < len(order); i++ {
		if order[i-1].Rank() >= order[i].Rank() {
			t.Fatalf("%v rank %d not before %v rank %d",
				order[i-1], order[i-1].Rank(), order[i], order[i].Rank())
		}
	}
	if Phase(42).Rank() <= PhaseComplete.Rank() {
		t.Fatal("unknown phase must rank last")
	}
}

func TestNewPhaseStrings(t *testing.T) {
	if PhaseBalancerRecv.String() != "balancer-recv" || PhaseForward.String() != "forward" {
		t.Fatalf("hop phase strings: %q %q", PhaseBalancerRecv, PhaseForward)
	}
	if PhaseGlobalRecv.String() != "global-recv" || PhaseGlobalForward.String() != "global-forward" {
		t.Fatalf("global phase strings: %q %q", PhaseGlobalRecv, PhaseGlobalForward)
	}
}

func TestSpanGlobalHops(t *testing.T) {
	evs := []Event{
		{ReqID: 3, Phase: PhaseGlobalRecv, At: sim.Time(5), Core: -1, Node: -1, Depth: 9},
		{ReqID: 3, Phase: PhaseGlobalForward, At: sim.Time(5), Core: -1, Node: 1, Depth: 6},
		{ReqID: 3, Phase: PhaseBalancerRecv, At: sim.Time(30), Core: -1, Node: -1, Depth: 4},
		{ReqID: 3, Phase: PhaseForward, At: sim.Time(30), Core: -1, Node: 7, Depth: 1},
		{ReqID: 3, Phase: PhaseArrive, At: sim.Time(55), Core: -1, Node: 7, Depth: 0},
		{ReqID: 3, Phase: PhaseDispatch, At: sim.Time(60), Core: 2, Node: 7, Depth: -1},
		{ReqID: 3, Phase: PhaseStart, At: sim.Time(70), Core: 2, Node: 7, Depth: -1},
		{ReqID: 3, Phase: PhaseComplete, At: sim.Time(170), Core: 2, Node: 7, Depth: -1},
	}
	s := Spans(evs)[0]
	if s.Rack != 1 || s.Node != 7 || s.DepthAtGlobalForward != 6 {
		t.Fatalf("global attribution wrong: %+v", s)
	}
	if s.Begin() != sim.Time(5) {
		t.Fatalf("begin = %v, want global recv", s.Begin())
	}
	if s.TotalNs() != sim.Time(170).Sub(sim.Time(5)).Nanos() {
		t.Fatalf("total = %v", s.TotalNs())
	}
	if s.GlobalHopNs() != sim.Time(30).Sub(sim.Time(5)).Nanos() {
		t.Fatalf("global hop = %v", s.GlobalHopNs())
	}
	if s.HopNs() != sim.Time(55).Sub(sim.Time(30)).Nanos() {
		t.Fatalf("rack hop = %v", s.HopNs())
	}
	// The legs telescope: global hop + rack hop + wait + service spans the
	// whole latency (forward decisions are instantaneous in both tiers).
	sum := s.GlobalHopNs() + s.HopNs() + s.QueueWaitNs() + s.ServiceNs()
	if sum != s.TotalNs() {
		t.Fatalf("legs %v do not telescope to total %v", sum, s.TotalNs())
	}
	// A flat-cluster span must keep its off-hierarchy sentinels.
	flat := Spans(evs[2:])[0]
	if flat.Rack != -1 || flat.GlobalRecv != Unset || flat.GlobalHopNs() != 0 {
		t.Fatalf("flat span leaked hierarchy fields: %+v", flat)
	}
}

func TestTailSamplerKeepsSlowest(t *testing.T) {
	ts := NewTailSampler(3)
	// 10 requests with totals 100, 200, ..., 1000 ns (in ps units via sim.FromNanos).
	for i := 0; i < 10; i++ {
		total := int64(sim.FromNanos(float64((i + 1) * 100)))
		for _, e := range machineLifecycle(uint64(i), 0, total/4, total/2, total, i%4, i) {
			ts.Record(e)
		}
	}
	if ts.Completed() != 10 {
		t.Fatalf("completed = %d", ts.Completed())
	}
	spans := ts.Spans()
	if len(spans) != 3 {
		t.Fatalf("tail size = %d", len(spans))
	}
	for i, wantID := range []uint64{9, 8, 7} {
		if spans[i].ReqID != wantID {
			t.Fatalf("tail order: got %v", spans)
		}
	}
	if spans[0].TotalNs() < spans[1].TotalNs() || spans[1].TotalNs() < spans[2].TotalNs() {
		t.Fatal("tail not slowest-first")
	}
}

func TestTailSamplerDeterministicTies(t *testing.T) {
	run := func() []uint64 {
		ts := NewTailSampler(2)
		for i := 0; i < 6; i++ {
			for _, e := range machineLifecycle(uint64(i), 0, 10, 20, 1000, 0, 0) {
				ts.Record(e)
			}
		}
		var ids []uint64
		for _, s := range ts.Spans() {
			ids = append(ids, s.ReqID)
		}
		return ids
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tie-break nondeterministic: %v vs %v", a, b)
		}
	}
	// All totals equal: lowest request IDs survive (an equal span with a
	// higher ID never displaces a retained one), ordered by ID.
	if a[0] != 0 || a[1] != 1 {
		t.Fatalf("tie retention: %v", a)
	}
}

func TestTailSamplerPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTailSampler(0) did not panic")
		}
	}()
	NewTailSampler(0)
}

func TestCollectorKeepsAll(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 5; i++ {
		for _, e := range machineLifecycle(uint64(i), int64(i)*10, int64(i)*10+1, int64(i)*10+2, int64(i)*10+9, 0, 0) {
			c.Record(e)
		}
	}
	spans := c.Spans()
	if len(spans) != 5 {
		t.Fatalf("collected = %d", len(spans))
	}
	for i, s := range spans {
		if s.ReqID != uint64(i) || !s.Completed() {
			t.Fatalf("completion order broken: %v", spans)
		}
	}
}

// eventLog is a Recorder keeping every event in recording order.
type eventLog []Event

func (l *eventLog) Record(e Event) { *l = append(*l, e) }

func TestTeeFansOut(t *testing.T) {
	b1, b2 := &eventLog{}, &eventLog{}
	r := Tee(b1, nil, b2)
	r.Record(Event{ReqID: 1, Phase: PhaseArrive})
	if len(*b1) != 1 || len(*b2) != 1 {
		t.Fatalf("tee totals: %d %d", len(*b1), len(*b2))
	}
	if Tee(nil, nil) != nil || Tee(nil, b1) != Recorder(b1) {
		t.Fatal("Tee of no recorders must be nil, of one that recorder")
	}
}

func TestSortSlowestFirstTieBreak(t *testing.T) {
	spans := []Span{
		{ReqID: 5, Arrive: 0, Complete: 100},
		{ReqID: 2, Arrive: 0, Complete: 100},
		{ReqID: 9, Arrive: 0, Complete: 200},
	}
	SortSlowestFirst(spans)
	if spans[0].ReqID != 9 || spans[1].ReqID != 2 || spans[2].ReqID != 5 {
		t.Fatalf("sort order: %v", spans)
	}
}

// TestTailSamplerMatchesSortedCollector: on streams with equal totals and
// completions out of request order, the sampler keeps exactly the first K
// of SortSlowestFirst over every completed span.
func TestTailSamplerMatchesSortedCollector(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.IntN(40)
		k := 1 + r.IntN(8)
		var evs []Event
		for _, id := range r.Perm(n) {
			arrive := int64(r.IntN(50)) * 1000
			// Few distinct totals, so equal-latency ties are common.
			complete := arrive + int64(1+r.IntN(4))*100_000
			evs = append(evs, machineLifecycle(uint64(id), arrive, arrive+10, arrive+20, complete, 0, 0)...)
		}
		// Deliver in time order, so completions interleave across requests.
		slices.SortStableFunc(evs, func(a, b Event) int { return cmp.Compare(a.At, b.At) })
		ts, c := NewTailSampler(k), NewCollector()
		for _, e := range evs {
			ts.Record(e)
			c.Record(e)
		}
		want := append([]Span(nil), c.Spans()...)
		SortSlowestFirst(want)
		want = want[:min(k, len(want))]
		if got := ts.Spans(); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d k=%d): tail %v, want %v", trial, n, k, got, want)
		}
	}
}

func TestSampleKeepsWholeRequests(t *testing.T) {
	b := &eventLog{}
	r := Sample(b, 4)
	for id := uint64(0); id < 10; id++ {
		for _, e := range machineLifecycle(id, 0, 1, 2, 3, 0, 0) {
			r.Record(e)
		}
	}
	byReq := map[uint64][]Event{}
	for _, e := range *b {
		byReq[e.ReqID] = append(byReq[e.ReqID], e)
	}
	if len(byReq) != 3 {
		t.Fatalf("sampled requests %d, want 3 (0, 4, 8)", len(byReq))
	}
	for _, id := range []uint64{0, 4, 8} {
		if len(byReq[id]) != 4 {
			t.Fatalf("request %d kept %d of 4 events", id, len(byReq[id]))
		}
	}
	if Sample(b, 1) != Recorder(b) || Sample(b, 0) != Recorder(b) || Sample(nil, 4) != nil {
		t.Fatal("Sample with n <= 1 or a nil recorder must pass it through")
	}
}
