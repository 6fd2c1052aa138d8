package machine

import (
	"math"
	"reflect"
	"testing"

	"rpcvalet/internal/sim"
	"rpcvalet/internal/sonuma"
	"rpcvalet/internal/workload"
)

// TestSlotOwnershipConservation drives a two-node, two-slot domain with a
// 20 µs network round trip in every dispatch mode at 0.2 MRPS — about all
// that two reply credits per source, each back 20 µs after its reply, can
// carry — so arrivals park on receive-slot flow control and cores stall on
// reply credits, and then audits the machine's slot tables where the run
// stops. It stops on MaxSimTime, between events, rather than on the
// completion target, whose last request stops the engine mid-completion.
// The audit:
//   - every occupied receive slot is held by exactly one admitted request
//     (one whose slot is not -1), and that slot is the receive index of the
//     request's source and pair slot;
//   - for every source, its free-slot ring together with the pair slots of
//     its admitted requests and of the replenishes still pending holds
//     each of 0..S-1 exactly once;
//   - every reply send slot in flight is held by exactly one pending reply
//     credit, and both credit lists are in (at, seq) key order;
//   - every request ever allocated is exactly one of admitted, parked or
//     pooled, and inflightCount counts the first two.
//
// It also checks that a source waits only on credits it lacks: one with
// parked arrivals has no free slot, one with stalled cores no free send
// slot, and neither has a credit of that kind past its key unapplied.
func TestSlotOwnershipConservation(t *testing.T) {
	for _, mode := range []Mode{ModeSingleQueue, ModeGrouped, ModePartitioned, ModeSoftware} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := flowBoundConfig(mode)
			cfg.Warmup, cfg.Measure = 200, 20000
			cfg.MaxSimTime = 5000 * sim.Microsecond
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if !m.timedOut || m.completed < cfg.Warmup {
				t.Fatalf("run stopped after %d completions (timed out %v); want a MaxSimTime stop past warmup",
					m.completed, m.timedOut)
			}
			if m.blockedArrivals == 0 || m.replyStalls == 0 {
				t.Fatalf("blocked arrivals %d, reply stalls %d: want both flow-control paths exercised",
					m.blockedArrivals, m.replyStalls)
			}
			auditSlots(t, m)
			auditNotices(t, m)
		})
	}
}

// flowBoundConfig is TestSlotOwnershipConservation's machine: two source
// nodes with two slots each, a 20 µs round trip and 0.2 MRPS of
// synthetic-fixed traffic, so both flow-control paths fire.
func flowBoundConfig(mode Mode) Config {
	cfg := testConfig(mode, workload.SyntheticFixed(), 0.2)
	cfg.Params.Domain.Nodes = 2
	cfg.Params.Domain.Slots = 2
	cfg.Params.NetRTT = 20 * sim.Microsecond
	return cfg
}

// auditSlots checks the conservation invariants TestSlotOwnershipConservation
// describes on a stopped machine.
func auditSlots(t *testing.T, m *Machine) {
	t.Helper()
	seen := make([]string, len(m.reqs)) // what accounted for each ref
	account := func(req *request, as string) {
		t.Helper()
		if seen[req.ref] != "" {
			t.Fatalf("request ref %d is both %s and %s", req.ref, seen[req.ref], as)
		}
		seen[req.ref] = as
	}

	dom := m.p.Domain
	// pairs[n][s] counts the places pair slot s of source n is found.
	pairs := make([][]int, dom.Nodes)
	for n := range pairs {
		pairs[n] = make([]int, dom.Slots)
	}
	admitted, landed := 0, 0
	owner := map[int]int32{} // receive slot -> ref of the admitted request holding it
	for _, req := range m.reqs {
		if req.slot < 0 {
			continue
		}
		if o, dup := owner[req.slot]; dup {
			t.Fatalf("receive slot %d held by refs %d and %d", req.slot, o, req.ref)
		}
		owner[req.slot] = req.ref
		if want := dom.RecvSlotIndex(req.src, req.pairSlot); req.slot != want {
			t.Fatalf("ref %d holds receive slot %d, want %d for node %d pair slot %d",
				req.ref, req.slot, want, req.src, req.pairSlot)
		}
		// A slot turns busy when the message's first packet lands, so an
		// admitted request whose packets are still in the NI holds an idle
		// slot.
		if m.recvBuf.Busy(req.slot) {
			landed++
		}
		pairs[req.src][req.pairSlot]++
		account(req, "admitted")
		admitted++
	}
	if got := m.recvBuf.InUse(); got != landed {
		t.Fatalf("receive buffer has %d slots in use, admitted requests hold %d busy ones", got, landed)
	}

	// A source only waits on credits it lacks: its free ring is empty (for
	// parked arrivals) or all its send slots are in flight (for stalled
	// cores), and none of its credits of that kind has passed its key
	// unapplied, since each would have fired as a wake.
	passed := func(list *sim.Deferred[credit], src int) bool {
		for i := range list.Len() {
			if k := list.At(i); int(k.Val.src) == src && m.eng.Due(k.At, k.Seq) {
				return true
			}
		}
		return false
	}
	for src, w := range m.replyWaiters {
		if w != nil && w.Len() > 0 &&
			(m.replyBuf.InFlight(sonuma.NodeID(src)) != dom.Slots || passed(&m.replyCredits, src)) {
			t.Fatalf("%d cores stall on node %d with %d of %d send slots in flight", w.Len(), src,
				m.replyBuf.InFlight(sonuma.NodeID(src)), dom.Slots)
		}
	}
	parked := 0
	for src, w := range m.pendingBySrc {
		if w != nil && w.Len() > 0 && (m.freeLen[src] != 0 || passed(&m.replenishes, src)) {
			t.Fatalf("%d arrivals park on node %d with %d free slots", w.Len(), src, m.freeLen[src])
		}
		for w != nil && w.Len() > 0 {
			req, _ := w.Pop()
			account(req, "parked")
			parked++
		}
	}
	if m.inflightCount != admitted+parked {
		t.Fatalf("inflightCount %d, want %d admitted + %d parked", m.inflightCount, admitted, parked)
	}

	// A completed request's two credits wait in the credit lists until
	// settled: a replenish returns its pair slot to the source's ring, a
	// reply credit frees its send slot.
	type sendSlot struct {
		dest sonuma.NodeID
		slot int
	}
	held := map[sendSlot]bool{}
	for r, list := range []*sim.Deferred[credit]{&m.replenishes, &m.replyCredits} {
		for i := range list.Len() {
			k, c := list.At(i), list.At(i).Val
			if i > 0 {
				if p := list.At(i - 1); p.At > k.At || p.At == k.At && p.Seq >= k.Seq {
					t.Fatalf("credit list %d out of key order: (%v, %d) before (%v, %d)", r, p.At, p.Seq, k.At, k.Seq)
				}
			}
			if r == 0 {
				pairs[c.src][c.slot]++
				continue
			}
			s := sendSlot{sonuma.NodeID(c.src), int(c.slot)}
			if held[s] || !m.replyBuf.Valid(s.dest, s.slot) {
				t.Fatalf("a reply credit returns slot %d toward node %d: duplicate or not in flight", s.slot, s.dest)
			}
			held[s] = true
		}
	}
	inFlight := 0
	for d := range m.p.Domain.Nodes {
		inFlight += m.replyBuf.InFlight(sonuma.NodeID(d))
	}
	if inFlight != len(held) {
		t.Fatalf("%d reply slots in flight, %d reply credits pending", inFlight, len(held))
	}

	for n := range dom.Nodes {
		if h, l := int(m.freeHead[n]), int(m.freeLen[n]); h >= dom.Slots || l < 0 || l > dom.Slots {
			t.Fatalf("node %d ring head %d, length %d: want head < %d, 0 ≤ length ≤ %[4]d", n, h, l, dom.Slots)
		}
		ring := m.freeSlots[n*dom.Slots : (n+1)*dom.Slots]
		for i := range int(m.freeLen[n]) {
			pairs[n][ring[(int(m.freeHead[n])+i)%dom.Slots]]++
		}
		for s, k := range pairs[n] {
			if k != 1 {
				t.Fatalf("node %d pair slot %d found %d times among its ring, admitted requests and pending replenishes", n, s, k)
			}
		}
	}

	for _, req := range m.pool {
		if req.slot != -1 {
			t.Fatalf("pooled ref %d still holds receive slot %d", req.ref, req.slot)
		}
		account(req, "pooled")
	}
	for ref, as := range seen {
		if as == "" {
			t.Fatalf("request ref %d is unaccounted for", ref)
		}
	}
	t.Logf("%d requests allocated: %d admitted, %d parked, %d pooled; %d replenishes, %d reply credits pending",
		len(m.reqs), admitted, parked, len(m.pool), m.replenishes.Len(), len(held))
}

// auditNotices checks each dispatcher of a stopped machine against its
// completion notices (DESIGN.md §9). Every core's outstanding count is the
// requests dispatched to it and not completed plus its notices not yet
// applied, deferred or scheduled as events. No notice is deferred while
// the CQ holds a request, and the deferred ones are in (at, seq) key order
// and arrive after the latest route token leaves the dispatch stage.
func auditNotices(t *testing.T, m *Machine) {
	t.Helper()
	if m.plan.software {
		return // no dispatcher
	}
	// want counts each core's dispatched requests not completed, then its
	// notices not yet applied.
	want := make([]int, len(m.cores))
	for _, req := range m.reqs {
		if req.slot >= 0 && req.core != nil {
			want[req.core.id]++
		}
	}
	for g, d := range m.dispatchers {
		q := &m.notices[g]
		if d.QueueDepth() > 0 && q.Len() > 0 {
			t.Fatalf("dispatcher %d defers %d notices with %d requests in its CQ", g, q.Len(), d.QueueDepth())
		}
		for i := 1; i < q.Len(); i++ {
			if p, n := q.At(i-1), q.At(i); p.At > n.At || p.At == n.At && p.Seq >= n.Seq {
				t.Fatalf("dispatcher %d notices out of key order: (%v, %d) before (%v, %d)", g, p.At, p.Seq, n.At, n.Seq)
			}
		}
		for i := range q.Len() {
			n := q.At(i)
			if n.At <= q.routeEnd {
				t.Fatalf("dispatcher %d defers a notice arriving at %v, by the route stage end %v", g, n.At, q.routeEnd)
			}
			want[n.Val.id]++
		}
	}
	for _, c := range m.cores {
		want[c.id] += m.eng.PendingWith(c) // notices scheduled as events
		if got := m.dispatchers[c.disp].Outstanding(c.id); got != want[c.id] {
			t.Fatalf("core %d has %d outstanding, want %d: dispatched and not completed, or notices unapplied", c.id, got, want[c.id])
		}
	}
}

// fuzzPlans are the dispatch plans FuzzMachineConfig draws from: the four
// canned ones, JBSQ at two bounds, and groupings under named policies.
var fuzzPlans = []string{"1x16", "4x4", "16x1", "sw", "jbsq1", "jbsq3", "2x8:random2", "4x4:local", "1x16:round-robin", "8x2:first-available"}

// fuzzWorkload is the workload FuzzMachineConfig's selector i picks: HERD,
// synthetic-exp, Masstree, or HERD with requests past the inline limit, which
// take the rendezvous path.
func fuzzWorkload(i uint8) workload.Profile {
	switch i % 4 {
	case 1:
		return workload.SyntheticExp()
	case 2:
		return workload.Masstree()
	case 3:
		wl := workload.HERD()
		wl.RequestBytes = 3000
		return wl
	}
	return workload.HERD()
}

// FuzzMachineConfig runs tiny flow-control-bound machines: every plan in
// fuzzPlans, four workloads, 1–3 source nodes × 1–4 slots, a network round
// trip up to 20 µs, 10–150% of capacity, an optional slowdown or pause
// fault, and up to 2 µs of DispatchExtra on the dispatcher wires, so that
// arrivals park on receive slots, cores stall on reply credits, and route
// tokens and completion notices cross long wires together. Each run stops
// on MaxSimTime, between events, short of its completion target; a rerun
// must give an equal Result, the stopped machine must pass auditSlots and
// auditNotices, and its timeline must book the cores' busy time
// (auditBusy).
func FuzzMachineConfig(f *testing.F) {
	// plan, wl, nodes, slots, rttNs, load (% of capacity), fault, seed,
	// extraNs.
	f.Add(uint8(0), uint8(0), uint8(1), uint8(1), uint16(5000), uint8(100), uint8(0), uint64(1), uint16(0))
	f.Add(uint8(1), uint8(1), uint8(2), uint8(0), uint16(20000), uint8(140), uint8(1), uint64(2), uint16(0))
	f.Add(uint8(2), uint8(2), uint8(0), uint8(2), uint16(0), uint8(80), uint8(2), uint64(3), uint16(0))
	f.Add(uint8(3), uint8(3), uint8(2), uint8(3), uint16(12000), uint8(60), uint8(3), uint64(4), uint16(0))
	f.Add(uint8(6), uint8(1), uint8(1), uint8(1), uint16(9000), uint8(120), uint8(0), uint64(5), uint16(0))
	f.Add(uint8(0), uint8(0), uint8(2), uint8(3), uint16(2000), uint8(120), uint8(0), uint64(6), uint16(1500))
	f.Add(uint8(1), uint8(2), uint8(2), uint8(3), uint16(1000), uint8(90), uint8(2), uint64(7), uint16(700))
	f.Add(uint8(4), uint8(1), uint8(2), uint8(3), uint16(1000), uint8(130), uint8(0), uint64(8), uint16(2000))
	f.Fuzz(func(t *testing.T, plan, wl, nodes, slots uint8, rttNs uint16, load, fault uint8, seed uint64, extraNs uint16) {
		pl, err := ParsePlan(fuzzPlans[int(plan)%len(fuzzPlans)])
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Params: Defaults(), Workload: fuzzWorkload(wl), Seed: seed}
		cfg.Params.Plan = pl
		cfg.Params.Domain.Nodes = 1 + int(nodes%3)
		cfg.Params.Domain.Slots = 1 + int(slots%4)
		cfg.Params.NetRTT = sim.Duration(rttNs%20001) * sim.Nanosecond
		cfg.Params.DispatchExtra = sim.Duration(extraNs%2001) * sim.Nanosecond
		cfg.RateMRPS = float64(10+int(load)%141) / 100 * CapacityMRPS(cfg.Params, cfg.Workload)
		// No core completes a request in under 200 ns of fixed overhead,
		// so 16 cores finish at most 8,000 in the 100 µs cap.
		cfg.Warmup, cfg.Measure = 100, 20000
		cfg.MaxSimTime = 100 * sim.Microsecond
		pause := Pause{Start: 20 * sim.Microsecond, Dur: 30 * sim.Microsecond}
		switch fault % 4 {
		case 1:
			cfg.Fault = Fault{Slowdown: 2}
		case 2:
			cfg.Fault = Fault{Pauses: []Pause{pause}}
		case 3:
			cfg.Fault = Fault{Slowdown: 1.5, Pauses: []Pause{pause}}
		}
		run := func() (*Machine, Result) {
			m, err := New(cfg)
			if err != nil {
				t.Fatalf("config rejected: %v", err)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			return m, res
		}
		m, res := run()
		if !m.timedOut {
			t.Fatalf("run stopped after %d completions without reaching MaxSimTime", m.completed)
		}
		if _, again := run(); !reflect.DeepEqual(res, again) || !reflect.DeepEqual(res.Timeline(), again.Timeline()) {
			t.Fatalf("rerun differs:\n%v\n%v", res, again)
		}
		auditSlots(t, m)
		auditNotices(t, m)
		auditBusy(t, res)
	})
}

// auditBusy checks a result's timeline against its cores' busy totals: no
// epoch's utilization exceeds 1, and the epochs' busy time adds up to the
// cores' (to a float64 rounding of each epoch's share).
func auditBusy(t *testing.T, res Result) {
	t.Helper()
	tl := res.Timeline()
	cores := float64(len(res.CoreUtilization))
	epochs := 0.0
	for i, e := range tl.Epochs {
		if e.Utilization > 1 {
			t.Fatalf("epoch %d utilization %v, above 1", i, e.Utilization)
		}
		epochs += e.Utilization * tl.EpochNanos * cores
	}
	total := 0.0
	for c := range res.CoreUtilization {
		total += res.rec.BusyTotal(c).Nanos()
	}
	if math.Abs(epochs-total) > 1e-9*max(total, 1) {
		t.Fatalf("epochs book %v ns of busy time, the cores %v ns", epochs, total)
	}
}

// TestParkWakesFromMark: a source that starts waiting gets a wake event at
// each of its credits from its wake mark on, and none below the mark, whose
// credits already have theirs. In a run the credit at the mark itself never
// exists: a reply credit's seq is always followed by its completion's
// replenish, so two credits of one kind are never adjacent. The test
// places one there. A second source's two credits sit in the reverse of
// their seq order, as two backends' reply credits can: each is above the
// mark taken before the scan, so each gets its wake.
func TestParkWakesFromMark(t *testing.T) {
	m, err := New(testConfig(ModeSingleQueue, workload.HERD(), 5))
	if err != nil {
		t.Fatal(err)
	}
	const src, src2 = 3, 5
	below, mark, other, lo, hi := m.eng.Reserve(), m.eng.Reserve(), m.eng.Reserve(), m.eng.Reserve(), m.eng.Reserve()
	var list sim.Deferred[credit]
	list.Insert(100, below, credit{src: src})
	list.Insert(200, mark, credit{src: src})
	list.Insert(300, other, credit{src: src + 1})
	list.Insert(500, lo, credit{src: src2})
	list.Insert(400, hi, credit{src: src2})
	ws := make([]*waiters, m.p.Domain.Nodes)
	ws[src], ws[src2] = &waiters{woke: mark}, &waiters{woke: lo}
	for _, tc := range []struct {
		src         sonuma.NodeID
		wakes       int
		wantMark    uint64
		description string
	}{
		{src, 1, mark + 1, "the credit at the mark"},
		{src2, 2, hi + 1, "both credits above the mark"},
	} {
		w := ws[tc.src]
		m.park(&ws, tc.src, m.getRequest(), &list, m.fnWakeArrival)
		if got := m.eng.PendingWith(w); got != tc.wakes || w.woke != tc.wantMark {
			t.Fatalf("source %d: %d wake events scheduled, wake mark %d; want %d (%s) and mark %d",
				tc.src, got, w.woke, tc.wakes, tc.description, tc.wantMark)
		}
	}
}

// TestStopInsideStageCycle: a run stopped while a route token is inside its
// dispatch stage cycle has not enqueued it, whether or not the token's
// routeSubmit was folded (DESIGN.md §9). One source fills every core's
// threshold on a 1x16 node and leaves two tokens in the CQ; two more
// tokens then reach an idle stage with the CQ non-empty. Each run stops at
// one deadline of a 250 ps grid over the first 200 ns, and the deepest CQ
// seen so far is summed over the grid. The pin was produced while every
// token was a routeSubmit event.
func TestStopInsideStageCycle(t *testing.T) {
	cfg := Config{Params: Defaults(), Workload: workload.SyntheticFixed(), Seed: 1}
	cfg.Params.Domain.Nodes, cfg.Params.Domain.Slots = 1, 64
	sum := 0
	for d := sim.Time(0); d <= 200*sim.Time(sim.Nanosecond); d += 250 {
		eng := sim.New()
		m, err := NewShared(cfg, eng)
		if err != nil {
			t.Fatal(err)
		}
		injectAt(eng, m, 0, 34)
		injectAt(eng, m, 100000, 1)
		injectAt(eng, m, 120000, 1)
		eng.RunUntil(d)
		sum += m.dispatchers[0].MaxQueueDepth()
	}
	if sum != 1998 {
		t.Fatalf("deepest CQ summed over the stop grid = %d, pinned 1998", sum)
	}
}

// TestFoldedStartCountsAsBusy: a core started without a delivered event
// (DESIGN.md §9) records its busy span ahead of the clock, and is busy
// from the instant the CQE landed in the utilization and timeline a caller
// reads mid-run.
func TestFoldedStartCountsAsBusy(t *testing.T) {
	started := func() *Machine {
		eng := sim.New()
		m, err := NewShared(Config{Params: Defaults(), Workload: workload.SyntheticFixed(), Seed: 1}, eng)
		if err != nil {
			t.Fatal(err)
		}
		injectAt(eng, m, 0, 1)
		eng.RunUntil(100 * sim.Time(sim.Nanosecond)) // the CQE has landed; the handler runs on
		return m
	}
	if u := started().MeanCoreUtilization(); u == 0 {
		t.Error("utilization is 0 with a core started")
	}
	busy := 0.0
	for _, e := range started().Recorder().Timeline().Epochs {
		busy += e.Utilization
	}
	if busy == 0 {
		t.Error("timeline shows no busy time with a core started")
	}
}
