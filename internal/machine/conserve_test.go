package machine

import (
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
//     its admitted requests and of its completed requests whose replenish
//     is still in flight holds each of 0..S-1 exactly once;
//   - every reply credit in flight is held by exactly one request;
//   - every request ever allocated is exactly one of admitted, parked,
//     holding a credit, or pooled, and inflightCount counts the first two.
func TestSlotOwnershipConservation(t *testing.T) {
	for _, mode := range []Mode{ModeSingleQueue, ModePartitioned, ModeSoftware} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := testConfig(mode, workload.SyntheticFixed(), 0.2)
			cfg.Params.Domain.Nodes = 2
			cfg.Params.Domain.Slots = 2
			cfg.Params.NetRTT = sim.FromMicros(20)
			cfg.Warmup, cfg.Measure = 200, 20000
			cfg.MaxSimTime = sim.FromMicros(5000)
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
		})
	}
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
	admitted := 0
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
		if !m.recvBuf.Busy(req.slot) {
			t.Fatalf("receive slot %d held by ref %d but not busy", req.slot, req.ref)
		}
		pairs[req.src][req.pairSlot]++
		account(req, "admitted")
		admitted++
	}
	if got := m.recvBuf.InUse(); got != admitted {
		t.Fatalf("receive buffer has %d slots in use, admitted requests hold %d", got, admitted)
	}

	parked := 0
	for _, q := range m.pendingBySrc {
		for q != nil && q.Len() > 0 {
			req, _ := q.Pop()
			account(req, "parked")
			parked++
		}
	}
	if m.inflightCount != admitted+parked {
		t.Fatalf("inflightCount %d, want %d admitted + %d parked", m.inflightCount, admitted, parked)
	}

	// A completed request holds its reply credit until replyCredit fires.
	// Its replenish (NetRTT/2 after completion) always fires first, so the
	// requests still holding a trailing-event reference are exactly those
	// holding a credit.
	type credit struct {
		dest sonuma.NodeID
		slot int
	}
	held := map[credit]bool{}
	for _, req := range m.reqs {
		if req.refs == 0 {
			continue
		}
		if req.refs == 2 {
			// Completed, its replenish not yet fired: the pair slot is
			// on its way back to the source's ring.
			pairs[req.src][req.pairSlot]++
		}
		c := credit{req.src, req.replySlot}
		if held[c] || !m.replyBuf.Valid(c.dest, c.slot) {
			t.Fatalf("ref %d claims reply slot %d toward node %d: duplicate or not in flight", req.ref, c.slot, c.dest)
		}
		held[c] = true
		account(req, "holding a reply credit")
	}
	inFlight := 0
	for d := range m.p.Domain.Nodes {
		inFlight += m.replyBuf.InFlight(sonuma.NodeID(d))
	}
	if inFlight != len(held) {
		t.Fatalf("%d reply credits in flight, %d requests hold one", inFlight, len(held))
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
	t.Logf("%d requests allocated: %d admitted, %d parked, %d holding a reply credit, %d pooled",
		len(m.reqs), admitted, parked, len(held), len(m.pool))
}
