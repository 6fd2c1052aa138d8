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
//   - every occupied receive slot has exactly one owner in reqBySlot, and
//     that owner records the slot as its own;
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

	admitted := 0
	for slot, r := range m.reqBySlot {
		if r == 0 {
			continue
		}
		req := m.reqs[r-1]
		if req.slot != slot {
			t.Fatalf("reqBySlot[%d] holds ref %d, whose slot is %d", slot, req.ref, req.slot)
		}
		if !m.recvBuf.Busy(slot) {
			t.Fatalf("receive slot %d owned by ref %d but not busy", slot, req.ref)
		}
		account(req, "admitted")
		admitted++
	}
	if got := m.recvBuf.InUse(); got != admitted {
		t.Fatalf("receive buffer has %d slots in use, reqBySlot owns %d", got, admitted)
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

	for _, req := range m.pool {
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
