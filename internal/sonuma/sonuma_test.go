package sonuma

import (
	"testing"
	"testing/quick"

	"rpcvalet/internal/rng"
)

func domain() DomainConfig {
	return DomainConfig{Nodes: 4, Slots: 3, MaxMsgSize: 512, MTU: 64}
}

func TestDomainValidate(t *testing.T) {
	good := domain()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid domain rejected: %v", err)
	}
	bad := []DomainConfig{
		{Nodes: 0, Slots: 1, MaxMsgSize: 64, MTU: 64},
		{Nodes: 1, Slots: 0, MaxMsgSize: 64, MTU: 64},
		{Nodes: 1, Slots: 1, MaxMsgSize: 0, MTU: 64},
		{Nodes: 1, Slots: 1, MaxMsgSize: 64, MTU: 0},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestPackets(t *testing.T) {
	c := domain()
	cases := []struct{ size, want int }{
		{0, 1}, {1, 1}, {64, 1}, {65, 2}, {512, 8}, {500, 8}, {513, 9},
	}
	for _, tc := range cases {
		if got := c.Packets(tc.size); got != tc.want {
			t.Errorf("Packets(%d) = %d, want %d", tc.size, got, tc.want)
		}
	}
}

func TestClassify(t *testing.T) {
	c := domain()
	if c.Classify(512) != DeliveryInline {
		t.Fatal("512B should be inline")
	}
	if c.Classify(513) != DeliveryRendezvous {
		t.Fatal("513B should be rendezvous")
	}
	if DeliveryInline.String() != "inline" || DeliveryRendezvous.String() != "rendezvous" {
		t.Fatal("delivery strings wrong")
	}
	if got := c.RendezvousReadPackets(1024); got != 16 {
		t.Fatalf("rendezvous read packets = %d, want 16", got)
	}
}

// TestFootprintFormula checks the paper's formula with its own example
// parameters: a rack-scale domain should land in the tens of MBs.
func TestFootprintFormula(t *testing.T) {
	c := DomainConfig{Nodes: 200, Slots: 32, MaxMsgSize: 1024, MTU: 64}
	want := 32*200*32 + (1024+64)*200*32
	if got := c.FootprintBytes(); got != want {
		t.Fatalf("footprint = %d, want %d", got, want)
	}
	if mb := float64(want) / (1 << 20); mb > 64 {
		t.Fatalf("footprint %v MB exceeds the paper's 'few tens of MBs' envelope", mb)
	}
}

func TestSlotIndexBijection(t *testing.T) {
	c := domain()
	seen := map[int]bool{}
	for src := 0; src < c.Nodes; src++ {
		for slot := 0; slot < c.Slots; slot++ {
			idx := c.RecvSlotIndex(NodeID(src), slot)
			if seen[idx] {
				t.Fatalf("duplicate slot index %d", idx)
			}
			seen[idx] = true
			gotSrc, gotSlot := c.SlotOwner(idx)
			if gotSrc != NodeID(src) || gotSlot != slot {
				t.Fatalf("SlotOwner(%d) = (%d,%d), want (%d,%d)", idx, gotSrc, gotSlot, src, slot)
			}
		}
	}
	if len(seen) != c.TotalSlots() {
		t.Fatalf("indices cover %d slots, want %d", len(seen), c.TotalSlots())
	}
}

func TestSlotIndexPanics(t *testing.T) {
	c := domain()
	for name, fn := range map[string]func(){
		"srcHigh":  func() { c.RecvSlotIndex(NodeID(c.Nodes), 0) },
		"srcNeg":   func() { c.RecvSlotIndex(-1, 0) },
		"slotHigh": func() { c.RecvSlotIndex(0, c.Slots) },
		"ownerOut": func() { c.SlotOwner(c.TotalSlots()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSendBufferAcquireRelease(t *testing.T) {
	b, err := NewSendBuffer(domain())
	if err != nil {
		t.Fatal(err)
	}
	dest := NodeID(2)
	var slots []int
	for i := 0; i < 3; i++ {
		s, ok := b.Acquire(dest, uint64(i), 128)
		if !ok {
			t.Fatalf("acquire %d failed", i)
		}
		slots = append(slots, s)
	}
	if b.InFlight(dest) != 3 {
		t.Fatalf("in flight = %d", b.InFlight(dest))
	}
	// All S slots used: flow control kicks in.
	if _, ok := b.Acquire(dest, 9, 128); ok {
		t.Fatal("acquire beyond S slots succeeded")
	}
	// Other destinations are unaffected.
	if _, ok := b.Acquire(NodeID(1), 9, 128); !ok {
		t.Fatal("acquire toward a different destination failed")
	}
	if err := b.Release(dest, slots[1]); err != nil {
		t.Fatal(err)
	}
	if b.InFlight(dest) != 2 {
		t.Fatalf("in flight after release = %d", b.InFlight(dest))
	}
	// The freed slot is reusable.
	if s, ok := b.Acquire(dest, 10, 64); !ok || s != slots[1] {
		t.Fatalf("reacquire = (%d,%v), want slot %d", s, ok, slots[1])
	}
}

func TestSendBufferReleaseErrors(t *testing.T) {
	b, _ := NewSendBuffer(domain())
	if err := b.Release(0, 0); err == nil {
		t.Fatal("release of free slot should error")
	}
	if err := b.Release(-1, 0); err == nil {
		t.Fatal("release with bad dest should error")
	}
	if err := b.Release(0, 99); err == nil {
		t.Fatal("release with bad slot should error")
	}
}

func TestSendBufferPanics(t *testing.T) {
	b, _ := NewSendBuffer(domain())
	for name, fn := range map[string]func(){
		"destOut":  func() { b.Acquire(NodeID(99), 0, 10) },
		"oversize": func() { b.Acquire(0, 0, 513) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSendBufferRejectsBadConfig(t *testing.T) {
	if _, err := NewSendBuffer(DomainConfig{}); err == nil {
		t.Fatal("bad config accepted")
	}
	if _, err := NewReceiveBuffer(DomainConfig{}); err == nil {
		t.Fatal("bad config accepted")
	}
}

// Property: the flow-control invariant — in-flight sends toward any
// destination never exceed S, and acquire fails exactly when the set is full.
func TestPropertySendBufferFlowControl(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := domain()
		b, err := NewSendBuffer(cfg)
		if err != nil {
			return false
		}
		src := rng.New(seed)
		held := make([][]int, cfg.Nodes)
		for step := 0; step < 2000; step++ {
			dest := NodeID(src.IntN(cfg.Nodes))
			if src.IntN(2) == 0 {
				s, ok := b.Acquire(dest, 0, src.IntN(cfg.MaxMsgSize+1))
				if ok != (len(held[dest]) < cfg.Slots) {
					return false
				}
				if ok {
					held[dest] = append(held[dest], s)
				}
			} else if n := len(held[dest]); n > 0 {
				i := src.IntN(n)
				if err := b.Release(dest, held[dest][i]); err != nil {
					return false
				}
				held[dest] = append(held[dest][:i], held[dest][i+1:]...)
			}
			if b.InFlight(dest) != len(held[dest]) || b.InFlight(dest) > cfg.Slots {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReceiveSinglePacketMessage(t *testing.T) {
	b, err := NewReceiveBuffer(domain())
	if err != nil {
		t.Fatal(err)
	}
	done, err := b.OnPacket(5, 1, 64, 1)
	if err != nil || !done {
		t.Fatalf("single-packet message: done=%v err=%v", done, err)
	}
	src, size, err := b.Message(5)
	if err != nil || src != 1 || size != 64 {
		t.Fatalf("Message = (%d,%d,%v)", src, size, err)
	}
	if err := b.Free(5); err != nil {
		t.Fatal(err)
	}
	if b.Busy(5) {
		t.Fatal("slot busy after free")
	}
}

func TestReceiveMultiPacketAssembly(t *testing.T) {
	b, _ := NewReceiveBuffer(domain())
	const idx, packets = 2, 8
	for i := 0; i < packets; i++ {
		done, err := b.OnPacket(idx, 3, 512, packets)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if done != (i == packets-1) {
			t.Fatalf("packet %d: done=%v", i, done)
		}
	}
	if _, _, err := b.Message(idx); err != nil {
		t.Fatal(err)
	}
}

func TestReceiveInterleavedSlots(t *testing.T) {
	// Packets for different slots interleave freely: two 2-packet
	// messages assemble simultaneously into slots 0 and 1.
	b, _ := NewReceiveBuffer(domain())
	steps := []struct {
		slot     int
		wantDone bool
	}{
		{0, false}, {1, false}, {0, true}, {1, true},
	}
	for i, s := range steps {
		done, err := b.OnPacket(s.slot, 0, 128, 2)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if done != s.wantDone {
			t.Fatalf("step %d: done=%v, want %v", i, done, s.wantDone)
		}
	}
	if b.InUse() != 2 {
		t.Fatalf("in use = %d, want 2", b.InUse())
	}
}

func TestReceiveErrors(t *testing.T) {
	b, _ := NewReceiveBuffer(domain())
	if _, err := b.OnPacket(-1, 0, 64, 1); err == nil {
		t.Fatal("negative slot accepted")
	}
	if _, err := b.OnPacket(999, 0, 64, 1); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	if _, err := b.OnPacket(0, 0, 64, 0); err == nil {
		t.Fatal("zero total packets accepted")
	}
	// Header mismatch mid-assembly.
	if _, err := b.OnPacket(3, 0, 128, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.OnPacket(3, 0, 128, 3); err == nil {
		t.Fatal("total-packet mismatch accepted")
	}
	if _, err := b.OnPacket(3, 1, 128, 2); err == nil {
		t.Fatal("source mismatch accepted")
	}
	// Complete the message, then poke it again.
	if done, err := b.OnPacket(3, 0, 128, 2); err != nil || !done {
		t.Fatalf("completion failed: %v %v", done, err)
	}
	if _, err := b.OnPacket(3, 0, 128, 2); err == nil {
		t.Fatal("packet for unconsumed message accepted")
	}
	// Message/Free error paths.
	if _, _, err := b.Message(0); err == nil {
		t.Fatal("Message on incomplete slot accepted")
	}
	if _, _, err := b.Message(-1); err == nil {
		t.Fatal("Message out of range accepted")
	}
	if err := b.Free(99); err == nil {
		t.Fatal("Free out of range accepted")
	}
	if err := b.Free(7); err == nil {
		t.Fatal("Free of idle slot accepted")
	}
}

// Property: random interleavings of packets from many messages assemble each
// message exactly once, with completion on exactly the last packet.
func TestPropertyAssemblyUnderInterleaving(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := domain()
		b, err := NewReceiveBuffer(cfg)
		if err != nil {
			return false
		}
		src := rng.New(seed)
		type msg struct {
			idx, total, sent int
			src              NodeID
			done             bool
		}
		// One message per slot, random sizes.
		var msgs []*msg
		for i := 0; i < cfg.TotalSlots(); i++ {
			owner, _ := cfg.SlotOwner(i)
			size := 1 + src.IntN(cfg.MaxMsgSize)
			msgs = append(msgs, &msg{idx: i, total: cfg.Packets(size), src: owner})
		}
		// Deliver all packets in random global order.
		var order []*msg
		for _, m := range msgs {
			for p := 0; p < m.total; p++ {
				order = append(order, m)
			}
		}
		for i := len(order) - 1; i > 0; i-- {
			j := src.IntN(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for _, m := range order {
			done, err := b.OnPacket(m.idx, m.src, m.total*cfg.MTU, m.total)
			if err != nil {
				return false
			}
			m.sent++
			if done != (m.sent == m.total) || (done && m.done) {
				return false
			}
			if done {
				m.done = true
			}
		}
		for _, m := range msgs {
			if !m.done {
				return false
			}
		}
		return b.InUse() == cfg.TotalSlots()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
