package sonuma

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"rpcvalet/internal/rng"
)

func domain() DomainConfig {
	return DomainConfig{Nodes: 4, Slots: 3, MaxMsgSize: 512, MTU: 64}
}

func TestDomainValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  DomainConfig
		ok   bool
	}{
		{"table1", DomainConfig{Nodes: 200, Slots: 32, MaxMsgSize: 2048, MTU: 64}, true},
		{"small", domain(), true},
		{"noNodes", DomainConfig{Nodes: 0, Slots: 1, MaxMsgSize: 64, MTU: 64}, false},
		{"noSlots", DomainConfig{Nodes: 1, Slots: 0, MaxMsgSize: 64, MTU: 64}, false},
		{"noMsgSize", DomainConfig{Nodes: 1, Slots: 1, MaxMsgSize: 0, MTU: 64}, false},
		{"noMTU", DomainConfig{Nodes: 1, Slots: 1, MaxMsgSize: 64, MTU: 0}, false},
		// Per-pair slot numbers are held as uint16.
		{"slots16Bit", DomainConfig{Nodes: 1, Slots: 1 << 16, MaxMsgSize: 64, MTU: 64}, true},
		{"slotsOver16Bit", DomainConfig{Nodes: 1, Slots: 1<<16 + 1, MaxMsgSize: 64, MTU: 64}, false},
		// Global receive-slot indices are held as int32.
		{"totalAtInt32", DomainConfig{Nodes: math.MaxInt32, Slots: 1, MaxMsgSize: 64, MTU: 64}, true},
		{"totalNearInt32", DomainConfig{Nodes: math.MaxInt32 >> 16, Slots: 1 << 16, MaxMsgSize: 64, MTU: 64}, true},
		{"totalOverInt32", DomainConfig{Nodes: math.MaxInt32>>16 + 1, Slots: 1 << 16, MaxMsgSize: 64, MTU: 64}, false},
		{"twiceInt32", DomainConfig{Nodes: math.MaxInt32, Slots: 2, MaxMsgSize: 64, MTU: 64}, false},
		// Nodes×Slots here overflows int itself.
		{"productWraps", DomainConfig{Nodes: math.MaxInt / (1 << 15), Slots: 1 << 16, MaxMsgSize: 64, MTU: 64}, false},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
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
		s, ok := b.Acquire(dest, 128)
		if !ok {
			t.Fatalf("acquire %d failed", i)
		}
		slots = append(slots, s)
	}
	if b.InFlight(dest) != 3 {
		t.Fatalf("in flight = %d", b.InFlight(dest))
	}
	// All S slots used: flow control kicks in.
	if _, ok := b.Acquire(dest, 128); ok {
		t.Fatal("acquire beyond S slots succeeded")
	}
	// Other destinations are unaffected.
	if _, ok := b.Acquire(NodeID(1), 128); !ok {
		t.Fatal("acquire toward a different destination failed")
	}
	if err := b.Release(dest, slots[1]); err != nil {
		t.Fatal(err)
	}
	if b.InFlight(dest) != 2 {
		t.Fatalf("in flight after release = %d", b.InFlight(dest))
	}
	// The freed slot is reusable.
	if s, ok := b.Acquire(dest, 64); !ok || s != slots[1] {
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
		"destOut":  func() { b.Acquire(NodeID(99), 10) },
		"oversize": func() { b.Acquire(0, 513) },
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

// Property: the flow-control invariant — Acquire hands out the lowest free
// slot toward a destination and fails exactly when all S are in flight —
// across slot counts on both sides of the 64-bit word boundary.
func TestPropertySendBufferFlowControl(t *testing.T) {
	for _, slots := range []int{1, 32, 63, 64, 65, 130} {
		t.Run(fmt.Sprint(slots), func(t *testing.T) {
			f := func(seed uint64) bool { return sendBufferMatchesModel(t, slots, seed) }
			if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// sendBufferMatchesModel drives random Acquire/Release sequences against a
// []bool model of every destination's valid bits, reporting the first
// divergence.
func sendBufferMatchesModel(t *testing.T, slots int, seed uint64) bool {
	t.Helper()
	cfg := DomainConfig{Nodes: 3, Slots: slots, MaxMsgSize: 512, MTU: 64}
	b, err := NewSendBuffer(cfg)
	if err != nil {
		t.Error(err)
		return false
	}
	valid := make([][]bool, cfg.Nodes)
	for i := range valid {
		valid[i] = make([]bool, slots)
	}
	src := rng.New(seed)
	for step := 0; step < 40*slots+200; step++ {
		dest := NodeID(src.IntN(cfg.Nodes))
		set := valid[dest]
		// Lean toward acquiring so every set regularly fills.
		if src.IntN(5) < 3 {
			lowest := -1
			for i, v := range set {
				if !v {
					lowest = i
					break
				}
			}
			s, ok := b.Acquire(dest, src.IntN(cfg.MaxMsgSize+1))
			if ok != (lowest >= 0) || (ok && s != lowest) {
				t.Errorf("S=%d dest %d: Acquire = (%d,%v), want lowest free %d", slots, dest, s, ok, lowest)
				return false
			}
			if ok {
				set[s] = true
			}
		} else {
			s := src.IntN(slots)
			err := b.Release(dest, s)
			if (err == nil) != set[s] {
				t.Errorf("S=%d dest %d: Release(%d) = %v with valid=%v", slots, dest, s, err, set[s])
				return false
			}
			set[s] = false
		}
		for d := range valid {
			n := 0
			for s, v := range valid[d] {
				if b.Valid(NodeID(d), s) != v {
					t.Errorf("S=%d: Valid(%d,%d) = %v, want %v", slots, d, s, !v, v)
					return false
				}
				if v {
					n++
				}
			}
			if got := b.InFlight(NodeID(d)); got != n {
				t.Errorf("S=%d: InFlight(%d) = %d, want %d", slots, d, got, n)
				return false
			}
		}
	}
	return true
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

// refReceive is the dense reference model FuzzReceiveBuffer checks
// ReceiveBuffer against: one record for every one of the N×S slots, with
// the protocol logic and error messages spelled out slot by slot.
type refReceive struct {
	slots []refSlot
}

type refSlot struct {
	busy                    bool
	counter, expected, size int
	src                     NodeID
}

func (r *refReceive) onPacket(index int, src NodeID, size, totalPackets int) (bool, error) {
	if index < 0 || index >= len(r.slots) {
		return false, fmt.Errorf("sonuma: packet targets slot %d outside [0,%d)", index, len(r.slots))
	}
	if totalPackets <= 0 {
		return false, fmt.Errorf("sonuma: packet header claims %d total packets", totalPackets)
	}
	st := &r.slots[index]
	if st.busy && st.counter == st.expected {
		return false, fmt.Errorf("sonuma: packet for slot %d which holds an unconsumed message", index)
	}
	if st.counter == 0 {
		*st = refSlot{busy: true, expected: totalPackets, src: src, size: size}
	} else if st.expected != totalPackets || st.src != src || st.size != size {
		return false, fmt.Errorf("sonuma: slot %d header mismatch: have (%d pkts, src %d, %dB), got (%d, %d, %dB)",
			index, st.expected, st.src, st.size, totalPackets, src, size)
	}
	st.counter++
	return st.counter == st.expected, nil
}

func (r *refReceive) message(index int) (NodeID, int, error) {
	if index < 0 || index >= len(r.slots) {
		return 0, 0, fmt.Errorf("sonuma: Message slot %d out of range", index)
	}
	st := &r.slots[index]
	if !st.busy || st.counter != st.expected {
		return 0, 0, fmt.Errorf("sonuma: slot %d does not hold a complete message", index)
	}
	return st.src, st.size, nil
}

func (r *refReceive) free(index int) error {
	if index < 0 || index >= len(r.slots) {
		return fmt.Errorf("sonuma: Free slot %d out of range", index)
	}
	if !r.slots[index].busy {
		return fmt.Errorf("sonuma: Free of idle slot %d", index)
	}
	r.slots[index] = refSlot{}
	return nil
}

// Receive-fuzz operations: each is three bytes (op, index, header).
const (
	fzPacket  = iota // OnPacket on one slot
	fzMessage        // Message on one slot
	fzFree           // Free on one slot
	fzBusy           // Busy on one slot
	fzFill           // OnPacket on every slot, in order from the index byte
	fzDrain          // Free on every slot, in order from the index byte
	fzOps

	maxFuzzOps = 1024
)

// fuzzHeader derives a packet header for a slot. Most headers are the
// slot's consistent one (owner as source, 1–3 packets); header bytes 0–3
// instead give a non-positive packet count or disagree with the consistent
// header in source, size or packet count.
func fuzzHeader(cfg DomainConfig, index int, h byte) (NodeID, int, int) {
	pkts, src := 1, NodeID(0)
	if index >= 0 && index < cfg.TotalSlots() {
		pkts = 1 + index%3
		src, _ = cfg.SlotOwner(index)
	}
	size := pkts * cfg.MTU
	switch h % 8 {
	case 0:
		return src, size, -int(h>>3) % 2 // 0 or -1 packets
	case 1:
		return src + 1, size, pkts
	case 2:
		return src, size + 1, pkts
	case 3:
		return src, size, pkts + 1
	}
	return src, size, pkts
}

// FuzzReceiveBuffer drives random OnPacket/Message/Free/Busy sequences
// against the dense reference model: every result and every error message
// must match, and the open-addressed table must stay a power of two at load
// ½ or less. The seed corpus fills an 8×8 domain (the table doubles from 16
// to 128 entries), frees keys that share a home position (backward-shift
// deletion, with a probe run wrapping past the table's end) and hits every
// error path.
func FuzzReceiveBuffer(f *testing.F) {
	const nodes, slots = 8, 8 // the seeds' domain: dims bytes 7, 7
	op := func(o, index int, h byte) []byte { return []byte{byte(o), byte(index + 1), h} }
	seed := func(ops ...[]byte) []byte {
		b := []byte{nodes - 1, slots - 1}
		for _, o := range ops {
			b = append(b, o...)
		}
		return b
	}
	const ok = 7 // header byte for a slot's consistent header

	// Grow to N×S, drain, grow again from another starting slot.
	f.Add(seed(op(fzFill, 0, ok), op(fzFill, 0, ok), op(fzDrain, 5, 0), op(fzFill, 40, ok), op(fzDrain, 0, 0)))

	// Keys sharing a home position in the initial 16-entry table, the last
	// home among them so their probe run wraps; free them in mixed order.
	probe, _ := NewReceiveBuffer(DomainConfig{Nodes: nodes, Slots: slots, MaxMsgSize: 512, MTU: 64})
	homes := map[int][]int{}
	for i := 0; i < nodes*slots; i++ {
		h := probe.home(int32(i) + 1)
		homes[h] = append(homes[h], i)
	}
	var collide []byte
	for _, h := range []int{minRecvTable - 1, 0} {
		for _, i := range homes[h] {
			collide = append(collide, op(fzPacket, i, ok)...)
		}
	}
	for _, h := range []int{minRecvTable - 1, 0} {
		keys := homes[h]
		for _, i := range []int{1, 0, len(keys) - 1} {
			collide = append(collide, op(fzFree, keys[i], 0)...)
			collide = append(collide, op(fzMessage, keys[len(keys)/2], 0)...)
		}
	}
	f.Add(seed(collide))

	// Every error path: indices just outside the domain, non-positive
	// packet counts, header mismatches mid-assembly, a packet for an
	// unconsumed message, Message on an incomplete slot, Free of an idle one.
	f.Add(seed(
		op(fzPacket, -1, ok), op(fzPacket, nodes*slots, ok),
		op(fzMessage, -1, 0), op(fzMessage, nodes*slots, 0),
		op(fzFree, -1, 0), op(fzFree, nodes*slots, 0),
		op(fzBusy, -1, 0), op(fzBusy, nodes*slots, 0),
		op(fzPacket, 2, 0), op(fzPacket, 2, 8),
		op(fzPacket, 2, ok), op(fzPacket, 2, 1), op(fzPacket, 2, 2), op(fzPacket, 2, 3),
		op(fzMessage, 2, 0), op(fzPacket, 2, ok), op(fzPacket, 2, ok),
		op(fzMessage, 2, 0), op(fzPacket, 2, ok), op(fzFree, 2, 0), op(fzFree, 2, 0),
		op(fzPacket, 3, 3), op(fzPacket, 3, ok), op(fzMessage, 3, 0),
	))

	// Random streams over small domains.
	r := rng.New(7)
	for range 4 {
		b := make([]byte, 2+3*200)
		for i := range b {
			b[i] = byte(r.IntN(256))
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := DomainConfig{Nodes: 1 + int(data[0])%8, Slots: 1 + int(data[1])%8, MaxMsgSize: 512, MTU: 64}
		total := cfg.TotalSlots()
		b, err := NewReceiveBuffer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refReceive{slots: make([]refSlot, total)}
		sameErr := func(got, want error) bool {
			return (got == nil) == (want == nil) && (got == nil || got.Error() == want.Error())
		}
		packet := func(i int, h byte) {
			t.Helper()
			src, size, pkts := fuzzHeader(cfg, i, h)
			done, err := b.OnPacket(i, src, size, pkts)
			wantDone, wantErr := ref.onPacket(i, src, size, pkts)
			if done != wantDone || !sameErr(err, wantErr) {
				t.Fatalf("OnPacket(%d,%d,%d,%d) = (%v, %v), want (%v, %v)", i, src, size, pkts, done, err, wantDone, wantErr)
			}
		}
		free := func(i int) {
			t.Helper()
			if err, want := b.Free(i), ref.free(i); !sameErr(err, want) {
				t.Fatalf("Free(%d) = %v, want %v", i, err, want)
			}
		}
		// Long inputs add nothing short ones cannot reach; cap their cost.
		ops := data[2:min(len(data), 2+3*maxFuzzOps)]
		for ; len(ops) >= 3; ops = ops[3:] {
			index := int(ops[1])%(total+2) - 1 // one past each end included
			switch ops[0] % fzOps {
			case fzPacket:
				packet(index, ops[2])
			case fzMessage:
				src, size, err := b.Message(index)
				wantSrc, wantSize, wantErr := ref.message(index)
				if src != wantSrc || size != wantSize || !sameErr(err, wantErr) {
					t.Fatalf("Message(%d) = (%d, %d, %v), want (%d, %d, %v)", index, src, size, err, wantSrc, wantSize, wantErr)
				}
			case fzFree:
				free(index)
			case fzBusy:
				want := index >= 0 && index < total && ref.slots[index].busy
				if b.Busy(index) != want {
					t.Fatalf("Busy(%d) = %v, want %v", index, !want, want)
				}
			case fzFill:
				for k := range total {
					packet((max(index, 0)+k)%total, ops[2])
				}
			case fzDrain:
				for k := range total {
					free((max(index, 0) + k) % total)
				}
			}
			// Every slot stays reachable, and the table keeps its shape.
			busy := 0
			for i, st := range ref.slots {
				if b.Busy(i) != st.busy {
					t.Fatalf("Busy(%d) = %v, want %v", i, !st.busy, st.busy)
				}
				if st.busy {
					busy++
				}
			}
			if b.InUse() != busy {
				t.Fatalf("InUse = %d, want %d", b.InUse(), busy)
			}
			if n := len(b.table); n < minRecvTable || n&(n-1) != 0 || 2*b.n > n {
				t.Fatalf("table of %d entries holding %d", n, b.n)
			}
		}
	})
}
