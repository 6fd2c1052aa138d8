package sonuma

import (
	"fmt"
	"math/bits"
)

// SendBuffer is a node's send-side bookkeeping (§4.2 "Buffer provisioning"):
// N sets of S slots, one set per destination node, kept as a valid bit per
// slot. A slot's bit is set when a core initiates a send and cleared when
// the destination's replenish arrives.
type SendBuffer struct {
	cfg   DomainConfig
	words int      // valid-bit words per destination: ceil(S/64)
	last  uint64   // mask of the slots that exist in a destination's last word
	valid []uint64 // [dest*words + s/64], bit s%64: slot s toward dest in flight
}

// NewSendBuffer allocates the send-side valid bits for a domain.
func NewSendBuffer(cfg DomainConfig) (*SendBuffer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	words := (cfg.Slots + 63) / 64
	return &SendBuffer{
		cfg:   cfg,
		words: words,
		last:  ^uint64(0) >> (64*words - cfg.Slots),
		valid: make([]uint64, cfg.Nodes*words),
	}, nil
}

// set returns dest's valid-bit words.
func (b *SendBuffer) set(dest NodeID) []uint64 {
	base := int(dest) * b.words
	return b.valid[base : base+b.words]
}

// Acquire claims the lowest free slot toward dest for a message of the given
// size. It reports false when all S slots toward dest are in flight — the
// end-to-end flow-control condition that back-pressures senders.
func (b *SendBuffer) Acquire(dest NodeID, size int) (int, bool) {
	if int(dest) < 0 || int(dest) >= b.cfg.Nodes {
		panic(fmt.Sprintf("sonuma: Acquire dest %d outside domain", dest))
	}
	if size > b.cfg.MaxMsgSize {
		panic(fmt.Sprintf("sonuma: Acquire size %d exceeds max inline %d; use rendezvous", size, b.cfg.MaxMsgSize))
	}
	set := b.set(dest)
	for w, word := range set {
		free := ^word
		if w == len(set)-1 {
			free &= b.last
		}
		if free != 0 {
			bit := bits.TrailingZeros64(free)
			set[w] = word | 1<<bit
			return w*64 + bit, true
		}
	}
	return 0, false
}

// Release frees a slot toward dest — the effect of an arriving replenish,
// which in the protocol is a remote write resetting the slot's valid bit.
// Releasing a slot that is not in flight is a protocol violation and
// returns an error.
func (b *SendBuffer) Release(dest NodeID, slot int) error {
	if int(dest) < 0 || int(dest) >= b.cfg.Nodes {
		return fmt.Errorf("sonuma: Release dest %d outside domain", dest)
	}
	if slot < 0 || slot >= b.cfg.Slots {
		return fmt.Errorf("sonuma: Release slot %d outside [0,%d)", slot, b.cfg.Slots)
	}
	word, bit := &b.set(dest)[slot/64], uint64(1)<<(slot%64)
	if *word&bit == 0 {
		return fmt.Errorf("sonuma: Release of already-free slot %d toward node %d", slot, dest)
	}
	*word &^= bit
	return nil
}

// Valid reports whether slot toward dest is in flight.
func (b *SendBuffer) Valid(dest NodeID, slot int) bool {
	return b.set(dest)[slot/64]&(1<<(slot%64)) != 0
}

// InFlight reports the number of outstanding sends toward dest.
func (b *SendBuffer) InFlight(dest NodeID) int {
	n := 0
	for _, word := range b.set(dest) {
		n += bits.OnesCount64(word)
	}
	return n
}

// recvState tracks assembly of one in-flight inbound message: the slot's
// counter field plus the header fields every packet must agree on.
type recvState struct {
	key      int32  // global receive-slot index + 1; 0 marks an empty entry
	counter  int    // packets received so far (the slot's counter field)
	expected int    // total packets, from the packet headers
	src      NodeID // sending node
	size     int    // message payload size
}

// minRecvTable is the receive table's initial size; it doubles whenever an
// insert would take it past load ½.
const minRecvTable = 16

// ReceiveBuffer is a node's receive-side state for its N×S slots: the
// counter field the NI uses to detect that all packets of a send have
// arrived (§4.2 "Send operation"), with state for occupied slots only. A
// slot is occupied from its first packet until Free, so memory follows the
// peak number of messages in flight rather than N×S.
//
// The occupied slots live in an open-addressed table keyed by slot index:
// linear probing over a power-of-two size, with backward-shift deletion so
// no tombstones accumulate. It is not a Go map: the table is one flat slice
// with an explicit growth rule, and at load ½ or less a probe usually
// touches a single entry.
type ReceiveBuffer struct {
	total int         // N×S: valid indices are [0,total)
	table []recvState // len is a power of two
	shift uint        // 32 - log2(len(table)): the hash keeps the top bits
	n     int         // occupied entries
}

// NewReceiveBuffer allocates receive-side state for a domain.
func NewReceiveBuffer(cfg DomainConfig) (*ReceiveBuffer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ReceiveBuffer{
		total: cfg.TotalSlots(),
		table: make([]recvState, minRecvTable),
		shift: 32 - uint(bits.TrailingZeros(minRecvTable)),
	}, nil
}

// home is a key's preferred table position (Fibonacci hashing: slot indices
// arrive in strided runs, which the multiply spreads over the table).
func (b *ReceiveBuffer) home(key int32) int {
	return int(uint32(key) * 0x9e3779b9 >> b.shift)
}

// find returns the table position holding index, or -1 when the slot is
// not occupied. index must be within [0,total).
func (b *ReceiveBuffer) find(index int) int {
	key := int32(index) + 1
	mask := len(b.table) - 1
	for i := b.home(key); ; i = (i + 1) & mask {
		switch b.table[i].key {
		case key:
			return i
		case 0:
			return -1
		}
	}
}

// insert stores st, whose key is not in the table, doubling the table
// first if the insert would take it past load ½.
func (b *ReceiveBuffer) insert(st recvState) {
	if 2*(b.n+1) > len(b.table) {
		old := b.table
		b.table = make([]recvState, 2*len(old))
		b.shift--
		for _, e := range old {
			if e.key != 0 {
				b.place(e)
			}
		}
	}
	b.place(st)
	b.n++
}

// place puts st at the first empty position of its probe sequence.
func (b *ReceiveBuffer) place(st recvState) {
	mask := len(b.table) - 1
	i := b.home(st.key)
	for b.table[i].key != 0 {
		i = (i + 1) & mask
	}
	b.table[i] = st
}

// remove empties position i, shifting later entries of the probe run back
// into the hole so every remaining key stays reachable from its home.
func (b *ReceiveBuffer) remove(i int) {
	mask := len(b.table) - 1
	for j := (i + 1) & mask; b.table[j].key != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i if i lies on its probe
		// path, i.e. it sits at least as far from its home as from i.
		if (j-b.home(b.table[j].key))&mask >= (j-i)&mask {
			b.table[i] = b.table[j]
			i = j
		}
	}
	b.table[i] = recvState{}
	b.n--
}

// OnPacket records the arrival of one packet of a send targeting the given
// global receive-slot index. totalPackets is carried in every packet header
// (the paper's network-layer extension). It returns complete=true when the
// fetch-and-increment brings the counter up to the message's packet count.
//
// Protocol violations — a packet for a slot still occupied by a fully
// received, unprocessed message, or headers disagreeing about the message —
// are returned as errors so the caller can surface corrupted traffic
// instead of silently miscounting.
func (b *ReceiveBuffer) OnPacket(index int, src NodeID, size, totalPackets int) (complete bool, err error) {
	if index < 0 || index >= b.total {
		return false, fmt.Errorf("sonuma: packet targets slot %d outside [0,%d)", index, b.total)
	}
	if totalPackets <= 0 {
		return false, fmt.Errorf("sonuma: packet header claims %d total packets", totalPackets)
	}
	i := b.find(index)
	if i < 0 {
		// First packet of a new message claims the slot.
		b.insert(recvState{key: int32(index) + 1, counter: 1, expected: totalPackets, src: src, size: size})
		return totalPackets == 1, nil
	}
	st := &b.table[i]
	if st.counter == st.expected {
		return false, fmt.Errorf("sonuma: packet for slot %d which holds an unconsumed message", index)
	}
	if st.expected != totalPackets || st.src != src || st.size != size {
		return false, fmt.Errorf("sonuma: slot %d header mismatch: have (%d pkts, src %d, %dB), got (%d, %d, %dB)",
			index, st.expected, st.src, st.size, totalPackets, src, size)
	}
	st.counter++ // the NI pipeline's fetch-and-increment
	return st.counter == st.expected, nil
}

// Message returns the (src, size) recorded for a fully assembled message.
// It errors if the slot does not hold a complete message.
func (b *ReceiveBuffer) Message(index int) (NodeID, int, error) {
	if index < 0 || index >= b.total {
		return 0, 0, fmt.Errorf("sonuma: Message slot %d out of range", index)
	}
	i := b.find(index)
	if i < 0 || b.table[i].counter != b.table[i].expected {
		return 0, 0, fmt.Errorf("sonuma: slot %d does not hold a complete message", index)
	}
	return b.table[i].src, b.table[i].size, nil
}

// Free releases a receive slot after the serving core has processed the
// message and issued its replenish, resetting the counter for reuse.
func (b *ReceiveBuffer) Free(index int) error {
	if index < 0 || index >= b.total {
		return fmt.Errorf("sonuma: Free slot %d out of range", index)
	}
	i := b.find(index)
	if i < 0 {
		return fmt.Errorf("sonuma: Free of idle slot %d", index)
	}
	b.remove(i)
	return nil
}

// Busy reports whether a slot currently holds an in-flight or unconsumed
// message. Indices outside the domain are never busy.
func (b *ReceiveBuffer) Busy(index int) bool {
	return index >= 0 && index < b.total && b.find(index) >= 0
}

// InUse counts slots currently busy, for occupancy accounting in tests.
func (b *ReceiveBuffer) InUse() int { return b.n }
