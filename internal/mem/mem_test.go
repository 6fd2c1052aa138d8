package mem

import (
	"testing"

	"rpcvalet/internal/sim"
)

func TestDefaultMatchesTable1(t *testing.T) {
	h := Default()
	if h.L1Cycles != 3 || h.LLCCycles != 6 || h.DRAMNanos != 50 || h.BlockBytes != 64 || h.FreqGHz != 2 {
		t.Fatalf("default hierarchy %+v does not match Table 1", h)
	}
}

func TestLatencies(t *testing.T) {
	h := Default()
	// LLC local bank: 6 cycles = 3ns.
	if got := h.LLC(0, sim.FromNanos(1.5)); got != sim.FromNanos(3) {
		t.Fatalf("LLC local = %v, want 3ns", got)
	}
	// LLC 2 hops away: 3ns + 2×1.5ns = 6ns.
	if got := h.LLC(2, sim.FromNanos(1.5)); got != sim.FromNanos(6) {
		t.Fatalf("LLC remote = %v, want 6ns", got)
	}
}
