// Package mem is the first-order memory-hierarchy cost model for the
// simulated server, parameterised after Table 1 of the paper: 3-cycle L1,
// 6-cycle NUCA LLC (plus mesh distance to the bank), 50 ns DRAM, 64-byte
// blocks at 2 GHz.
//
// The RPCValet design leans on the NI's "fast access to its local memory
// hierarchy": receive buffers and queue-pair entries live in LLC/DRAM and the
// NI reads/writes them coherently. This package supplies those access costs
// to the NI and core models.
package mem

import "rpcvalet/internal/sim"

// Hierarchy describes the chip's memory system costs.
type Hierarchy struct {
	FreqGHz    float64
	L1Cycles   int     // L1 hit latency (tag+data)
	LLCCycles  int     // LLC bank access, excluding NUCA routing
	DRAMNanos  float64 // DRAM access latency
	BlockBytes int     // cache block (and network MTU) size
}

// Default returns Table 1's memory parameters.
func Default() Hierarchy {
	return Hierarchy{FreqGHz: 2, L1Cycles: 3, LLCCycles: 6, DRAMNanos: 50, BlockBytes: 64}
}

func (h Hierarchy) cycles(n int) sim.Duration {
	return sim.FromNanos(float64(n) / h.FreqGHz)
}

// LLC returns the latency of an LLC access whose bank is bankHops mesh hops
// away, each hop costing hopLatency (taken from the NOC model so the two
// stay consistent).
func (h Hierarchy) LLC(bankHops int, hopLatency sim.Duration) sim.Duration {
	return h.cycles(h.LLCCycles) + sim.Duration(bankHops)*hopLatency
}
