// Package machine is the full-system model of the paper's evaluation
// platform (§5): a 16-core server chip with integrated Manycore NIs running
// the RPC microbenchmark, fed by a traffic generator emulating a 200-node
// cluster. It composes the protocol substrate (internal/sonuma), the NI
// dispatch machinery (internal/ni), the interconnect and memory models
// (internal/noc, internal/mem), and the workload profiles
// (internal/workload) on top of the discrete-event engine (internal/sim).
//
// The model is first-order rather than cycle-accurate: every architectural
// interaction is an explicit latency or occupancy derived from Table 1
// (the calibrated constants in params.go), so the experiments reproduce the paper's comparative
// results — which configuration wins, by what factor, where the knees fall —
// without simulating pipelines microarchitecturally. DESIGN.md details the
// substitution and its rationale.
package machine

import (
	"fmt"

	"rpcvalet/internal/mem"
	"rpcvalet/internal/noc"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/sonuma"
)

// Mode selects one of the paper's four evaluated configurations (§6). Modes
// are now a facade: each resolves to a canned dispatch Plan (PlanForMode)
// with byte-identical results, and Params.Plan expresses everything in
// between (JBSQ(n), 2×8 groupings, per-dispatcher policies, ...).
type Mode int

const (
	// ModeSingleQueue is RPCValet proper: one NI dispatcher balancing all
	// cores from a single shared CQ (Model 1×16).
	ModeSingleQueue Mode = iota
	// ModeGrouped gives each NI backend its own dispatcher restricted to
	// the four cores of its mesh row (Model 4×4).
	ModeGrouped
	// ModePartitioned statically assigns each message to a core at
	// arrival time, RSS-style, with no rebalancing (Model 16×1) — the
	// partitioned-dataplane baseline.
	ModePartitioned
	// ModeSoftware implements the 1×16 queue in software: NIs append to a
	// single in-memory queue and cores pull from it under an MCS lock
	// (§6.2's baseline).
	ModeSoftware
)

func (m Mode) String() string {
	switch m {
	case ModeSingleQueue:
		return "rpcvalet-1x16"
	case ModeGrouped:
		return "grouped-4x4"
	case ModePartitioned:
		return "partitioned-16x1"
	case ModeSoftware:
		return "software-1x16"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// The modeled chip's calibrated costs. Interconnect and memory follow
// Table 1 exactly. The NI and core-side costs are first-order calibrations
// chosen so that the measured mean service time S̄ reproduces the paper's:
// HERD's 330 ns processing-time distribution must yield S̄ ≈ 550 ns (§6.1),
// i.e. ≈200 ns of microbenchmark overhead around the handler. The MCS costs
// are set so the software single queue serializes at ≈190 ns per dequeue,
// reproducing Fig 8's 2.3–2.7× gap. EXPERIMENTS.md records the resulting
// measurements; DESIGN.md §2 lists them.
const (
	// NI occupancies and latencies.
	packetProc    = 3 * sim.Nanosecond // backend pipeline occupancy per 64B packet
	memWrite      = 6 * sim.Nanosecond // payload write visible in memory after last packet
	dispatchCycle = 1 * sim.Nanosecond // dispatcher stage occupancy per decision
	cqeDeliver    = 2 * sim.Nanosecond // frontend writing a CQE into a core's CQ
	wqeRead       = 2 * sim.Nanosecond // frontend reading a WQE a core posted

	// Core-side per-request costs (the microbenchmark's S̄ − D component).
	pollDetect    = 20 * sim.Nanosecond  // CQ poll loop detection delay when idle
	bufRead       = 30 * sim.Nanosecond  // reading the request payload from the receive buffer
	loopOverhead  = 100 * sim.Nanosecond // event-loop bookkeeping around the handler
	sendPost      = 50 * sim.Nanosecond  // composing + posting the reply send
	replenishPost = 20 * sim.Nanosecond  // posting the replenish WQE

	// Software single-queue (MCS) cost model (§6.2).
	lockUncontended = 15 * sim.Nanosecond  // acquire when the lock is free
	lockHandoff     = 120 * sim.Nanosecond // cache-line handoff when contended
	lockCrit        = 70 * sim.Nanosecond  // critical section: dequeue from shared CQ

	// coreOverhead is the fixed per-request core occupancy added around the
	// workload's handler time.
	coreOverhead = bufRead + loopOverhead + sendPost + replenishPost
)

// CoreOverheadNanos is coreOverhead in ns: the S̄ − D component of §6.3.
const CoreOverheadNanos = float64(coreOverhead) / float64(sim.Nanosecond)

// The chip's Table 1 mesh and memory hierarchy.
var (
	mesh   = noc.Default()
	memory = mem.Default()
)

// swEnqueueWire is the software path's NI → shared in-memory queue wire:
// a CQE write plus an LLC access two mesh hops away.
var swEnqueueWire = cqeDeliver + memory.LLC(2, mesh.HopLatency())

// Params collects the values of the modeled server a caller varies; the
// chip's calibrated costs are the constants above. Zero values are invalid;
// start from Defaults and override.
type Params struct {
	Cores    int // serving cores (16 in the paper)
	Backends int // NI backends on the mesh edge (4)

	Domain sonuma.DomainConfig // messaging domain: cluster size, slots, MTU

	// Mode names a canned dispatch architecture; Plan, when non-nil, takes
	// precedence and describes the architecture declaratively (grouping ×
	// policy × outstanding threshold × queue placement). See Plan.
	Mode      Mode
	Plan      *Plan
	Threshold int // outstanding requests per core (§4.3; paper default 2)

	// RSSByFlow makes ModePartitioned key its static hash on the source
	// node (true flow affinity, like real RSS). When false, each message
	// is assigned uniformly at random, matching the paper's 16×1 queueing
	// model. The ablation benches compare both.
	RSSByFlow bool

	// DispatchExtra injects additional latency on every backend→dispatcher
	// and core→dispatcher control message. The paper argues the dispatcher
	// indirection costs "just a few ns" and is negligible (§4.3); the
	// ablation bench sweeps this knob to test that claim.
	DispatchExtra sim.Duration

	// Cluster network.
	NetRTT sim.Duration // round trip to a remote node (credit return time)
}

// Defaults returns the paper's 16-core server: four NI backends, a
// 200-node messaging domain, RPCValet 1×16 at threshold 2 and a 1 µs
// network round trip.
func Defaults() Params {
	return Params{
		Cores:     16,
		Backends:  4,
		Domain:    sonuma.DomainConfig{Nodes: 200, Slots: 32, MaxMsgSize: 2048, MTU: 64},
		Mode:      ModeSingleQueue,
		Threshold: 2,
		NetRTT:    sim.FromNanos(1000),
	}
}

// Validate reports whether the parameter set is internally consistent.
func (p Params) Validate() error {
	switch {
	case p.Cores <= 0:
		return fmt.Errorf("machine: need at least one core")
	case p.Backends <= 0:
		return fmt.Errorf("machine: need at least one backend")
	case p.Cores%p.Backends != 0:
		return fmt.Errorf("machine: cores (%d) must divide evenly among backends (%d)", p.Cores, p.Backends)
	case mesh.Tiles() < p.Cores:
		return fmt.Errorf("machine: mesh has %d tiles for %d cores", mesh.Tiles(), p.Cores)
	case p.Threshold < 1:
		return fmt.Errorf("machine: outstanding threshold %d must be >= 1", p.Threshold)
	case p.Mode < ModeSingleQueue || p.Mode > ModeSoftware:
		return fmt.Errorf("machine: unknown mode %d", p.Mode)
	}
	if err := p.Domain.Validate(); err != nil {
		return err
	}
	if memory.BlockBytes != p.Domain.MTU {
		return fmt.Errorf("machine: cache block (%dB) and MTU (%dB) must agree in soNUMA",
			memory.BlockBytes, p.Domain.MTU)
	}
	if p.Plan != nil {
		return p.Plan.validate(p)
	}
	return nil
}
