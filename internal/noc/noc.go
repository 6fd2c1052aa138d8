// Package noc models the on-chip interconnect of the simulated manycore
// server: a 2D mesh with dimension-ordered routing, per Table 1 of the paper
// (16 B links, 3 cycles/hop, 2 GHz).
//
// The model is first-order: latency is hop count × per-hop delay plus link
// serialization for the payload. This is the cost RPCValet's paper argues is
// negligible for the NI-backend→NI-dispatcher indirection ("a couple of
// on-chip interconnect hops, adding just a few ns"); the ablation bench
// measures exactly that sensitivity.
package noc

import (
	"fmt"

	"rpcvalet/internal/sim"
)

// Coord is a tile position on the mesh.
type Coord struct{ X, Y int }

// Mesh describes a W×H tiled mesh interconnect.
type Mesh struct {
	Width, Height int
	CyclesPerHop  int     // router + link traversal per hop
	LinkBytes     int     // link width; one flit per cycle
	FreqGHz       float64 // clock frequency
}

// Default returns the paper's Table 1 mesh: 4×4 tiles, 16-byte links,
// 3 cycles/hop at 2 GHz.
func Default() Mesh {
	return Mesh{Width: 4, Height: 4, CyclesPerHop: 3, LinkBytes: 16, FreqGHz: 2}
}

// Tiles returns the number of tiles in the mesh.
func (m Mesh) Tiles() int { return m.Width * m.Height }

// TileCoord maps a tile index (row-major) to its coordinate. It panics on an
// out-of-range index: tile identity errors are wiring bugs, not run-time
// conditions.
func (m Mesh) TileCoord(tile int) Coord {
	if tile < 0 || tile >= m.Tiles() {
		panic(fmt.Sprintf("noc: tile %d out of range [0,%d)", tile, m.Tiles()))
	}
	return Coord{X: tile % m.Width, Y: tile / m.Width}
}

// Hops returns the dimension-ordered (XY) routing distance between tiles.
func (m Mesh) Hops(a, b Coord) int {
	dx := a.X - b.X
	if dx < 0 {
		dx = -dx
	}
	dy := a.Y - b.Y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// cycle returns the duration of n cycles at the mesh clock.
func (m Mesh) cycles(n int) sim.Duration {
	return sim.FromNanos(float64(n) / m.FreqGHz)
}

// HopLatency returns the latency of a single hop.
func (m Mesh) HopLatency() sim.Duration { return m.cycles(m.CyclesPerHop) }

// Latency returns the delivery latency for a payload of the given size
// between two tiles: routing (hops × cycles/hop) plus serialization
// (one flit per cycle beyond the first, which overlaps with routing).
func (m Mesh) Latency(a, b Coord, payloadBytes int) sim.Duration {
	hops := m.Hops(a, b)
	flits := (payloadBytes + m.LinkBytes - 1) / m.LinkBytes
	if flits < 1 {
		flits = 1
	}
	return m.cycles(hops*m.CyclesPerHop + (flits - 1))
}
