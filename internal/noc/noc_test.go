package noc

import (
	"testing"
	"testing/quick"

	"rpcvalet/internal/sim"
)

func TestDefaultMatchesTable1(t *testing.T) {
	m := Default()
	if m.Width != 4 || m.Height != 4 || m.CyclesPerHop != 3 || m.LinkBytes != 16 || m.FreqGHz != 2 {
		t.Fatalf("default mesh %+v does not match Table 1", m)
	}
	if m.Tiles() != 16 {
		t.Fatalf("tiles = %d", m.Tiles())
	}
	// One hop = 3 cycles @ 2GHz = 1.5ns.
	if got := m.HopLatency(); got != sim.FromNanos(1.5) {
		t.Fatalf("hop latency = %v, want 1.5ns", got)
	}
}

func TestTileCoordRoundTrip(t *testing.T) {
	m := Default()
	for i := 0; i < m.Tiles(); i++ {
		if c := m.TileCoord(i); c.Y*m.Width+c.X != i {
			t.Fatalf("round trip %d -> %+v", i, c)
		}
	}
}

func TestTileCoordPanics(t *testing.T) {
	m := Default()
	for _, bad := range []int{-1, 16, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TileCoord(%d) did not panic", bad)
				}
			}()
			m.TileCoord(bad)
		}()
	}
}

func TestHops(t *testing.T) {
	m := Default()
	cases := []struct {
		a, b Coord
		want int
	}{
		{Coord{0, 0}, Coord{0, 0}, 0},
		{Coord{0, 0}, Coord{1, 0}, 1},
		{Coord{0, 0}, Coord{3, 3}, 6},
		{Coord{2, 1}, Coord{0, 3}, 4},
	}
	for _, c := range cases {
		if got := m.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%+v,%+v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHopsSymmetric(t *testing.T) {
	m := Default()
	f := func(a1, a2, b1, b2 uint8) bool {
		a := Coord{int(a1 % 4), int(a2 % 4)}
		b := Coord{int(b1 % 4), int(b2 % 4)}
		return m.Hops(a, b) == m.Hops(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: hop distance obeys the triangle inequality (it's a metric).
func TestHopsTriangle(t *testing.T) {
	m := Default()
	f := func(p [6]uint8) bool {
		a := Coord{int(p[0] % 4), int(p[1] % 4)}
		b := Coord{int(p[2] % 4), int(p[3] % 4)}
		c := Coord{int(p[4] % 4), int(p[5] % 4)}
		return m.Hops(a, c) <= m.Hops(a, b)+m.Hops(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatency(t *testing.T) {
	m := Default()
	a, b := Coord{0, 0}, Coord{3, 0}
	// 3 hops × 3 cycles + (64/16 - 1) serialization cycles = 12 cycles = 6ns.
	if got := m.Latency(a, b, 64); got != sim.FromNanos(6) {
		t.Fatalf("latency = %v, want 6ns", got)
	}
	// Tiny control message: serialization is a single flit.
	if got := m.Latency(a, b, 8); got != sim.FromNanos(4.5) {
		t.Fatalf("control latency = %v, want 4.5ns", got)
	}
	// Zero-byte counts as one flit.
	if got := m.Latency(a, b, 0); got != sim.FromNanos(4.5) {
		t.Fatalf("empty latency = %v, want 4.5ns", got)
	}
}

func TestLatencyMonotoneInSize(t *testing.T) {
	m := Default()
	a, b := Coord{0, 0}, Coord{2, 2}
	prev := sim.Duration(0)
	for size := 0; size <= 512; size += 16 {
		l := m.Latency(a, b, size)
		if l < prev {
			t.Fatalf("latency decreased at size %d", size)
		}
		prev = l
	}
}
