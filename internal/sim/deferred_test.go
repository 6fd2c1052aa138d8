package sim

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// deferredModel drives a Deferred[int] next to a reference list kept
// sorted by (At, Seq), on an engine whose clock Step and RunUntil move.
type deferredModel struct {
	e   *Engine
	d   Deferred[int]
	ref []Keyed[int]
	err error // the first mismatch found inside an event
}

// insert adds an effect delay past now under a fresh seq, so its time may
// order it before effects inserted earlier, as two backends' reply credits
// do in one list.
func (m *deferredModel) insert(delay Duration, v int) {
	at, seq := m.e.Now().Add(delay), m.e.Reserve()
	m.d.Insert(at, seq, v)
	m.ref = append(m.ref, Keyed[int]{At: at, Seq: seq, Val: v})
	slices.SortFunc(m.ref, func(x, y Keyed[int]) int {
		return cmp.Or(cmp.Compare(x.At, y.At), cmp.Compare(x.Seq, y.Seq))
	})
}

// popDue pops every due effect and checks them against the reference's
// due prefix.
func (m *deferredModel) popDue() error {
	n := 0
	for n < len(m.ref) && m.e.Due(m.ref[n].At, m.ref[n].Seq) {
		n++
	}
	return m.pops("PopDue", n, func() (Keyed[int], bool) { return m.d.PopDue(m.e) })
}

// popThrough pops every effect due by t and checks them against the
// reference's prefix through t.
func (m *deferredModel) popThrough(t Time) error {
	n := 0
	for n < len(m.ref) && m.ref[n].At <= t {
		n++
	}
	return m.pops(fmt.Sprintf("PopThrough(%v)", t), n, func() (Keyed[int], bool) { return m.d.PopThrough(t) })
}

// pops calls pop until it reports nothing and checks that it returned the
// reference's first n effects, in order.
func (m *deferredModel) pops(name string, n int, pop func() (Keyed[int], bool)) error {
	var got []Keyed[int]
	for k, ok := pop(); ok; k, ok = pop() {
		got = append(got, k)
	}
	if !slices.Equal(got, m.ref[:n]) {
		return fmt.Errorf("%s at %v popped %v, want %v", name, m.e.Now(), got, m.ref[:n])
	}
	m.ref = m.ref[n:]
	return m.check()
}

// check compares the pending effects with the reference.
func (m *deferredModel) check() error {
	if m.d.Len() != len(m.ref) {
		return fmt.Errorf("Len() = %d, want %d", m.d.Len(), len(m.ref))
	}
	for i, want := range m.ref {
		if got := m.d.At(i); got != want {
			return fmt.Errorf("At(%d) = %v, want %v", i, got, want)
		}
	}
	return nil
}

// exec decodes one program byte: the low three bits pick the op, the rest
// a small delay, so times collide often. Three of the eight ops insert;
// the others pop the due prefix, Step, RunUntil, pop through a time, or
// schedule an event that pops the due prefix when it fires.
func (m *deferredModel) exec(i int, b byte) error {
	d := Duration(b >> 3)
	switch b & 7 {
	case 0, 1, 2:
		m.insert(d&15, i)
		return m.check()
	case 3:
		return m.popDue()
	case 4:
		m.e.Step()
	case 5:
		m.e.RunUntil(m.e.Now().Add(d))
	case 6:
		return m.popThrough(m.e.Now().Add(d))
	case 7:
		m.e.Schedule(d, func() {
			if err := m.popDue(); err != nil && m.err == nil {
				m.err = err
			}
		})
	}
	return m.err
}

// FuzzDeferred decodes its bytes into a program of inserts under fresh
// Reserve seqs, at times out of insertion order, and PopDue interleaved
// with Step and RunUntil, plus PopThrough, and checks every pop and the
// pending list against a sorted reference.
func FuzzDeferred(f *testing.F) {
	f.Add(uint8(0), []byte{0x50, 0x08, 0x28, 0x03, 0x0f, 0x04, 0x03, 0x1d, 0x03})
	f.Add(uint8(2), []byte{0x40, 0x38, 0x00, 0x10, 0x26, 0x4f, 0x78, 0x0c, 0x2d, 0x0e, 0x04})
	f.Add(uint8(1), []byte{0x00, 0x00, 0x08, 0x07, 0x13, 0x05, 0x00, 0x2b, 0x0b, 0x00, 0x04, 0x04})
	f.Fuzz(func(t *testing.T, grow uint8, prog []byte) {
		m := &deferredModel{e: New()}
		m.d.Grow(int(grow % 16))
		for i, b := range prog {
			if err := m.exec(i, b); err != nil {
				t.Fatal(err)
			}
		}
		m.e.Run()
		if m.err != nil {
			t.Fatal(m.err)
		}
		if err := m.popDue(); err != nil {
			t.Fatal(err)
		}
	})
}
