package fifo

import (
	"testing"
	"testing/quick"

	"rpcvalet/internal/rng"
)

func TestEmpty(t *testing.T) {
	var q Queue[int]
	if q.Len() != 0 || q.Cap() != 0 {
		t.Fatalf("zero-value Len = %d, Cap = %d", q.Len(), q.Cap())
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported ok")
	}
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty queue reported ok")
	}
}

func TestFIFOOrder(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 1000; i++ {
		q.Push(i)
	}
	if q.Len() != 1000 {
		t.Fatalf("Len = %d", q.Len())
	}
	if v, ok := q.Peek(); !ok || v != 0 {
		t.Fatalf("Peek = %d, %v", v, ok)
	}
	for i := 0; i < 1000; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop #%d = %d, %v", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("queue not drained")
	}
}

// TestRingBasics: a ring pre-sized to 3 fills to exactly 3 without growing,
// doubles on the fourth push, and still hands elements back in order.
func TestRingBasics(t *testing.T) {
	var q Queue[int]
	q.Grow(3)
	if q.Len() != 0 || q.Cap() != 3 {
		t.Fatalf("fresh ring: Len = %d, Cap = %d", q.Len(), q.Cap())
	}
	for i := 1; i <= 3; i++ {
		q.Push(i)
	}
	if q.Cap() != 3 {
		t.Fatalf("Cap = %d after filling to the bound, want 3", q.Cap())
	}
	q.Push(4)
	if q.Cap() != 6 {
		t.Fatalf("Cap = %d after overfilling, want 6", q.Cap())
	}
	if v, ok := q.Peek(); !ok || v != 1 {
		t.Fatalf("Peek = %v, %v", v, ok)
	}
	for i := 1; i <= 4; i++ {
		if v, ok := q.Pop(); !ok || v != i {
			t.Fatalf("Pop = %v, %v, want %d", v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on drained ring reported ok")
	}
}

// TestRingWrapAround: a two-slot ring cycles its head and tail through the
// slice end many times without growing.
func TestRingWrapAround(t *testing.T) {
	var q Queue[int]
	q.Grow(2)
	q.Push(-1)
	for i := 0; i < 100; i++ {
		q.Push(i)
		if v, ok := q.Pop(); !ok || v != i-1 {
			t.Fatalf("Pop = %v, %v, want %d", v, ok, i-1)
		}
	}
	if q.Cap() != 2 || q.Len() != 1 {
		t.Fatalf("Cap = %d, Len = %d, want 2 and 1", q.Cap(), q.Len())
	}
}

// TestInterleaved exercises the steady-state producer/consumer pattern the
// simulator generates: pushes and pops interleave, the queue slowly deepens,
// and the ring grows through many wrapped states without reordering.
func TestInterleaved(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	for round := 0; round < 10000; round++ {
		q.Push(next)
		next++
		if round%3 != 0 { // drain slightly slower than fill, then catch up
			v, ok := q.Pop()
			if !ok || v != want {
				t.Fatalf("round %d: Pop = %d, %v (want %d)", round, v, ok, want)
			}
			want++
		}
	}
	for q.Len() > 0 {
		v, _ := q.Pop()
		if v != want {
			t.Fatalf("drain: got %d want %d", v, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d of %d pushed", want, next)
	}
}

// TestDepthOneCapBounded: a queue that never holds more than one element
// keeps its first ring however many elements pass through it.
func TestDepthOneCapBounded(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 1<<16; i++ {
		q.Push(i)
		if v, _ := q.Pop(); v != i {
			t.Fatalf("Pop = %d, want %d", v, i)
		}
	}
	if q.Cap() > 4 || q.Len() != 0 {
		t.Fatalf("Cap = %d, Len = %d after depth-1 cycling, want Cap <= 4 and Len 0", q.Cap(), q.Len())
	}
}

// TestGrowKeepsCap: a ring pre-sized by Grow(n) holds exactly n slots for as
// long as occupancy stays at or below n, and Grow never shrinks it.
func TestGrowKeepsCap(t *testing.T) {
	const n = 32
	var q Queue[int]
	q.Grow(n)
	src := rng.New(7)
	for step := 0; step < 10000; step++ {
		if q.Len() < n && (q.Len() == 0 || src.IntN(2) == 0) {
			q.Push(step)
		} else {
			q.Pop()
		}
		if q.Cap() != n {
			t.Fatalf("step %d: Cap = %d at Len %d, want %d", step, q.Cap(), q.Len(), n)
		}
	}
	q.Grow(n / 2)
	if q.Cap() != n {
		t.Fatalf("Grow(%d) shrank the ring to %d", n/2, q.Cap())
	}
}

// TestPointerSlotsZeroed: popped slots must not retain references.
func TestPointerSlotsZeroed(t *testing.T) {
	var q Queue[*int]
	x := new(int)
	q.Push(x)
	q.Pop()
	if q.buf[0] != nil {
		t.Fatal("popped slot still holds the pointer")
	}
}

// TestPropertyRingFIFO: under random Push, Pop, Peek and Grow the queue
// behaves exactly like an unbounded slice-backed FIFO, through wrap-around
// and growth, and its ring grows only when full or when Grow asks for more.
func TestPropertyRingFIFO(t *testing.T) {
	f := func(seed uint64, presize uint8) bool {
		var q Queue[int]
		q.Grow(int(presize % 16))
		var model []int
		src := rng.New(seed)
		for step := 0; step < 500; step++ {
			capBefore := q.Cap()
			switch op := src.IntN(8); {
			case op < 4:
				v := src.IntN(1000)
				q.Push(v)
				model = append(model, v)
				want := capBefore
				if len(model) > capBefore {
					want = max(2*capBefore, minCap)
				}
				if q.Cap() != want {
					return false
				}
			case op < 7:
				v, ok := q.Pop()
				if ok != (len(model) > 0) || (ok && v != model[0]) {
					return false
				}
				if ok {
					model = model[1:]
				}
			default:
				n := src.IntN(capBefore + 16)
				q.Grow(n)
				if q.Cap() != max(capBefore, n) {
					return false
				}
			}
			v, ok := q.Peek()
			if ok != (len(model) > 0) || (ok && v != model[0]) || q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
