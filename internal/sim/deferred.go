package sim

// Keyed is one deferred effect under the key (At, Seq) its event would have
// had: Seq came from Engine.Reserve.
type Keyed[T any] struct {
	At  Time
	Seq uint64
	Val T
}

// Deferred is a list of deferred effects in (at, seq) key order (DESIGN.md
// §9): effects that are not events, applied once their keys have passed
// (PopDue) or made events while someone waits on them (PopThrough). It is
// not a heap: an effect is inserted by a scan from the back, which is
// short, since a new key orders after every effect due no later than it.
// The zero value is an empty list; Grow presizes it.
type Deferred[T any] struct {
	items []Keyed[T]
	head  int // items[:head] have been popped
}

// Grow presizes the list to hold n effects without reallocating.
func (d *Deferred[T]) Grow(n int) {
	if n > cap(d.items) {
		items := make([]Keyed[T], len(d.items), n)
		copy(items, d.items)
		d.items = items
	}
}

// Len reports how many effects are pending.
func (d *Deferred[T]) Len() int { return len(d.items) - d.head }

// At returns the i-th pending effect in key order, for audits.
func (d *Deferred[T]) At(i int) Keyed[T] { return d.items[d.head+i] }

// Insert adds v under (at, seq). seq must be newer than every pending
// effect's, so v goes after every effect due no later than at.
func (d *Deferred[T]) Insert(at Time, seq uint64, v T) {
	if d.head > 0 && len(d.items) == cap(d.items) {
		d.items = d.items[:copy(d.items, d.items[d.head:])]
		d.head = 0
	}
	i := len(d.items)
	d.items = append(d.items, Keyed[T]{})
	for ; i > d.head && at < d.items[i-1].At; i-- {
		d.items[i] = d.items[i-1]
	}
	d.items[i] = Keyed[T]{At: at, Seq: seq, Val: v}
}

// PopDue removes and returns the first pending effect if its key has passed
// on e (Engine.Due).
func (d *Deferred[T]) PopDue(e *Engine) (Keyed[T], bool) {
	if d.head == len(d.items) || !e.Due(d.items[d.head].At, d.items[d.head].Seq) {
		return Keyed[T]{}, false
	}
	return d.pop(), true
}

// PopThrough removes and returns the first pending effect if it is due at
// or before t.
func (d *Deferred[T]) PopThrough(t Time) (Keyed[T], bool) {
	if d.head == len(d.items) || d.items[d.head].At > t {
		return Keyed[T]{}, false
	}
	return d.pop(), true
}

// pop removes the first pending effect, which exists, and resets the list
// to its start once it empties.
func (d *Deferred[T]) pop() Keyed[T] {
	k := d.items[d.head]
	d.items[d.head] = Keyed[T]{}
	if d.head++; d.head == len(d.items) {
		d.items, d.head = d.items[:0], 0
	}
	return k
}
