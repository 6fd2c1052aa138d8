// Package fifo provides the one FIFO queue in the simulator: a ring over a
// slice that doubles only when full. Push and Pop are O(1) with no
// per-element allocation once the ring has reached its steady-state size,
// and popped slots are zeroed so the queue never pins dead references.
//
// Grow pre-sizes a ring to a small known bound (a core's CQ under a finite
// outstanding threshold, the idle-core list), after which it never
// reallocates. A queue bounded only by N×S flow control (§4.2–4.3) is left
// to double up to the peak it reaches instead. The machine model's per-core
// CQs, parking queues, software queue and idle-core list, the NI
// dispatcher's shared CQ, and the queueing model's stations all use this
// one implementation.
package fifo

// minCap is the ring size the first Push of a zero-value queue allocates.
const minCap = 4

// Queue is a FIFO ring buffer. The zero value is an empty queue. Queue is
// not safe for concurrent use.
type Queue[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // number of queued elements
}

// Push appends v to the tail, doubling the ring first if it is full.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.resize(max(2*len(q.buf), minCap))
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = v
	q.n++
}

// Grow sizes the ring to exactly n when it holds fewer than n slots, keeping
// the queued elements in order, so a queue whose occupancy bound is known up
// front never reallocates on the hot path. It never shrinks the ring.
func (q *Queue[T]) Grow(n int) {
	if n > len(q.buf) {
		q.resize(n)
	}
}

// resize moves the queued elements, oldest first, into a new ring of n
// slots (n >= q.n).
func (q *Queue[T]) resize(n int) {
	buf := make([]T, n)
	if end := q.head + q.n; end <= len(q.buf) {
		copy(buf, q.buf[q.head:end])
	} else {
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:end-len(q.buf)])
	}
	q.buf, q.head = buf, 0
}

// Pop removes and returns the head element, reporting false on an empty
// queue.
func (q *Queue[T]) Pop() (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero // drop the reference for the garbage collector
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return v, true
}

// Peek returns the head element without removing it, reporting false on an
// empty queue.
func (q *Queue[T]) Peek() (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	return q.buf[q.head], true
}

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Cap reports the number of slots in the ring.
func (q *Queue[T]) Cap() int { return len(q.buf) }
