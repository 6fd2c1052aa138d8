// Package sim implements the discrete-event simulation engine that underlies
// every experiment in this repository.
//
// All latencies reported by the reproduction are measured in the engine's
// virtual clock, never in wall-clock time, so the Go runtime (GC pauses,
// scheduler jitter) cannot contaminate µs-scale results. Time is kept in
// integer picoseconds: fine enough to express fractions of a 2 GHz cycle
// (500 ps) exactly, and wide enough (int64) for about 100 days of simulated
// time.
//
// The engine is intentionally minimal: a d-ary heap of timestamped events
// with deterministic FIFO ordering for ties. Determinism is a design goal —
// two runs with the same inputs execute events in exactly the same order.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// Time is a point in virtual time, in picoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in picoseconds.
type Duration int64

// Convenient duration units.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Nanos reports d in nanoseconds as a float64.
func (d Duration) Nanos() float64 { return float64(d) / float64(Nanosecond) }

// Micros reports d in microseconds as a float64.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Seconds reports d in seconds as a float64.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// FromNanos converts a duration expressed in (possibly fractional)
// nanoseconds to a Duration, rounding to the nearest picosecond.
func FromNanos(ns float64) Duration {
	if ns <= 0 {
		return 0
	}
	return Duration(ns*float64(Nanosecond) + 0.5)
}

// maxSpan is the longest span ParseDuration accepts. Below 2^50 ps, a span
// written back by FormatSpan in ns or µs (as the fault and envelope specs'
// String methods do) parses to the same picosecond count; past it, that
// text can land a picosecond or more away.
const maxSpan = 1000 * Second

// FormatSpan writes v, a span in the given ParseDuration unit ("ns", "us",
// "ms" or "s"), as the shortest plain decimal that reads back to v. It never
// writes an exponent, whose "+" (1e+06ns) would collide with the START+DUR
// separator of the fault and envelope specs.
func FormatSpan(v float64, unit string) string {
	return strconv.FormatFloat(v, 'f', -1, 64) + unit
}

// ValidFactor reports whether f is a usable rate or slowdown multiplier
// (the "x1.5" term of the fault and envelope specs): positive and finite.
func ValidFactor(f float64) bool { return f > 0 && !math.IsInf(f, 1) }

// ParseDuration parses a virtual-time span written with an optional unit
// suffix: "500ns", "50us", "1.5ms", "2s", or a bare number meaning
// nanoseconds ("500"). It is the shared grammar of every CLI flag and spec
// string that names a simulated time. NaN, infinities, negative spans and
// spans past 1000 s (maxSpan) are errors.
func ParseDuration(s string) (Duration, error) {
	str := strings.TrimSpace(s)
	unit := 1.0 // ns
	switch {
	case strings.HasSuffix(str, "ns"):
		str = str[:len(str)-2]
	case strings.HasSuffix(str, "us"), strings.HasSuffix(str, "µs"):
		str = strings.TrimSuffix(strings.TrimSuffix(str, "us"), "µs")
		unit = 1e3
	case strings.HasSuffix(str, "ms"):
		str, unit = str[:len(str)-2], 1e6
	case strings.HasSuffix(str, "s"):
		str, unit = str[:len(str)-1], 1e9
	}
	v, err := strconv.ParseFloat(str, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("sim: bad duration %q (want e.g. 500ns, 50us, 1.5ms)", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("sim: negative duration %q", s)
	}
	if v*unit*float64(Nanosecond) > float64(maxSpan) {
		return 0, fmt.Errorf("sim: duration %q exceeds %gs", s, maxSpan.Seconds())
	}
	return FromNanos(v * unit), nil
}

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Nanos reports t in nanoseconds since simulation start.
func (t Time) Nanos() float64 { return float64(t) / float64(Nanosecond) }

// Seconds reports t in seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string { return fmt.Sprintf("%.3fns", t.Nanos()) }

// entry is one pending event as the heap holds it: 16 bytes and no
// pointers, so sifting moves plain words (no GC write barriers) and the
// garbage collector never scans the heap. key packs the event's FIFO
// sequence number above its callback's arena slot; seq is unique, so
// ordering by key orders by seq, and (at, key) is the strict total order
// (at, seq).
type entry struct {
	at  Time
	key uint64 // seq<<slotBits | slot
}

// Packing limits of entry.key. One engine may fire at most 2^40 events
// (1.1×10^12) and hold at most 2^24 (16.7M) pending at once; both are far
// beyond any run here, and exceeding either panics rather than reorder.
const (
	slotBits = 24
	slotMask = 1<<slotBits - 1
	maxSeq   = 1 << (64 - slotBits)
)

// less reports whether a pops before b. It compares (at, key) as one
// 128-bit unsigned number, which compiles to a subtract-with-borrow
// instead of branches; at is never negative, since nothing can be
// scheduled before time zero.
func (a entry) less(b entry) bool {
	_, borrow := bits.Sub64(a.key, b.key, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return borrow != 0
}

// bit is 1 for true and 0 for false, without a branch.
func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// call is a pending event's callback, parked in the engine's arena at the
// slot its heap entry names. It is written once at schedule time and read
// and cleared once when the event fires.
type call struct {
	fn  func(any)
	arg any
}

// callFunc adapts the plain func() form to the arena's func(any) shape: the
// func() travels as arg. A func value is pointer-shaped, so boxing it into
// the interface allocates nothing.
func callFunc(a any) { a.(func())() }

// eventHeap is a 4-ary min-heap of entries ordered by (at, key). It is
// hand-rolled rather than built on container/heap: the interface-dispatched
// Less/Swap calls of the generic heap dominated simulation CPU profiles.
// (at, seq) is a strict total order, so any correct priority queue pops
// events in exactly the same sequence: the heap's shape cannot perturb
// event order, which keeps every determinism pin byte-identical. Arity 4
// roughly halves tree depth versus a binary heap, and a node's four
// 16-byte children are 64 contiguous bytes.
type eventHeap []entry

const heapArity = 4

// siftUp places x at hole i, moving it toward the root until its parent is
// smaller. Displaced parents shift down in place.
func (h eventHeap) siftUp(i int, x entry) {
	for i > 0 {
		p := (i - 1) / heapArity
		if h[p].less(x) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// siftDown fills hole i with x. It first walks the hole down to a leaf,
// always promoting the smallest child, then sifts x up from there. x is
// the heap's old last entry, which usually belongs near the leaves, so
// this skips the per-level comparison against x that a top-down sift pays
// (Floyd's bottom-up heapsort trick).
func (h eventHeap) siftDown(i int, x entry) {
	n := len(h)
	for {
		first := heapArity*i + 1
		if first+heapArity > n {
			// Only the last internal node has fewer than four children.
			if first < n {
				m := first
				for c := first + 1; c < n; c++ {
					if h[c].less(h[m]) {
						m = c
					}
				}
				h[i] = h[m]
				i = m
			}
			break
		}
		// The smallest of four children, picked without a branch: the
		// winners of two pairs, then the winner of those. In a simulation
		// which child wins is close to a coin flip, so a branch here
		// mispredicts often. (A loop that pops the entry it just pushed
		// retraces one path, which a branch predictor learns; there the
		// branchy form is faster.)
		c := h[first : first+heapArity : first+heapArity]
		a := bit(c[1].less(c[0]))
		b := 2 + bit(c[3].less(c[2]))
		m := a + (b-a)*bit(c[b&3].less(c[a&3]))
		h[i] = c[m&3]
		i = first + m
	}
	h.siftUp(i, x)
}

// grow returns s with room for at least one more element. It doubles the
// capacity rather than leaving growth to append, whose ~1.25× steps for
// large slices allocate several times the final size in total.
func grow[S ~[]E, E any](s S) S {
	if len(s) < cap(s) {
		return s
	}
	return slices.Grow(s, max(cap(s), 64))
}

// Engine is a discrete-event simulator. The zero value is ready to use.
// Engine is not safe for concurrent use; an entire simulation runs on one
// goroutine, which is what keeps it deterministic.
//
// Scheduled events cannot be cancelled: nothing in the model needs it, and
// without it a pending event is just a heap entry plus an arena slot.
type Engine struct {
	now     Time
	heap    eventHeap
	calls   []call  // callback arena, indexed by an entry's slot
	free    []int32 // vacant arena slots
	seq     uint64
	fired   uint64
	stopped bool
	// done bounds the keys that have passed at the current time: every
	// (now, seq) with seq < done orders at or before the event executing
	// (or last executed). See Due.
	done uint64
}

// New returns a fresh Engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled but not yet executed.
func (e *Engine) Pending() int { return len(e.heap) }

// PendingWith reports how many pending events carry arg, which must be of a
// comparable type. It scans every pending event, for audits of a stopped
// run rather than the hot path.
func (e *Engine) PendingWith(arg any) int {
	n := 0
	for _, x := range e.heap {
		if e.calls[x.key&slotMask].arg == arg {
			n++
		}
	}
	return n
}

// Schedule runs fn after delay d (relative to the current time). A negative
// delay is treated as zero.
func (e *Engine) Schedule(d Duration, fn func()) {
	e.push(e.now.Add(max(d, 0)), e.seq, callFunc, fn)
}

// ScheduleAt runs fn at absolute time t. Scheduling in the past panics: it
// would silently corrupt causality, which in a simulator is always a bug.
func (e *Engine) ScheduleAt(t Time, fn func()) {
	e.push(t, e.seq, callFunc, fn)
}

// ScheduleArg runs fn(arg) after delay d. Unlike Schedule, the callback and
// its state travel separately: fn should be a long-lived function value (a
// method value bound once at setup) and arg the per-firing payload, so the
// simulation hot path schedules without allocating a closure. A negative
// delay is treated as zero.
func (e *Engine) ScheduleArg(d Duration, fn func(any), arg any) {
	e.push(e.now.Add(max(d, 0)), e.seq, fn, arg)
}

// ScheduleArgAt runs fn(arg) at absolute time t. Scheduling in the past
// panics, exactly as ScheduleAt.
func (e *Engine) ScheduleArgAt(t Time, fn func(any), arg any) {
	e.push(t, e.seq, fn, arg)
}

// Reserve takes the next FIFO sequence number without scheduling anything.
// Paired with a time, it is the key (at, seq) an event scheduled now would
// get: a caller can defer work to that key, apply it once Due reports the
// key passed, or still schedule it there with ScheduleArgAtSeq. Every
// event scheduled after the reservation orders after it at equal times,
// exactly as if the reserved event had been scheduled.
func (e *Engine) Reserve() uint64 {
	s := e.seq
	if s >= maxSeq {
		exhausted()
	}
	e.seq = s + 1
	return s
}

// exhausted panics on the sequence number past the last one.
func exhausted() {
	panic(fmt.Sprintf("sim: engine exhausted its %d event sequence numbers", uint64(maxSeq)))
}

// Due reports whether the key (at, seq) orders at or before the event now
// executing (or, between events, the last one executed), i.e. whether an
// event at that key would already have fired. After RunUntil has run to
// its deadline, every key taken so far at or before the deadline is due.
func (e *Engine) Due(at Time, seq uint64) bool {
	return at < e.now || at == e.now && seq < e.done
}

// ScheduleArgAtSeq runs fn(arg) at the reserved key (at, seq), where seq
// came from Reserve and has not been scheduled yet. The event fires in
// the place the key orders among all others. A key that is already due
// panics, like scheduling in the past.
func (e *Engine) ScheduleArgAtSeq(at Time, seq uint64, fn func(any), arg any) {
	if seq >= e.seq || e.Due(at, seq) {
		panic(fmt.Sprintf("sim: ScheduleArgAtSeq(%v, %d) at a key not reserved or already passed (now %v)", at, seq, e.now))
	}
	e.push(at, seq, fn, arg)
}

// push parks fn(arg) in a vacant arena slot and queues it at (t, seq): a
// reserved seq, or e.seq for the next fresh one, which push then takes.
func (e *Engine) push(t Time, seq uint64, fn func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%v) is before now (%v)", t, e.now))
	}
	if seq == e.seq {
		if seq >= maxSeq {
			exhausted()
		}
		e.seq++
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		if len(e.calls) > slotMask {
			panic(fmt.Sprintf("sim: more than %d events pending on one engine", slotMask+1))
		}
		slot = int32(len(e.calls))
		e.calls = append(grow(e.calls), call{})
	}
	e.calls[slot] = call{fn, arg}
	x := entry{at: t, key: seq<<slotBits | uint64(slot)}
	e.heap = append(grow(e.heap), x)
	e.heap.siftUp(len(e.heap)-1, x)
}

// Stop makes the currently executing Run return after the current event
// completes. Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single earliest pending event. It reports false when the
// queue is empty.
func (e *Engine) Step() bool {
	h := e.heap
	if len(h) == 0 {
		return false
	}
	top := h[0]
	n := len(h) - 1
	if n > 0 {
		h[:n].siftDown(0, h[n])
	}
	e.heap = h[:n]
	e.now = top.at
	e.done = top.key>>slotBits + 1
	e.fired++
	slot := int32(top.key & slotMask)
	c := e.calls[slot]
	e.calls[slot] = call{}
	e.free = append(grow(e.free), slot)
	c.fn(c.arg)
	return true
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// the deadline (if the clock has not already passed it). Events scheduled
// exactly at the deadline do fire.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped && len(e.heap) > 0 && e.heap[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline || !e.stopped && e.now == deadline {
		// Every key taken so far up to the deadline has now passed.
		e.now, e.done = deadline, e.seq
	}
}
