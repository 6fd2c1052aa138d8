package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"rpcvalet/internal/rng"
)

func TestUnits(t *testing.T) {
	if Nanosecond != 1000*Picosecond {
		t.Fatal("nanosecond constant wrong")
	}
	if Microsecond != 1000*Nanosecond || Millisecond != 1000*Microsecond || Second != 1000*Millisecond {
		t.Fatal("unit ladder wrong")
	}
	if got := FromNanos(1.5); got != 1500*Picosecond {
		t.Fatalf("FromNanos(1.5) = %d, want 1500", got)
	}
	if got := FromNanos(-3); got != 0 {
		t.Fatalf("FromNanos(-3) = %d, want 0", got)
	}
	if got := FromMicros(2); got != 2*Microsecond {
		t.Fatalf("FromMicros(2) = %d", got)
	}
	if d := (1500 * Picosecond).Nanos(); d != 1.5 {
		t.Fatalf("Nanos() = %v", d)
	}
	if d := (2500 * Nanosecond).Micros(); d != 2.5 {
		t.Fatalf("Micros() = %v", d)
	}
	if s := (2 * Second).Seconds(); s != 2 {
		t.Fatalf("Seconds() = %v", s)
	}
}

func TestParseDuration(t *testing.T) {
	for spec, want := range map[string]Duration{
		"500":    500 * Nanosecond,
		"500ns":  500 * Nanosecond,
		"50us":   50 * Microsecond,
		"50µs":   50 * Microsecond,
		"1.5ms":  1500 * Microsecond,
		"2s":     2 * Second,
		" 0.5ns": 500 * Picosecond,
		"1000s":  maxSpan,
	} {
		if got, err := ParseDuration(spec); err != nil || got != want {
			t.Errorf("ParseDuration(%q) = %d, %v; want %d", spec, got, err, want)
		}
	}
	for _, bad := range []string{
		"", "us", "zz", "-1ns", "1.5xs",
		"NaN", "nan", "inf", "+Inf", "-Inf", "NaNus", "infs",
		"1e30s", "1e400", "9223372036854776ns", "1000.001s", "1e6s",
	} {
		if got, err := ParseDuration(bad); err == nil {
			t.Errorf("ParseDuration(%q) = %d, want an error", bad, got)
		}
	}
}

func TestFormatSpan(t *testing.T) {
	for _, c := range []struct {
		d    Duration
		unit string
		v    float64
		want string
	}{
		{Millisecond, "ns", Millisecond.Nanos(), "1000000ns"},
		{1500 * Picosecond, "ns", (1500 * Picosecond).Nanos(), "1.5ns"},
		{maxSpan, "us", maxSpan.Micros(), "1000000000us"},
		{maxSpan - Picosecond, "ns", (maxSpan - Picosecond).Nanos(), "999999999999.999ns"},
	} {
		got := FormatSpan(c.v, c.unit)
		if got != c.want {
			t.Errorf("FormatSpan(%v, %q) = %q, want %q", c.v, c.unit, got, c.want)
		}
		if back, err := ParseDuration(got); err != nil || back != c.d {
			t.Errorf("ParseDuration(%q) = %d, %v; want %d", got, back, err, c.d)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0).Add(5 * Nanosecond)
	if t0 != Time(5000) {
		t.Fatalf("Add: %d", t0)
	}
	if d := t0.Sub(Time(1000)); d != 4*Nanosecond {
		t.Fatalf("Sub: %d", d)
	}
	if t0.Nanos() != 5 {
		t.Fatalf("Nanos: %v", t0.Nanos())
	}
	if Time(Second).Seconds() != 1 {
		t.Fatal("Seconds")
	}
	if Time(1500).String() != "1.500ns" {
		t.Fatalf("String: %q", Time(1500).String())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var fired []Time
	delays := []Duration{50, 10, 30, 10, 0, 99, 42}
	for _, d := range delays {
		d := d
		e.Schedule(d, func() { fired = append(fired, e.Now()) })
	}
	e.Run()
	if len(fired) != len(delays) {
		t.Fatalf("fired %d events, want %d", len(fired), len(delays))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("events fired out of order: %v", fired)
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var trace []string
	e.Schedule(10, func() {
		trace = append(trace, "a")
		e.Schedule(5, func() { trace = append(trace, "c") })
		e.Schedule(0, func() { trace = append(trace, "b") })
	})
	e.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if i >= len(trace) || trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestZeroDelayFiresAtCurrentTime(t *testing.T) {
	e := New()
	var at Time
	e.Schedule(7*Nanosecond, func() {
		e.Schedule(0, func() { at = e.Now() })
	})
	e.Run()
	if at != Time(7*Nanosecond) {
		t.Fatalf("zero-delay event fired at %v", at)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := New()
	fired := false
	e.Schedule(-5, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("event with negative delay never fired")
	}
	if e.Now() != 0 {
		t.Fatalf("clock advanced to %v", e.Now())
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := New()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleAt in the past did not panic")
		}
	}()
	e.ScheduleAt(5, func() {})
}

func TestStop(t *testing.T) {
	e := New()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Duration(i), func() {
			count++
			if count == 5 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 5 {
		t.Fatalf("ran %d events after Stop, want 5", count)
	}
	if e.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", e.Pending())
	}
	e.Run() // resumes
	if count != 10 {
		t.Fatalf("resume ran to %d, want 10", count)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, d := range []Duration{5, 10, 15, 20} {
		e.Schedule(d, func() { fired = append(fired, e.Now()) })
	}
	e.RunUntil(10)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(10) fired %d events, want 2 (inclusive deadline)", len(fired))
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %v, want 10", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("total fired = %d, want 4", len(fired))
	}
	if e.Now() != 100 {
		t.Fatalf("clock advanced to %v, want 100", e.Now())
	}
}

func TestRunFor(t *testing.T) {
	e := New()
	e.Schedule(5, func() {})
	e.RunFor(3)
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want 3", e.Now())
	}
	e.RunFor(3)
	if e.Now() != 6 {
		t.Fatalf("clock = %v, want 6", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatal("event at t=5 did not fire")
	}
}

func TestFiredCounter(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.Schedule(Duration(i), func() {})
	}
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", e.Fired())
	}
}

// Property: regardless of the (possibly duplicated) set of delays scheduled,
// execution visits them in sorted order and executes them all.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%200) + 1
		r := rng.New(seed)
		e := New()
		delays := make([]Duration, n)
		var fired []Time
		for i := range delays {
			delays[i] = Duration(r.IntN(1000))
			e.Schedule(delays[i], func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != n {
			return false
		}
		sorted := append([]Duration(nil), delays...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i, ft := range fired {
			if ft != Time(sorted[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestServerFIFO(t *testing.T) {
	e := New()
	s := NewServer(e)
	var done []int
	var ends []Time
	for i := 0; i < 5; i++ {
		i := i
		end := s.Submit(10*Nanosecond, func() {
			done = append(done, i)
			ends = append(ends, e.Now())
		})
		if want := Time(Duration(i+1) * 10 * Nanosecond); end != want {
			t.Fatalf("job %d completion = %v, want %v", i, end, want)
		}
	}
	e.Run()
	for i, v := range done {
		if v != i {
			t.Fatalf("completions out of order: %v", done)
		}
	}
	for i, at := range ends {
		if want := Time(Duration(i+1) * 10 * Nanosecond); at != want {
			t.Fatalf("job %d completed at %v, want %v", i, at, want)
		}
	}
}

func TestServerIdleGap(t *testing.T) {
	e := New()
	s := NewServer(e)
	s.Submit(5*Nanosecond, nil)
	e.Run()
	// The server went idle at t=5ns; a job submitted at t=5ns starts now.
	end := s.Submit(3*Nanosecond, nil)
	if end != Time(8*Nanosecond) {
		t.Fatalf("end = %v, want 8ns", end)
	}
}

func TestServerDelay(t *testing.T) {
	e := New()
	s := NewServer(e)
	if s.Delay() != 0 {
		t.Fatal("idle server reports nonzero delay")
	}
	s.Submit(10*Nanosecond, nil)
	if s.Delay() != 10*Nanosecond {
		t.Fatalf("delay = %v, want 10ns", s.Delay())
	}
	s.Submit(5*Nanosecond, nil)
	if s.Delay() != 15*Nanosecond {
		t.Fatalf("delay = %v, want 15ns", s.Delay())
	}
}

// TestServerIdleIsStrict: a server whose last job ends exactly now is not
// idle, though a job submitted now would not wait: the ending job's
// completion event, scheduled at now, may still be pending. One picosecond
// later it is idle.
func TestServerIdleIsStrict(t *testing.T) {
	e := New()
	s := NewServer(e)
	var idle []bool
	probe := func() { idle = append(idle, s.Idle()) }
	e.ScheduleAt(1, func() {
		probe()
		s.Submit(4, probe) // its completion at 5 is pending at the probe below
	})
	e.ScheduleAt(5, func() {
		if s.Delay() != 0 {
			t.Errorf("delay at the busy horizon = %v, want 0", s.Delay())
		}
		probe()
	})
	e.ScheduleAt(6, probe)
	e.Run()
	if want := []bool{true, false, false, true}; !slices.Equal(idle, want) {
		t.Fatalf("Idle at 1, 5 (twice) and 6 = %v, want %v", idle, want)
	}
}

// TestDeferredKeyOrder: Deferred pops in (at, seq) key order whatever the
// insertion order of the times, PopDue stops at the first key not yet due,
// and PopThrough at the first past its bound.
func TestDeferredKeyOrder(t *testing.T) {
	e := New()
	var d Deferred[int]
	d.Grow(2)
	for i, at := range []Time{30, 10, 30, 20, 10} {
		d.Insert(at, e.Reserve(), i)
	}
	want := []int{1, 4, 3, 0, 2}
	for i := range d.Len() {
		if got := d.At(i).Val; got != want[i] {
			t.Fatalf("At(%d) = %d, want %d (order %v)", i, got, want[i], want)
		}
	}
	var got []int
	e.ScheduleAt(20, func() {
		for k, ok := d.PopDue(e); ok; k, ok = d.PopDue(e) {
			got = append(got, k.Val)
		}
	})
	e.Run()
	if !slices.Equal(got, want[:3]) {
		t.Fatalf("PopDue at 20 popped %v, want %v", got, want[:3])
	}
	d.Insert(25, e.Reserve(), 5)
	if k, ok := d.PopThrough(25); !ok || k.Val != 5 {
		t.Fatalf("PopThrough(25) = %v, %v; want 5", k, ok)
	}
	if _, ok := d.PopThrough(29); ok || d.Len() != 2 {
		t.Fatalf("PopThrough(29) popped, or %d left, want 2", d.Len())
	}
}

func TestServerNegativeServiceClamped(t *testing.T) {
	e := New()
	s := NewServer(e)
	end := s.Submit(-4, nil)
	if end != 0 {
		t.Fatalf("end = %v, want 0", end)
	}
}

func TestServerUtilization(t *testing.T) {
	e := New()
	s := NewServer(e)
	if s.Utilization() != 0 {
		t.Fatal("utilization before time advances should be 0")
	}
	s.Submit(10*Nanosecond, nil)
	e.RunUntil(Time(20 * Nanosecond)) // busy 10ns, then idle 10ns
	u := s.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
	if s.busy != 10*Nanosecond {
		t.Fatalf("busy = %v", s.busy)
	}
}

// Property: a FIFO server conserves work — total completion time of the last
// job equals max over arrival ordering of the standard Lindley recursion.
func TestPropertyServerLindley(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%50) + 1
		r := rng.New(seed)
		e := New()
		s := NewServer(e)
		// Jobs arrive at random times with random service; drive arrivals
		// via scheduled events so Submit sees the right "now".
		type job struct{ arrive, service Duration }
		jobs := make([]job, n)
		for i := range jobs {
			jobs[i] = job{Duration(r.IntN(500)), Duration(r.IntN(100))}
		}
		sort.Slice(jobs, func(i, j int) bool { return jobs[i].arrive < jobs[j].arrive })
		ends := make([]Time, n)
		for i, j := range jobs {
			i, j := i, j
			e.Schedule(j.arrive, func() {
				ends[i] = s.Submit(j.service, nil)
			})
		}
		e.Run()
		// Lindley: start_i = max(arrive_i, end_{i-1}).
		var prevEnd Time
		for i, j := range jobs {
			start := Time(j.arrive)
			if prevEnd > start {
				start = prevEnd
			}
			want := start.Add(j.service)
			if ends[i] != want {
				return false
			}
			prevEnd = want
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestServerOccupy: Occupy is SubmitArg without the completion event. On
// the same job sequence it returns the same end times and leaves the same
// utilization behind, and it schedules nothing.
func TestServerOccupy(t *testing.T) {
	r := rng.New(5)
	type job struct{ arrive, service Duration }
	jobs := make([]job, 200)
	var at Duration
	for i := range jobs {
		at += Duration(r.IntN(60)) * Nanosecond
		jobs[i] = job{at, Duration(r.IntN(100)-10) * Nanosecond} // some negative: clamped
	}
	run := func(submit func(s *Server, e *Engine, service Duration) Time) ([]Time, []float64) {
		e := New()
		s := NewServer(e)
		ends := make([]Time, len(jobs))
		for i, j := range jobs {
			e.ScheduleAt(Time(j.arrive), func() { ends[i] = submit(s, e, j.service) })
		}
		// Read utilization at fixed instants, every arrival included, and
		// after the last job has drained.
		var util []float64
		for _, j := range jobs {
			e.RunUntil(Time(j.arrive))
			util = append(util, s.Utilization())
		}
		e.RunUntil(Time(at + 100*Microsecond))
		util = append(util, s.Utilization())
		return ends, util
	}
	noop := func(any) {}
	wantEnds, wantUtil := run(func(s *Server, _ *Engine, d Duration) Time { return s.SubmitArg(d, noop, nil) })
	gotEnds, gotUtil := run(func(s *Server, e *Engine, d Duration) Time {
		before := e.Pending()
		end := s.Occupy(d)
		if e.Pending() != before {
			t.Fatalf("Occupy changed Pending from %d to %d", before, e.Pending())
		}
		return end
	})
	if !slices.Equal(gotEnds, wantEnds) {
		t.Fatalf("Occupy end times differ from SubmitArg's:\n got %v\nwant %v", gotEnds, wantEnds)
	}
	if !slices.Equal(gotUtil, wantUtil) {
		t.Fatalf("Occupy utilization differs from SubmitArg's:\n got %v\nwant %v", gotUtil, wantUtil)
	}
}

// BenchmarkEngineHold is the classic hold model: at a fixed number of
// pending events, schedule one at a random delay and fire the earliest.
// Unlike a loop that pops the event it just pushed, its sift paths vary
// from pop to pop, as a simulation's do.
func BenchmarkEngineHold(b *testing.B) {
	for _, depth := range []int{64, 6400} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			e := New()
			r := rng.New(1)
			var delays [4096]Duration
			for i := range delays {
				delays[i] = Duration(r.IntN(2000)) * Nanosecond
			}
			fn := func(any) {}
			for i := 0; i < depth; i++ {
				e.ScheduleArg(delays[i&4095], fn, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.ScheduleArg(delays[i&4095], fn, nil)
				e.Step()
			}
		})
	}
}

// TestScheduleReusesFiredEvents: once the arena and heap are warm, the
// Schedule→fire cycle allocates nothing, in both the func() form and the
// ScheduleArg form.
func TestScheduleReusesFiredEvents(t *testing.T) {
	e := New()
	fn := func() {}
	afn := func(any) {}
	arg := new(int)
	for i := 0; i < 64; i++ {
		e.Schedule(Duration(i), fn)
	}
	e.Run()
	if allocs := testing.AllocsPerRun(200, func() {
		e.Schedule(1, fn)
		e.Run()
	}); allocs > 0 {
		t.Fatalf("Schedule allocates %v objects/op after warmup, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		e.ScheduleArg(1, afn, arg)
		e.Run()
	}); allocs > 0 {
		t.Fatalf("ScheduleArg allocates %v objects/op after warmup, want 0", allocs)
	}
}

// TestSequenceExhaustionPanics: the heap key holds 40 bits of sequence
// number; the engine refuses to wrap it, since a wrapped seq would fire
// later events before earlier ones at equal times. Reserve takes from the
// same sequence, so it refuses too.
func TestSequenceExhaustionPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		take func(e *Engine)
	}{
		{"Schedule", func(e *Engine) { e.Schedule(1, func() {}) }},
		{"Reserve", func(e *Engine) { e.Reserve() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			e.seq = maxSeq - 1
			tc.take(e) // the last sequence number is still usable
			defer func() {
				if recover() == nil {
					t.Fatalf("%s past the last sequence number did not panic", tc.name)
				}
			}()
			tc.take(e)
		})
	}
}

// TestServerOccupyAt: jobs whose arrivals are applied late through OccupyAt,
// in arrival order and each before the next job submitted at its own time,
// get the end times and leave the busy time that SubmitArg at their own
// arrival times gives.
func TestServerOccupyAt(t *testing.T) {
	r := rng.New(9)
	type job struct {
		arrive, service Duration
		late            bool
	}
	jobs := make([]job, 300)
	var at Duration
	for i := range jobs {
		at += Duration(r.IntN(40)) * Nanosecond // some ties
		jobs[i] = job{at, Duration(1+r.IntN(30)) * Nanosecond, r.IntN(3) > 0}
	}
	ends := func(lazy bool) ([]Time, Duration) {
		e := New()
		s := NewServer(e)
		got := make([]Time, len(jobs))
		next := 0 // the first job not yet on the server
		// catchUp applies every late job before job i, in arrival order.
		catchUp := func(i int) {
			for ; next < i; next++ {
				if jobs[next].late {
					got[next] = s.OccupyAt(Time(jobs[next].arrive), jobs[next].service)
				}
			}
		}
		for i, j := range jobs {
			if lazy && j.late {
				continue
			}
			e.ScheduleAt(Time(j.arrive), func() {
				catchUp(i)
				got[i] = s.SubmitArg(j.service, func(any) {}, nil)
				next = i + 1
			})
		}
		e.Run()
		catchUp(len(jobs))
		return got, s.busy
	}
	wantEnds, wantBusy := ends(false)
	gotEnds, gotBusy := ends(true)
	if !slices.Equal(gotEnds, wantEnds) {
		t.Fatalf("late OccupyAt end times differ from SubmitArg's:\n got %v\nwant %v", gotEnds, wantEnds)
	}
	if gotBusy != wantBusy {
		t.Fatalf("busy time %v with late arrivals, %v with events", gotBusy, wantBusy)
	}
}

// TestPendingWith: PendingWith counts the pending events carrying an
// argument, however they were scheduled, and stops counting each once it
// fires.
func TestPendingWith(t *testing.T) {
	e := New()
	a, b := new(int), new(int)
	noop := func(any) {}
	e.ScheduleArg(1, noop, a)
	e.ScheduleArg(2, noop, b)
	e.ScheduleArgAtSeq(3, e.Reserve(), noop, a)
	e.Schedule(4, func() {}) // a func() argument compares unequal to a pointer
	for _, want := range []struct{ a, b int }{{2, 1}, {1, 1}, {1, 0}, {0, 0}} {
		if got := [2]int{e.PendingWith(a), e.PendingWith(b)}; got != [2]int{want.a, want.b} {
			t.Fatalf("at %v PendingWith(a, b) = %v, want %v", e.Now(), got, want)
		}
		e.Step()
	}
}

// TestReservedKeyOrdersLikeEvent: a key reserved between two schedules at
// the same time orders between them. Left as a key, Due turns true exactly
// when the event before it has fired, and stays false before; scheduled,
// the event fires in that place, and scheduling at a passed key panics.
func TestReservedKeyOrdersLikeEvent(t *testing.T) {
	const at = Time(10)
	t.Run("deferred", func(t *testing.T) {
		e := New()
		var seq uint64
		var due []bool
		probe := func() { due = append(due, e.Due(at, seq)) }
		e.ScheduleAt(5, probe)
		e.ScheduleAt(at, probe)
		seq = e.Reserve()
		e.ScheduleAt(at, probe)
		e.ScheduleAt(at+1, probe)
		e.Run()
		if want := []bool{false, false, true, true}; !slices.Equal(due, want) {
			t.Fatalf("Due(%v, %d) at the four events = %v, want %v", at, seq, due, want)
		}
	})
	t.Run("scheduled", func(t *testing.T) {
		e := New()
		var got []string
		e.ScheduleAt(at, func() { got = append(got, "before") })
		seq := e.Reserve()
		e.ScheduleAt(at, func() { got = append(got, "after") })
		e.ScheduleArgAtSeq(at, seq, func(any) {
			if !e.Due(at, seq) {
				t.Error("a reserved key is not due while its own event runs")
			}
			got = append(got, "reserved")
		}, nil)
		e.Run()
		if want := []string{"before", "reserved", "after"}; !slices.Equal(got, want) {
			t.Fatalf("fired %v, want %v", got, want)
		}
		defer func() {
			if recover() == nil {
				t.Fatal("scheduling at a passed reserved key did not panic")
			}
		}()
		e.ScheduleArgAtSeq(at, seq, func(any) {}, nil)
	})
	t.Run("RunUntil", func(t *testing.T) {
		e := New()
		seq := e.Reserve()
		if e.Due(at, seq) {
			t.Fatal("a key ahead of the clock is due")
		}
		e.RunUntil(at)
		if !e.Due(at, seq) {
			t.Fatal("a key at the deadline is not due after RunUntil")
		}
		if later := e.Reserve(); e.Due(at, later) {
			t.Fatal("a key reserved after RunUntil is due at once")
		}
	})
}

// firing is one event firing as the reference model sees it.
type firing struct {
	at Time
	id int
}

// refEvent is one event, or one reserved key, as the reference holds it.
type refEvent struct {
	firing
	seq uint64
}

// orderModel replays a schedule/step program on an Engine and on a
// reference that keeps pending events in a slice and fires the least
// (at, seq) each time, and reports the first divergence. The reference
// numbers events and reserved keys itself and tracks which keys have
// passed, so it also checks Due on every key reserved but not scheduled.
type orderModel struct {
	e       *Engine
	pending []refEvent // reference queue
	held    []refEvent // reserved keys not yet scheduled, oldest first
	got     []firing
	nextID  int
	nextSeq uint64
	now     Time   // the reference clock
	done    uint64 // keys (now, seq) with seq < done have passed
}

func newOrderModel() *orderModel { return &orderModel{e: New()} }

// due is the reference's Due.
func (m *orderModel) due(k refEvent) bool {
	return k.at < m.now || k.at == m.now && k.seq < m.done
}

// take numbers a new event or reserved key at time at.
func (m *orderModel) take(at Time) refEvent {
	k := refEvent{firing{at, m.nextID}, m.nextSeq}
	m.nextID++
	m.nextSeq++
	return k
}

func (m *orderModel) record(id int) { m.got = append(m.got, firing{m.e.Now(), id}) }

func (m *orderModel) recordArg(a any) { m.record(a.(int)) }

// schedule queues one event through the form op%4 selects, at delay d.
func (m *orderModel) schedule(op int, d Duration) {
	at := m.e.Now().Add(max(d, 0))
	k := m.take(at)
	id := k.id
	m.pending = append(m.pending, k)
	switch op % 4 {
	case 0:
		m.e.Schedule(d, func() { m.record(id) })
	case 1:
		m.e.ScheduleAt(at, func() { m.record(id) })
	case 2:
		m.e.ScheduleArg(d, m.recordArg, id)
	case 3:
		m.e.ScheduleArgAt(at, m.recordArg, id)
	}
}

// reserve takes a key d ahead without scheduling it.
func (m *orderModel) reserve(d Duration) error {
	k := m.take(m.e.Now().Add(d))
	if seq := m.e.Reserve(); seq != k.seq {
		return fmt.Errorf("Reserve() = %d, want %d", seq, k.seq)
	}
	m.held = append(m.held, k)
	return nil
}

// scheduleHeld schedules the oldest held key at its reservation, or, if
// that key has already passed, checks that ScheduleArgAtSeq refuses it.
func (m *orderModel) scheduleHeld() error {
	if len(m.held) == 0 {
		return nil
	}
	k := m.held[0]
	m.held = m.held[1:]
	if !m.due(k) {
		m.e.ScheduleArgAtSeq(k.at, k.seq, m.recordArg, k.id)
		m.pending = append(m.pending, k)
		return m.checkPending()
	}
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		m.e.ScheduleArgAtSeq(k.at, k.seq, m.recordArg, k.id)
		return false
	}()
	if !panicked {
		return fmt.Errorf("ScheduleArgAtSeq at the passed key (%v, %d) did not panic", k.at, k.seq)
	}
	return nil
}

// popRef removes and returns the reference's least (at, seq) event, or
// reports false when none is due by deadline.
func (m *orderModel) popRef(deadline Time) (firing, bool) {
	best := -1
	for i, f := range m.pending {
		if f.at <= deadline && (best < 0 || f.at < m.pending[best].at ||
			f.at == m.pending[best].at && f.seq < m.pending[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return firing{}, false
	}
	f := m.pending[best]
	m.pending = slices.Delete(m.pending, best, best+1)
	m.now, m.done = f.at, f.seq+1
	return f.firing, true
}

// step fires one event on both sides.
func (m *orderModel) step() error {
	want, ok := m.popRef(math.MaxInt64)
	if got := m.e.Step(); got != ok {
		return fmt.Errorf("Step() = %v, want %v", got, ok)
	}
	if !ok {
		return nil
	}
	if g := m.got[len(m.got)-1]; g != want {
		return fmt.Errorf("Step fired %+v, want %+v", g, want)
	}
	return m.checkPending()
}

// runUntil fires every event at or before deadline on both sides.
func (m *orderModel) runUntil(deadline Time) error {
	var want []firing
	for f, ok := m.popRef(deadline); ok; f, ok = m.popRef(deadline) {
		want = append(want, f)
	}
	m.now, m.done = deadline, m.nextSeq
	before := len(m.got)
	m.e.RunUntil(deadline)
	if !slices.Equal(m.got[before:], want) {
		return fmt.Errorf("RunUntil(%v) fired %+v, want %+v", deadline, m.got[before:], want)
	}
	if m.e.Now() != deadline {
		return fmt.Errorf("RunUntil(%v) left the clock at %v", deadline, m.e.Now())
	}
	return m.checkPending()
}

func (m *orderModel) checkPending() error {
	if m.e.Pending() != len(m.pending) {
		return fmt.Errorf("Pending() = %d, want %d", m.e.Pending(), len(m.pending))
	}
	for _, k := range m.held {
		if got, want := m.e.Due(k.at, k.seq), m.due(k); got != want {
			return fmt.Errorf("Due(%v, %d) = %v at %v, want %v", k.at, k.seq, got, m.e.Now(), want)
		}
	}
	return nil
}

// drain runs the engine dry and checks the tail of the order.
func (m *orderModel) drain() error {
	for len(m.pending) > 0 {
		if err := m.step(); err != nil {
			return err
		}
	}
	if m.e.Step() {
		return fmt.Errorf("Step() fired an event the reference does not hold")
	}
	return nil
}

// exec decodes one program byte: the low two bits pick scheduling (with
// the form and a small delay from the rest, so timestamps collide often),
// Step, or a third op. That one's next two bits pick RunUntil a short way
// ahead, reserving a key a short way ahead, or scheduling the oldest
// reserved key.
func (m *orderModel) exec(b byte) error {
	switch b & 3 {
	case 0, 1:
		m.schedule(int(b>>2), Duration(b>>4)-2) // some delays negative
	case 2:
		return m.step()
	case 3:
		switch d := Duration(b >> 5); b >> 2 & 3 {
		case 0, 1:
			return m.runUntil(m.e.Now().Add(d))
		case 2:
			return m.reserve(d)
		case 3:
			return m.scheduleHeld()
		}
	}
	return nil
}

// TestPropertyPopOrder: random interleavings of all four Schedule forms,
// reserved keys scheduled later, Step and RunUntil, over a handful of
// distinct delays, fire in exactly the (at, seq) order of the reference
// model.
func TestPropertyPopOrder(t *testing.T) {
	f := func(seed uint64, n16 uint16) bool {
		r := rng.New(seed)
		prog := make([]byte, int(n16)%4000)
		for i := range prog {
			prog[i] = byte(r.IntN(256))
		}
		m := newOrderModel()
		for _, b := range prog {
			if err := m.exec(b); err != nil {
				t.Log(err)
				return false
			}
		}
		if err := m.drain(); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzEngineOrder decodes its bytes into a schedule/step program and checks
// every firing against the (at, seq) reference model.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 1, 4, 5, 2, 3, 0x40, 0x81, 2, 2, 0xff})
	f.Add([]byte{0x10, 0x14, 0x18, 0x1c, 0x10, 3, 3, 0xe3, 2})
	f.Add([]byte{0x10, 0x2b, 0x10, 0x0f, 2, 0x0b, 0x0f, 2, 2, 0x23, 0x0f, 2})
	f.Fuzz(func(t *testing.T, prog []byte) {
		m := newOrderModel()
		for _, b := range prog {
			if err := m.exec(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.drain(); err != nil {
			t.Fatal(err)
		}
	})
}
