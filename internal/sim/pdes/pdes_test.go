package pdes

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rpcvalet/internal/sim"
)

// TestGatherMergeOrder: the union of several mailboxes comes out sorted by
// (At, Seq) regardless of which sender buffered what, and the boxes drain.
func TestGatherMergeOrder(t *testing.T) {
	var a, b, c Mailbox[string]
	a.Send(30, 5, "a30/5")
	a.Send(30, 9, "a30/9")
	b.Send(10, 7, "b10/7")
	b.Send(30, 2, "b30/2")
	c.Send(20, 1, "c20/1")

	got := Gather(nil, &a, &b, &c)
	want := []string{"b10/7", "c20/1", "b30/2", "a30/5", "a30/9"}
	var names []string
	for _, m := range got {
		names = append(names, m.Payload)
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("merge order %v, want %v", names, want)
	}
	if a.Len()+b.Len()+c.Len() != 0 {
		t.Fatal("Gather left messages behind")
	}
	// Reuse: the returned slice is the scratch buffer for the next round.
	a.Send(1, 1, "x")
	if again := Gather(got, &a); len(again) != 1 || again[0].Payload != "x" {
		t.Fatalf("reused gather = %v", again)
	}
}

// TestGatherAllocs: the exchange runs Gather every round on the serial
// path, so a Gather into a reused slice must not allocate, however much
// sorting its input needs.
func TestGatherAllocs(t *testing.T) {
	var a, b, c Mailbox[int]
	dst := make([]Msg[int], 0, 96)
	allocs := testing.AllocsPerRun(100, func() {
		for i := range 32 {
			a.Send(sim.Time(96-i), uint64(i), i)
			b.Send(sim.Time(64-i), uint64(i), i)
			c.Send(sim.Time(64-i), uint64(i+32), i)
		}
		dst = Gather(dst, &a, &b, &c)
	})
	if allocs != 0 {
		t.Fatalf("Gather into a reused slice: %v allocs per call, want 0", allocs)
	}
	for i := 1; i < len(dst); i++ {
		if p, q := dst[i-1], dst[i]; p.At > q.At || p.At == q.At && p.Seq >= q.Seq {
			t.Fatalf("messages %d and %d out of (At, Seq) order: %+v, %+v", i-1, i, p, q)
		}
	}
}

// FuzzGather feeds Gather random mailboxes, some already in (At, Seq)
// order and some not, with At ties within and across mailboxes, and checks
// the merge against sorting the union, that every mailbox drains, and that
// a Gather into a reused slice allocates nothing. Each message takes three
// bytes: its mailbox, its At (one of 8 values, so ties are common) and the
// high bits of its Seq; the low bits are its input index, so Seqs are
// unique. The first byte sets the mailbox count, and bit i of the second
// sorts mailbox i before Gather sees it.
func FuzzGather(f *testing.F) {
	f.Add([]byte{3, 0b010, 0, 5, 1, 1, 5, 0, 2, 3, 9, 0, 5, 0, 1, 2, 7, 1, 0, 3, 2, 3, 4})
	f.Add([]byte{1, 0, 0, 7, 3, 0, 7, 1, 0, 6, 2, 0, 0, 0})
	f.Add([]byte{9, 0xff, 8, 1, 1, 7, 1, 1, 6, 1, 0, 5, 2, 2, 4, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		boxes := make([]Mailbox[int], 1+int(data[0])%24)
		sorted, data := data[1], data[2:]
		var want []Msg[int]
		for i := 0; i+3 <= len(data) && i/3 < 512; i += 3 {
			m := Msg[int]{At: sim.Time(data[i+1] % 8), Seq: uint64(data[i+2])<<16 | uint64(i/3), Payload: i / 3}
			b := &boxes[int(data[i])%len(boxes)]
			b.msgs = append(b.msgs, m)
			want = append(want, m)
		}
		for i := range boxes {
			if i < 8 && sorted&(1<<i) != 0 {
				slices.SortFunc(boxes[i].msgs, compare[int])
			}
		}
		inputs := make([][]Msg[int], len(boxes))
		ptrs := make([]*Mailbox[int], len(boxes))
		for i := range boxes {
			inputs[i] = slices.Clone(boxes[i].msgs)
			ptrs[i] = &boxes[i]
		}
		slices.SortFunc(want, compare[int])

		got := Gather(nil, ptrs...)
		if !slices.Equal(got, want) {
			t.Fatalf("Gather = %v, want %v", got, want)
		}
		for i := range boxes {
			if boxes[i].Len() != 0 {
				t.Fatalf("mailbox %d kept %d messages", i, boxes[i].Len())
			}
		}
		allocs := testing.AllocsPerRun(3, func() {
			for i := range boxes {
				boxes[i].msgs = append(boxes[i].msgs, inputs[i]...)
			}
			got = Gather(got, ptrs...)
		})
		if allocs != 0 {
			t.Fatalf("Gather into a reused slice: %v allocs per call, want 0", allocs)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Gather into a reused slice = %v, want %v", got, want)
		}
	})
}

// TestRunPingPong drives two shards that volley a counter through mailboxes
// with one-window lookahead and checks the exchange sees the deadlines in
// order, every delivery lands strictly inside the next round, and the full
// event sequence is identical run to run.
func TestRunPingPong(t *testing.T) {
	const window = sim.Duration(100)
	run := func() []string {
		var log []string
		engines := [2]*sim.Engine{sim.New(), sim.New()}
		var boxes [2]Mailbox[int] // boxes[i]: messages sent by shard i
		var bounce [2]func(v int)
		for i := range bounce {
			i := i
			bounce[i] = func(v int) {
				log = append(log, fmt.Sprintf("shard%d v%d @%d", i, v, engines[i].Now()))
				// Send onward with exactly one window of lookahead.
				boxes[i].Send(engines[i].Now().Add(window), uint64(v+1), v+1)
			}
		}
		// Seed: shard 0 handles v=0 at t=30.
		engines[0].ScheduleAt(30, func() { bounce[0](0) })
		rounds := 0
		pdesRun := func() {
			Run(window,
				[]RoundFunc{
					func(d sim.Time) { engines[0].RunUntil(d) },
					func(d sim.Time) { engines[1].RunUntil(d) },
				},
				func(d sim.Time) bool {
					rounds++
					if engines[0].Now() != d || engines[1].Now() != d {
						t.Errorf("round %d: clocks %v/%v not parked at %v", rounds, engines[0].Now(), engines[1].Now(), d)
					}
					for _, m := range Gather(nil, &boxes[0], &boxes[1]) {
						if m.At <= d {
							t.Errorf("delivery at %v violates lookahead past %v", m.At, d)
						}
						dst := m.Payload % 2 // odd values handled by shard 1
						v := m.Payload
						engines[dst].ScheduleAt(m.At, func() { bounce[dst](v) })
					}
					return rounds < 6
				})
		}
		pdesRun()
		return log
	}
	first := run()
	if len(first) != 6 {
		t.Fatalf("logged %d volleys over 6 rounds, want 6: %v", len(first), first)
	}
	want := []string{
		"shard0 v0 @30", "shard1 v1 @130", "shard0 v2 @230",
		"shard1 v3 @330", "shard0 v4 @430", "shard1 v5 @530",
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("volley log %v, want %v", first, want)
	}
	for i := 0; i < 3; i++ {
		if again := run(); !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d diverged:\n%v\n%v", i, again, first)
		}
	}
}

// TestRunShardPanicPropagates: a panic on a shard goroutine resurfaces on
// the coordinator with the shard's message, instead of deadlocking the
// barrier.
func TestRunShardPanicPropagates(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("shard panic did not propagate")
		}
		if s := fmt.Sprint(p); !strings.Contains(s, "boom") {
			t.Fatalf("propagated panic %q lost the cause", s)
		}
	}()
	healthy := 0
	Run(10,
		[]RoundFunc{
			func(sim.Time) { healthy++ },
			func(d sim.Time) {
				if d >= 30 {
					panic("boom")
				}
			},
		},
		func(sim.Time) bool { return true })
}

// TestRunRejectsZeroWindow: a non-positive lookahead has no safe rounds.
func TestRunRejectsZeroWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero window accepted")
		}
	}()
	Run(0, []RoundFunc{func(sim.Time) {}}, func(sim.Time) bool { return false })
}
