package ni

import (
	"math"
	"testing"

	"rpcvalet/internal/rng"
)

func mustDispatcher(t *testing.T, cores []int, threshold int, p Policy) *Dispatcher {
	t.Helper()
	d, err := NewDispatcher(cores, threshold, p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDispatcherErrors(t *testing.T) {
	if _, err := NewDispatcher(nil, 2, nil); err == nil {
		t.Fatal("empty group accepted")
	}
	if _, err := NewDispatcher([]int{0}, 0, nil); err == nil {
		t.Fatal("zero threshold accepted")
	}
	if _, err := NewDispatcher([]int{1, 1}, 2, nil); err == nil {
		t.Fatal("duplicate core accepted")
	}
}

func TestImmediateDispatchWhenIdle(t *testing.T) {
	d := mustDispatcher(t, []int{0, 1, 2, 3}, 2, nil)
	dis, ok := d.Enqueue(Msg{Slot: 7})
	if !ok || dis.Core != 0 || dis.Msg.Slot != 7 {
		t.Fatalf("dispatch = %+v ok=%v", dis, ok)
	}
	if d.Outstanding(0) != 1 {
		t.Fatalf("outstanding = %d", d.Outstanding(0))
	}
}

func TestThresholdGate(t *testing.T) {
	d := mustDispatcher(t, []int{0, 1}, 2, nil)
	// 4 messages fill both cores to threshold 2 (first-available policy
	// fills core 0 first).
	for i := 0; i < 4; i++ {
		if _, ok := d.Enqueue(Msg{Slot: i}); !ok {
			t.Fatalf("message %d not dispatched", i)
		}
	}
	if d.Outstanding(0) != 2 || d.Outstanding(1) != 2 {
		t.Fatalf("outstanding = %d,%d", d.Outstanding(0), d.Outstanding(1))
	}
	// The 5th queues.
	if _, ok := d.Enqueue(Msg{Slot: 4}); ok {
		t.Fatal("message dispatched beyond threshold")
	}
	if d.QueueDepth() != 1 {
		t.Fatalf("queue depth = %d", d.QueueDepth())
	}
	// A completion frees capacity and dispatches the queued message FIFO.
	dis, ok := d.Complete(1)
	if !ok || dis.Msg.Slot != 4 || dis.Core != 1 {
		t.Fatalf("post-complete dispatch = %+v ok=%v", dis, ok)
	}
}

func TestFIFOOrder(t *testing.T) {
	d := mustDispatcher(t, []int{0}, 1, nil)
	d.Enqueue(Msg{Slot: 0}) // dispatched immediately
	for i := 1; i <= 5; i++ {
		d.Enqueue(Msg{Slot: i}) // queue
	}
	for i := 1; i <= 5; i++ {
		dis, ok := d.Complete(0)
		if !ok || dis.Msg.Slot != i {
			t.Fatalf("completion %d dispatched %+v ok=%v", i, dis, ok)
		}
	}
}

func TestCompletePanicsAtZero(t *testing.T) {
	d := mustDispatcher(t, []int{0}, 2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Complete with zero outstanding did not panic")
		}
	}()
	d.Complete(0)
}

func TestOutstandingPanicsOnForeignCore(t *testing.T) {
	d := mustDispatcher(t, []int{0, 1}, 2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign core did not panic")
		}
	}()
	d.Complete(5)
}

// busyPolicy picks position 0 whatever its occupancy; outsidePolicy picks
// one past the group's last position.
type (
	busyPolicy    struct{}
	outsidePolicy struct{}
)

func (busyPolicy) Pick(Msg, *View) int        { return 0 }
func (busyPolicy) String() string             { return "busy" }
func (outsidePolicy) Pick(_ Msg, v *View) int { return v.Len() }
func (outsidePolicy) String() string          { return "outside" }

// TestPickOfUnavailableCorePanics: a policy that picks a position at the
// threshold, or outside the group, is a bug the dispatcher reports loudly.
func TestPickOfUnavailableCorePanics(t *testing.T) {
	for _, pol := range []Policy{busyPolicy{}, outsidePolicy{}} {
		d := mustDispatcher(t, []int{4, 9}, 1, pol)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: unavailable pick did not panic", pol)
				}
			}()
			d.Enqueue(Msg{})
			d.Enqueue(Msg{})
		}()
	}
}

func TestUnlimitedThresholdNeverQueues(t *testing.T) {
	d := mustDispatcher(t, []int{3}, Unlimited, nil)
	for i := 0; i < 1000; i++ {
		if _, ok := d.Enqueue(Msg{Slot: i}); !ok {
			t.Fatalf("message %d queued under Unlimited threshold", i)
		}
	}
	if d.Outstanding(3) != 1000 {
		t.Fatalf("outstanding = %d", d.Outstanding(3))
	}
	if d.QueueDepth() != 0 {
		t.Fatal("queue should stay empty")
	}
}

func TestLeastOutstandingPolicy(t *testing.T) {
	d := mustDispatcher(t, []int{0, 1, 2}, 2, LeastOutstanding{})
	d.Enqueue(Msg{}) // core 0 (all zero, tie to low ID)
	d.Enqueue(Msg{}) // core 1 now least
	dis, _ := d.Enqueue(Msg{})
	if dis.Core != 2 {
		t.Fatalf("third message to core %d, want 2", dis.Core)
	}
	dis, _ = d.Enqueue(Msg{}) // all at 1; ties to 0
	if dis.Core != 0 {
		t.Fatalf("fourth message to core %d, want 0", dis.Core)
	}
}

func TestRoundRobinPolicy(t *testing.T) {
	d := mustDispatcher(t, []int{5, 6, 7}, Unlimited, &RoundRobin{})
	var got []int
	for i := 0; i < 6; i++ {
		dis, ok := d.Enqueue(Msg{})
		if !ok {
			t.Fatal("no dispatch")
		}
		got = append(got, dis.Core)
	}
	want := []int{5, 6, 7, 5, 6, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round robin order %v, want %v", got, want)
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, p := range []Policy{FirstAvailable{}, LeastOutstanding{}, &LeastOutstandingRR{}, &RoundRobin{}} {
		if p.String() == "" {
			t.Fatal("empty policy name")
		}
	}
}

// TestLeastOutstandingRRPrefersIdle: a core already holding one request must
// not receive another while a fully idle core exists — the occupancy
// feedback that keeps short RPCs from queueing behind long ones.
func TestLeastOutstandingRRPrefersIdle(t *testing.T) {
	d := mustDispatcher(t, []int{0, 1, 2}, 2, &LeastOutstandingRR{})
	first, _ := d.Enqueue(Msg{})
	second, _ := d.Enqueue(Msg{})
	third, _ := d.Enqueue(Msg{})
	seen := map[int]bool{first.Core: true, second.Core: true, third.Core: true}
	if len(seen) != 3 {
		t.Fatalf("first three dispatches reused a core: %v %v %v", first.Core, second.Core, third.Core)
	}
	// All cores now hold one; a fourth dispatch must still succeed (all
	// below threshold 2) and rotation must continue.
	fourth, ok := d.Enqueue(Msg{})
	if !ok {
		t.Fatal("fourth dispatch blocked below threshold")
	}
	if d.Outstanding(fourth.Core) != 2 {
		t.Fatalf("fourth core outstanding = %d", d.Outstanding(fourth.Core))
	}
}

func TestLeastOutstandingRRRotatesTies(t *testing.T) {
	d := mustDispatcher(t, []int{0, 1, 2, 3}, Unlimited, &LeastOutstandingRR{})
	counts := map[int]int{}
	for i := 0; i < 400; i++ {
		dis, _ := d.Enqueue(Msg{})
		counts[dis.Core]++
		// Immediately complete so all cores stay tied at zero.
		d.Complete(dis.Core)
	}
	for c, n := range counts {
		if n != 100 {
			t.Fatalf("core %d received %d dispatches, want 100 (fair rotation)", c, n)
		}
	}
}

func TestStatsAndMaxDepth(t *testing.T) {
	d := mustDispatcher(t, []int{0}, 1, nil)
	for i := 0; i < 5; i++ {
		d.Enqueue(Msg{Slot: i})
	}
	enq, del := d.Stats()
	if enq != 5 || del != 1 {
		t.Fatalf("stats = %d,%d", enq, del)
	}
	if d.MaxQueueDepth() != 4 {
		t.Fatalf("max depth = %d, want 4", d.MaxQueueDepth())
	}
}

// TestPropertyDispatcherInvariants drives every built-in policy (each
// PolicyNames entry plus random3) at thresholds 1, 2, 3 and Unlimited over
// non-contiguous core IDs with a seeded op stream, checking each step
// against the slice-scan reference (policy_equiv_test.go): the same pick,
// the same RNG draws, no core past the threshold, strict FIFO dispatch and
// conservation. Under Unlimited the stream leans on enqueues and bursts,
// driving depths past the index's clamp row as 16x1 does under overload.
func TestPropertyDispatcherInvariants(t *testing.T) {
	for _, name := range equivPolicyNames {
		for _, thr := range []int{1, 2, 3, Unlimited} {
			for ncores := 1; ncores <= 8; ncores++ {
				src := rng.New(uint64(ncores*1000 + min(thr, 9)))
				ops := make([]byte, 3000)
				for i := range ops {
					switch k := src.IntN(16); {
					case thr == Unlimited && k == 0:
						ops[i] = byte(src.IntN(64))<<2 | 3 // burst
					case k < 8 || thr == Unlimited && k < 12:
						ops[i] = byte(src.IntN(64)) << 2 // one enqueue
					default:
						ops[i] = byte(src.IntN(64))<<2 | 2 // one completion
					}
				}
				if err := runTwins(name, ncores, thr, uint64(ncores), ops, thr == Unlimited); err != nil {
					t.Fatalf("%s thr=%d cores=%d: %v", name, thr, ncores, err)
				}
			}
		}
	}
}

func TestRSSDeterministic(t *testing.T) {
	for flow := uint64(0); flow < 100; flow++ {
		a, b := RSSQueue(flow, 16), RSSQueue(flow, 16)
		if a != b {
			t.Fatal("RSS not deterministic")
		}
		if a < 0 || a >= 16 {
			t.Fatalf("RSS out of range: %d", a)
		}
	}
}

func TestRSSUniformity(t *testing.T) {
	const flows, queues = 200000, 16
	counts := make([]int, queues)
	for f := 0; f < flows; f++ {
		counts[RSSQueue(uint64(f), queues)]++
	}
	want := float64(flows) / queues
	for q, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.03 {
			t.Fatalf("queue %d has %d flows, want ~%v", q, c, want)
		}
	}
}

func TestRSSPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RSSQueue(_, 0) did not panic")
		}
	}()
	RSSQueue(1, 0)
}
