package ni

import (
	"fmt"
	"testing"

	"rpcvalet/internal/depth"
	"rpcvalet/internal/rng"
)

// This file keeps the dispatcher as it was before the depth index, slice
// scans and all, as the reference the indexed dispatcher is checked
// against: every pick and every RNG draw must agree (as refPick does for
// the rack balancers in internal/cluster).

// slicePolicy is the reference policy interface: the available cores by ID,
// in group order, and their outstanding counts, as parallel slices.
type slicePolicy interface {
	Pick(available, outstanding []int) int
}

// equivPolicyNames is every built-in policy: PolicyNames plus random3, a
// randomN that samples more than two.
var equivPolicyNames = append(append([]string(nil), PolicyNames...), "random3")

// refPolicy builds the slice-scan twin of a built-in policy for group g,
// sharing its seed.
func refPolicy(name string, g Group) slicePolicy {
	switch name {
	case "first-available":
		return refFirst{}
	case "round-robin":
		return &refRR{}
	case "least-outstanding":
		return refLeast{}
	case "least-outstanding-rr":
		return &refLeastRR{}
	case "local":
		return refLocal{home: g.Row, width: g.MeshWidth}
	}
	var d int
	if _, err := fmt.Sscanf(name, "random%d", &d); err != nil {
		panic(name)
	}
	return &refRandom{d: d, rng: rng.New(g.Seed)}
}

type refFirst struct{}

func (refFirst) Pick(available, _ []int) int { return available[0] }

// argmin is the first index of the smallest outstanding count.
func argmin(outstanding []int) int {
	best := 0
	for i := 1; i < len(outstanding); i++ {
		if outstanding[i] < outstanding[best] {
			best = i
		}
	}
	return best
}

type refLeast struct{}

func (refLeast) Pick(available, outstanding []int) int { return available[argmin(outstanding)] }

type refLeastRR struct{ next int }

func (p *refLeastRR) Pick(available, outstanding []int) int {
	min := outstanding[argmin(outstanding)]
	var ties []int
	for i, o := range outstanding {
		if o == min {
			ties = append(ties, available[i])
		}
	}
	c := ties[p.next%len(ties)]
	p.next++
	return c
}

type refRR struct{ next int }

func (p *refRR) Pick(available, _ []int) int {
	c := available[p.next%len(available)]
	p.next++
	return c
}

type refRandom struct {
	d   int
	rng *rng.Source
}

func (p *refRandom) Pick(available, outstanding []int) int {
	n := len(available)
	if n == 1 {
		return available[0]
	}
	if p.d >= n {
		return available[argmin(outstanding)]
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	best := -1
	for k := 0; k < p.d; k++ {
		j := k + p.rng.IntN(n-k)
		idx[k], idx[j] = idx[j], idx[k]
		if c := idx[k]; best == -1 || outstanding[c] < outstanding[best] {
			best = c
		}
	}
	return available[best]
}

type refLocal struct{ home, width int }

func (p refLocal) Pick(available, outstanding []int) int {
	best := -1
	for i, c := range available {
		if c/p.width == p.home && (best == -1 || outstanding[i] < outstanding[best]) {
			best = i
		}
	}
	if best == -1 {
		best = argmin(outstanding)
	}
	return available[best]
}

// refDispatcher is the reference dispatch stage: an outstanding slice
// scanned into fresh available/outstanding slices on every dispatch.
type refDispatcher struct {
	cores, outstanding []int
	threshold          int
	policy             slicePolicy
	queue              []Msg
}

func (d *refDispatcher) try() (Dispatch, bool) {
	var avail, availOut []int
	for i, c := range d.cores {
		if d.outstanding[i] < d.threshold {
			avail = append(avail, c)
			availOut = append(availOut, d.outstanding[i])
		}
	}
	if len(d.queue) == 0 || len(avail) == 0 {
		return Dispatch{}, false
	}
	core := d.policy.Pick(avail, availOut)
	for i, c := range d.cores {
		if c == core {
			d.outstanding[i]++
		}
	}
	m := d.queue[0]
	d.queue = d.queue[1:]
	return Dispatch{Core: core, Msg: m}, true
}

// twinGroup is the group both twins serve: n cores with non-contiguous
// IDs 3i+1, so positions and IDs differ, on a 4-wide mesh whose row seed
// mod 3 is the local policy's home.
func twinGroup(n int, seed uint64) Group {
	cores := make([]int, n)
	for i := range cores {
		cores[i] = 3*i + 1
	}
	return Group{Cores: cores, Row: int(seed % 3), MeshWidth: 4, Seed: seed}
}

// runTwins drives an indexed Dispatcher running policy name and its
// reference over one op stream and reports the first disagreement or
// broken invariant. Each op byte's low two bits choose: 0 or 1, enqueue one
// message; 2, complete a request picked by the byte's high bits among those
// in flight (an enqueue when none is); 3, enqueue a burst of high-bits
// messages. With wantClamped set, some core's depth must pass depth.Clamp.
func runTwins(name string, ncores, thr int, seed uint64, ops []byte, wantClamped bool) error {
	g := twinGroup(ncores, seed)
	spec, err := SpecByName(name)
	if err != nil {
		return err
	}
	pol := spec.New(g)
	d, err := NewDispatcher(g.Cores, thr, pol)
	if err != nil {
		return err
	}
	ref := &refDispatcher{cores: g.Cores, outstanding: make([]int, ncores), threshold: thr, policy: refPolicy(name, g)}
	var inFlight []int // one core ID per dispatched, uncompleted request
	slot, wantNext, deepest := 0, 0, 0
	check := func(got Dispatch, ok bool, want Dispatch, wantOK bool) error {
		if ok != wantOK || got != want {
			return fmt.Errorf("dispatch %+v ok=%v, reference %+v ok=%v", got, ok, want, wantOK)
		}
		if !ok {
			return nil
		}
		if got.Msg.Slot != wantNext {
			return fmt.Errorf("dispatched slot %d, want %d (FIFO)", got.Msg.Slot, wantNext)
		}
		wantNext++
		inFlight = append(inFlight, got.Core)
		return nil
	}
	enqueue := func() error {
		m := Msg{Slot: slot}
		slot++
		ref.queue = append(ref.queue, m)
		got, ok := d.Enqueue(m)
		want, wantOK := ref.try()
		return check(got, ok, want, wantOK)
	}
	for step, op := range ops {
		var err error
		switch {
		case op&3 == 3:
			for k := 0; k < int(op>>2) && err == nil; k++ {
				err = enqueue()
			}
		case op&3 == 2 && len(inFlight) > 0:
			k := int(op>>2) % len(inFlight)
			c := inFlight[k]
			inFlight[k] = inFlight[len(inFlight)-1]
			inFlight = inFlight[:len(inFlight)-1]
			for i, rc := range ref.cores {
				if rc == c {
					ref.outstanding[i]--
				}
			}
			got, ok := d.Complete(c)
			want, wantOK := ref.try()
			err = check(got, ok, want, wantOK)
		default:
			err = enqueue()
		}
		if err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		for i, c := range g.Cores {
			o := d.Outstanding(c)
			if o != ref.outstanding[i] || o > thr {
				return fmt.Errorf("step %d: core %d outstanding %d, reference %d, threshold %d", step, c, o, ref.outstanding[i], thr)
			}
			deepest = max(deepest, o)
		}
		if enq, del := d.Stats(); enq != del+uint64(d.QueueDepth()) || d.QueueDepth() != len(ref.queue) {
			return fmt.Errorf("step %d: enqueued %d != delivered %d + queued %d (reference queue %d)", step, enq, del, d.QueueDepth(), len(ref.queue))
		}
		// One probe draw from each stream: equal iff both pickers consumed
		// the same draws so far. The probe advances both in lockstep.
		if p, ok := pol.(*RandomOfD); ok {
			if a, b := p.rng.Uint64(), ref.policy.(*refRandom).rng.Uint64(); a != b {
				return fmt.Errorf("step %d: RNG streams diverged", step)
			}
		}
	}
	if wantClamped && deepest <= depth.Clamp {
		return fmt.Errorf("deepest core reached %d, never past the clamp row %d", deepest, depth.Clamp)
	}
	return nil
}

// FuzzDispatcher fuzzes enqueue/complete streams, policy, threshold (around
// the index's clamp row too) and group size (1-70 cores, so rows span two
// words) against the slice-scan reference.
func FuzzDispatcher(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(1), uint8(15), []byte{0, 0, 0, 2, 6, 0, 10, 255, 2, 2})
	f.Add(uint64(2), uint8(4), uint8(7), uint8(69), []byte{255, 255, 255, 2, 254, 6, 255, 0})
	f.Add(uint64(3), uint8(5), uint8(5), uint8(66), []byte{255, 255, 2, 6, 10, 14, 0, 0, 2})
	f.Add(uint64(4), uint8(6), uint8(2), uint8(3), []byte{0, 0, 0, 0, 0, 2, 2, 0, 0, 2, 0})
	f.Add(uint64(5), uint8(3), uint8(5), uint8(1), []byte{255, 255, 255, 2, 6, 0, 0, 2, 0})
	thresholds := []int{1, 2, 3, 4, depth.Clamp, depth.Clamp + 1, depth.Clamp + 2, Unlimited}
	f.Fuzz(func(t *testing.T, seed uint64, pol, thr, n uint8, ops []byte) {
		name := equivPolicyNames[int(pol)%len(equivPolicyNames)]
		threshold := thresholds[int(thr)%len(thresholds)]
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		if err := runTwins(name, int(n)%70+1, threshold, seed, ops, false); err != nil {
			t.Fatalf("%s threshold=%d cores=%d: %v", name, threshold, int(n)%70+1, err)
		}
	})
}

// viewOf builds a dispatcher View over cores with the given outstanding
// counts, for direct Pick tests.
func viewOf(cores []int, threshold int, out []int) *View {
	v := &View{x: depth.New(len(cores), min(threshold, depth.Clamp)), cores: cores, threshold: threshold}
	for i, o := range out {
		for ; o > 0; o-- {
			v.x.Inc(i)
		}
	}
	return v
}
