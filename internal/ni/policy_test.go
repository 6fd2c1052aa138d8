package ni

import (
	"testing"
)

func TestSpecByNameKnown(t *testing.T) {
	for _, name := range PolicyNames {
		s, err := SpecByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name != name || s.New == nil {
			t.Fatalf("%s: spec %+v", name, s)
		}
		p := s.New(Group{Index: 0, Cores: []int{0, 1, 2, 3}, Row: 1, MeshWidth: 4, Seed: 7})
		if p == nil {
			t.Fatalf("%s: nil policy", name)
		}
		// Every policy must pick from the available set.
		v := viewOf([]int{4, 5, 6, 7}, 2, []int{1, 0, 1, 1})
		if got := p.Pick(Msg{}, v); got < 0 || got >= v.Len() || v.Outstanding(got) >= 2 {
			t.Fatalf("%s: picked position %d outside the available set", name, got)
		}
	}
}

func TestSpecByNameRandomN(t *testing.T) {
	for _, name := range []string{"random2", "random3", "random16"} {
		if _, err := SpecByName(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, name := range []string{"random", "random1", "random0", "randomx", "bogus", "random007", "random+7", "random-2"} {
		if _, err := SpecByName(name); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

// FuzzSpecByName feeds arbitrary policy names to SpecByName: it must not
// panic, an accepted name must be its Spec's Name (so the Name parses back
// to the same Spec), and the policy it builds must pick an available core.
// A randomN count past the group size ("random99999999999") must build
// without reserving N sample slots.
func FuzzSpecByName(f *testing.F) {
	for _, seed := range append([]string{
		"random3", "random16", "random99999999999", "random007", "random+7",
		"random", "random1", "", "Local", "least-outstanding ",
	}, PolicyNames...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		s, err := SpecByName(name)
		if err != nil {
			return
		}
		if s.Name != name || s.New == nil {
			t.Fatalf("SpecByName(%q) = {Name: %q, New nil: %v}", name, s.Name, s.New == nil)
		}
		p := s.New(Group{Cores: []int{4, 5, 6, 7}, Row: 1, MeshWidth: 4, Seed: 7})
		v := viewOf([]int{4, 5, 6, 7}, 2, []int{1, 0, 1, 0})
		if got := p.Pick(Msg{}, v); got < 0 || got >= v.Len() || v.Outstanding(got) >= 2 {
			t.Fatalf("%s: picked position %d outside the available set", name, got)
		}
	})
}

// TestRandomOfDPrefersShorter: with a large d the sample almost surely
// covers the least-loaded core, so over many trials the shortest queue must
// dominate the picks; determinism must hold for equal seeds.
func TestRandomOfDPrefersShorter(t *testing.T) {
	v := viewOf([]int{0, 1, 2, 3}, 4, []int{3, 3, 0, 3})
	a, b := NewRandomOfD(4, 42), NewRandomOfD(4, 42)
	hits := 0
	for i := 0; i < 1000; i++ {
		pa, pb := a.Pick(Msg{}, v), b.Pick(Msg{}, v)
		if pa != pb {
			t.Fatal("equal seeds diverged")
		}
		if v.Core(pa) == 2 {
			hits++
		}
	}
	if hits < 600 {
		t.Fatalf("least-loaded core picked only %d/1000 times with d=4", hits)
	}
	if one := viewOf([]int{9}, 4, []int{0}); one.Core(NewRandomOfD(2, 1).Pick(Msg{}, one)) != 9 {
		t.Fatal("single available core not picked")
	}
}

func TestRandomOfDRejectsD1(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("d=1 accepted")
		}
	}()
	NewRandomOfD(1, 0)
}

// TestLocalFirstPrefersHomeRow: cores on the dispatcher's mesh row win while
// any of them are available; off-row cores are the spillover.
func TestLocalFirstPrefersHomeRow(t *testing.T) {
	// MeshWidth 4: row 1 is cores 4-7.
	p := &LocalFirst{HomeRow: 1, MeshWidth: 4}
	// Home-row core available with higher occupancy than an off-row core:
	// locality wins, and within the row the least-outstanding core wins.
	v := viewOf([]int{0, 4, 5, 12}, 3, []int{0, 1, 2, 0})
	if got := v.Core(p.Pick(Msg{}, v)); got != 4 {
		t.Fatalf("picked %d, want home-row core 4", got)
	}
	// Home row saturated (core 4 at the threshold): least-outstanding
	// anywhere.
	v = viewOf([]int{0, 4, 12, 13}, 2, []int{1, 2, 0, 1})
	if got := v.Core(p.Pick(Msg{}, v)); got != 12 {
		t.Fatalf("picked %d, want least-outstanding fallback 12", got)
	}
}

func TestNewPolicyStrings(t *testing.T) {
	cases := map[string]Policy{
		"random2":      NewRandomOfD(2, 0),
		"local(row 3)": &LocalFirst{HomeRow: 3, MeshWidth: 4},
	}
	for want, p := range cases {
		if got := p.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// TestDispatcherJBSQ1Bound: a dispatcher driving LeastOutstanding
// under threshold 1 behaves as strict JBSQ(1) — never more than one
// outstanding per core.
func TestDispatcherJBSQ1Bound(t *testing.T) {
	d, err := NewDispatcher([]int{0, 1, 2}, 1, LeastOutstanding{})
	if err != nil {
		t.Fatal(err)
	}
	dispatched := 0
	for i := 0; i < 6; i++ {
		if _, ok := d.Enqueue(Msg{Tag: uint64(i)}); ok {
			dispatched++
		}
	}
	if dispatched != 3 {
		t.Fatalf("dispatched %d of 6 with 3 cores at threshold 1", dispatched)
	}
	for _, c := range []int{0, 1, 2} {
		if d.Outstanding(c) != 1 {
			t.Fatalf("core %d outstanding %d, want 1", c, d.Outstanding(c))
		}
	}
	if _, ok := d.Complete(0); !ok {
		t.Fatal("completion did not trigger the queued dispatch")
	}
}
