package cluster

import (
	"testing"

	"rpcvalet/internal/rng"
)

// rackPolicies is the benchmark policy set at rack scale: the two O(1)-ish
// policies (random, rr), sampled JSQ(2), and the two whole-cluster policies
// (full-scan JSQ, bounded-load) whose decision cost is the point of the
// depth-index engine. Names are fixed strings, not Policy.String(), so the
// benchmark identity survives policy-labeling changes and results stay
// comparable across them.
func rackPolicies() []struct {
	name string
	mk   func() Policy
} {
	return []struct {
		name string
		mk   func() Policy
	}{
		{"random", func() Policy { return Random{} }},
		{"rr", func() Policy { return &RoundRobin{} }},
		{"jsq2", func() Policy { return JSQ{D: 2} }},
		{"jsqfull", func() Policy { return JSQ{D: FullScan} }},
		{"bounded", func() Policy { return &BoundedLoad{Factor: 1.25} }},
	}
}

// BenchmarkPolicyPick measures the balancer's per-RPC decision cost alone,
// at the ROADMAP's 1000-node rack target: one Pick plus the index updates a
// dispatch and a completion cost on the live view. The churn keeps ~4
// outstanding RPCs per node — a realistic mid-load depth distribution shaped
// by the policy itself (each pick's node is dispatched; the pick from 4N
// iterations ago completes). ns/op therefore reads as ns per balancer
// decision at steady state.
func BenchmarkPolicyPick(b *testing.B) {
	const nodes = 1000
	for _, pc := range rackPolicies() {
		b.Run("policy="+pc.name+"/nodes=1000", func(b *testing.B) {
			tr := newTier(nil, nil, nodes, true)
			v := tr.index
			r := rng.New(1)
			pol := pc.mk()
			ring := make([]int, 4*nodes)
			for i := range ring {
				c := pol.Pick(v, r)
				tr.dispatched(c)
				ring[i] = c
			}
			pos := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := pol.Pick(v, r)
				tr.dispatched(c)
				tr.completed(ring[pos])
				ring[pos] = c
				pos++
				if pos == len(ring) {
					pos = 0
				}
			}
		})
	}
}
