package ni

import (
	"testing"

	"rpcvalet/internal/fifo"
)

// BenchmarkDispatch measures one NI dispatch decision per op for every
// built-in policy on a 16-core RPCValet group at threshold 2. The group
// holds 24 outstanding requests (1.5 per core) and an empty shared CQ, so
// several cores are available at each pick and the policy has a real
// choice: each op completes the oldest outstanding request and enqueues a
// new arrival, which dispatches at once. It mirrors
// cluster.BenchmarkPolicyPick one tier down. perfbench's ni.dispatch_ns
// times least-outstanding-rr alone, with every core at its threshold and a
// backlog, where each pick has one available core.
func BenchmarkDispatch(b *testing.B) {
	cores := make([]int, 16)
	for i := range cores {
		cores[i] = i
	}
	for _, name := range PolicyNames {
		b.Run("policy="+name+"/cores=16", func(b *testing.B) {
			spec, err := SpecByName(name)
			if err != nil {
				b.Fatal(err)
			}
			g := Group{Cores: cores, Row: 1, MeshWidth: 4, Seed: 7}
			d, err := NewDispatcher(cores, 2, spec.New(g))
			if err != nil {
				b.Fatal(err)
			}
			var busy fifo.Queue[int] // one entry per outstanding request, in dispatch order
			busy.Grow(64)
			enqueue := func(tag uint64) {
				if dsp, ok := d.Enqueue(Msg{Slot: int(tag % 6400), Size: 64, Tag: tag}); ok {
					busy.Push(dsp.Core)
				}
			}
			for i := range 24 {
				enqueue(uint64(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, _ := busy.Pop()
				if dsp, ok := d.Complete(c); ok {
					busy.Push(dsp.Core)
				}
				enqueue(uint64(i))
			}
		})
	}
}
