package metrics_test

import (
	"testing"

	"rpcvalet/internal/cluster"
	"rpcvalet/internal/machine"
	"rpcvalet/internal/metrics"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/workload"
)

// TestRunsSummarizeOnDemand: a machine run and a sharded two-tier cluster
// run whose callers never read a timeline summarize no epoch; reading one
// summarizes its epochs then. The test is not parallel, so no other test
// summarizes while it counts.
func TestRunsSummarizeOnDemand(t *testing.T) {
	node := machine.Config{Params: machine.Defaults(), Workload: workload.HERD()}
	mcfg := node
	mcfg.RateMRPS, mcfg.Warmup, mcfg.Measure, mcfg.Seed = 10, 300, 5000, 1

	ccfg := cluster.Config{
		Nodes:        4,
		Racks:        2,
		Shards:       2,
		Node:         node,
		Policy:       cluster.JSQ{D: 2},
		GlobalPolicy: cluster.JSQ{D: cluster.FullScan},
		RateMRPS:     20,
		Hop:          500 * sim.Nanosecond,
		GlobalHop:    500 * sim.Nanosecond,
		Warmup:       200,
		Measure:      3000,
		Seed:         1,
	}

	before := metrics.SummarizedEpochs()
	mres, err := machine.Run(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := cluster.Run(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := metrics.SummarizedEpochs() - before; n != 0 {
		t.Fatalf("runs nobody read the timelines of summarized %d epochs", n)
	}

	reads := []struct {
		name   string
		epochs func() int
	}{
		{"machine Timeline", func() int { return len(mres.Timeline().Epochs) }},
		{"cluster Timeline", func() int { return len(cres.Timeline().Epochs) }},
		{"cluster NodeTimelines", func() int {
			n := 0
			for _, tl := range cres.NodeTimelines() {
				n += len(tl.Epochs)
			}
			return n
		}},
	}
	for _, r := range reads {
		before := metrics.SummarizedEpochs()
		epochs := r.epochs()
		if n := metrics.SummarizedEpochs() - before; epochs == 0 || n != int64(epochs) {
			t.Errorf("%s: %d epochs, %d summarized", r.name, epochs, n)
		}
	}
}
