package cluster

import (
	"testing"
)

// marginalAllocsPerRequest isolates the steady-state per-request allocation
// cost from fixed setup by differencing two run lengths, exactly like the
// machine-level test (see internal/machine/alloc_test.go for the method).
func marginalAllocsPerRequest(t *testing.T, run func(measure int)) float64 {
	t.Helper()
	const base, big = 4000, 24000
	baseAllocs := testing.AllocsPerRun(2, func() { run(base) })
	bigAllocs := testing.AllocsPerRun(2, func() { run(big) })
	return (bigAllocs - baseAllocs) / float64(big-base)
}

// allocCase is one topology an alloc-budget test runs at two lengths.
type allocCase struct {
	name   string
	cfg    func() Config
	budget float64
}

func checkAllocBudgets(t *testing.T, cases []allocCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			per := marginalAllocsPerRequest(t, func(measure int) {
				cfg := c.cfg()
				cfg.Measure = measure
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
			if per > c.budget {
				t.Errorf("steady-state allocations per request = %.4f, budget %g", per, c.budget)
			}
		})
	}
}

// TestClusterAllocsPerRequest pins the single-engine path: pooled request
// trackers plus the pooled machine path underneath. The measured marginal
// cost is 0.0031 allocations per request flat (four nodes plus the balancer)
// and 0.0039 two-tier (eight nodes in two racks). What is left is the
// nodes' run logs growing with the run: a node inside a cluster cannot know
// its share of the completions, so its log is not presized. The budgets are
// about four times those figures, so any real per-request allocation reads
// far above them.
func TestClusterAllocsPerRequest(t *testing.T) {
	checkAllocBudgets(t, []allocCase{
		{"flat", func() Config { return baseConfig(4, JSQ{D: 2}, 0.6) }, 0.012},
		{"two-tier", func() Config { return hierConfig(8, 2, JSQ{D: FullScan}, JSQ{D: 2}, 0.6) }, 0.016},
	})
}

// TestShardedAllocsPerRequest pins the sharded round loop: the pooled
// exchange and the round barrier allocate nothing per message or round.
// The measured marginal cost is 0.0027 allocations per request flat with
// two shards and 0.0043 two-tier, the same node-log growth as the serial
// path; the budget is about four times the larger.
func TestShardedAllocsPerRequest(t *testing.T) {
	checkAllocBudgets(t, []allocCase{
		{"flat", func() Config {
			cfg := baseConfig(4, JSQ{D: 2}, 0.6)
			cfg.Shards = 2
			return cfg
		}, 0.018},
		{"two-tier", func() Config {
			cfg := hierConfig(8, 2, JSQ{D: FullScan}, JSQ{D: 2}, 0.6)
			cfg.Shards = 2
			return cfg
		}, 0.018},
	})
}
