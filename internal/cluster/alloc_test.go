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
			} else {
				t.Logf("steady-state allocations per request = %.5f", per)
			}
		})
	}
}

// TestClusterAllocsPerRequest pins the single-engine path: pooled request
// trackers plus the pooled machine path underneath. Each node's run log is
// presized to its share of the run's completions (nodeShare), so the
// measured marginal cost is 0.0012 allocations per request flat (four nodes
// plus the balancer) and 0.0007 two-tier (eight nodes in two racks). What
// is left follows the run's peaks, not its requests: a longer run reaches a
// higher peak in flight, so the request pools and queues grow a little
// further. The budgets are about 2–3× those figures: below the 0.0031 and
// 0.0039 these runs read when a node's log grew by append for the whole
// run, so losing the presize fails them, and far below the 1.0 of any real
// per-request allocation.
func TestClusterAllocsPerRequest(t *testing.T) {
	checkAllocBudgets(t, []allocCase{
		{"flat", func() Config { return baseConfig(4, JSQ{D: 2}, 0.6) }, 0.0025},
		{"two-tier", func() Config { return hierConfig(8, 2, JSQ{D: FullScan}, JSQ{D: 2}, 0.6) }, 0.002},
	})
}

// TestShardedAllocsPerRequest pins the sharded round loop: the pooled
// exchange and the round barrier allocate nothing per message or round.
// The measured marginal cost is 0.0007 allocations per request flat with
// two shards and 0.0011 two-tier, with node logs presized as on the serial
// path (0.0028 and 0.0043 with unsized logs); each budget sits between the
// two.
func TestShardedAllocsPerRequest(t *testing.T) {
	checkAllocBudgets(t, []allocCase{
		{"flat", func() Config {
			cfg := baseConfig(4, JSQ{D: 2}, 0.6)
			cfg.Shards = 2
			return cfg
		}, 0.002},
		{"two-tier", func() Config {
			cfg := hierConfig(8, 2, JSQ{D: FullScan}, JSQ{D: 2}, 0.6)
			cfg.Shards = 2
			return cfg
		}, 0.0025},
	})
}
