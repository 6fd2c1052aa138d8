package machine

import (
	"runtime"
	"testing"

	"rpcvalet/internal/sim"
	"rpcvalet/internal/workload"
)

// marginalAllocsPerRequest measures the steady-state allocation cost of one
// simulated request by differencing two run lengths: total allocations grow
// with Measure only through the per-request hot path, so
// (allocs(big) - allocs(base)) / (big - base) isolates it from the fixed
// setup cost (machine build, buffers, pre-sized queues) that dominates any
// absolute count. Pre-sizing from Config.Measure stays O(1) allocations per
// run — bigger runs allocate bigger slices, not more of them — so it cancels
// too.
func marginalAllocsPerRequest(t *testing.T, run func(measure int)) float64 {
	t.Helper()
	const base, big = 4000, 24000
	baseAllocs := testing.AllocsPerRun(2, func() { run(base) })
	bigAllocs := testing.AllocsPerRun(2, func() { run(big) })
	return (bigAllocs - baseAllocs) / float64(big-base)
}

// TestSteadyStateAllocsPerRequest pins the tentpole invariant: with tracing
// off, the per-request simulation path allocates nothing. The metrics
// recorder's run log is presized for Warmup+Measure and an epoch doubling
// copies no samples, so the measured marginal cost is at most 0.0001
// allocations per request on the hardware plans and 0.0005 on the
// software plan. The 0.002 budget is about four times the worst of them: a
// single closure, boxed value, or map insert per request would read ≥1.0,
// and so would a collector that regrows with the run.
//
// The flow-control-bound case runs TestSlotOwnershipConservation's machine,
// where arrivals park and cores stall on credits, at 0.1 MRPS: 0.00005. At
// that test's 0.2 MRPS the offered load sits just past what the credits
// carry (0.198 MRPS), so the parked backlog, each entry a live request,
// grows for the whole run and reads 0.007 per request whether the credits
// are events or deferred.
func TestSteadyStateAllocsPerRequest(t *testing.T) {
	herd := func(mode Mode) Config { return testConfig(mode, workload.HERD(), 5) }
	flowBound := flowBoundConfig(ModeSingleQueue)
	flowBound.RateMRPS = 0.1
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{ModeSingleQueue.String(), herd(ModeSingleQueue)},
		{ModePartitioned.String(), herd(ModePartitioned)},
		{ModeSoftware.String(), herd(ModeSoftware)},
		{"flow-control-bound", flowBound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			per := marginalAllocsPerRequest(t, func(measure int) {
				cfg := tc.cfg
				cfg.Warmup = 500
				cfg.Measure = measure
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
			if per > 0.002 {
				t.Errorf("steady-state allocations per request = %.4f, budget 0.002", per)
			} else {
				t.Logf("steady-state allocations per request = %.5f", per)
			}
		})
	}
}

// TestNodeSetupBytes pins the per-node construction footprint: the bytes one
// NewShared allocates under each well-known plan on Defaults(), which a
// 1000-node cluster pays a thousand times before simulating anything.
// Per-slot state is what the protocol needs: a valid bit per send slot,
// receive state for occupied slots only, and one uint16 per free slot. Of
// the ~26.3 KiB a 1x16 node measures:
//   - the flat N×S free-slot array: 12.8 KB (13.3 KB after size-class
//     rounding);
//   - the 200 send-buffer valid-bit words: 1.6 KB;
//   - the 200 per-source ring heads and lengths: 1.2 KB;
//   - the credit lists, presized to 24 replenishes and 48 reply credits:
//     1.7 KB;
//   - the deferred-notice list, one slot per core: 384 bytes;
//   - the folded-start list, one slot per core: 384 bytes;
//   - the rest, about 7 KB: the Machine itself, 16 cores with their CQs,
//     the RNG batches, the dispatchers, the metrics recorder and the
//     receive table's first 16 entries.
//
// The other plans differ in their dispatchers and CQs: 4x4 and 16x1 build
// four and sixteen dispatchers, and no CQ is presized past a real
// threshold, so a 16x1 core's unlimited CQ starts empty rather than at N×S
// (927 KiB a node when it was presized), and a 16x1 core's notice list is
// presized to 8 slots (3 KB a node). The parking queues are not built
// until a node first parks. Each budget is 1.2–1.3× its measured figure.
func TestNodeSetupBytes(t *testing.T) {
	const builds = 8
	for _, tc := range []struct {
		plan   string
		budget uint64
	}{
		{"1x16", 32 << 10},
		{"4x4", 34 << 10},
		{"16x1", 46 << 10},
		{"jbsq2", 32 << 10},
		{"sw", 30 << 10},
	} {
		t.Run(tc.plan, func(t *testing.T) {
			pl, err := ParsePlan(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Params: Defaults(), Workload: workload.HERD(), Seed: 1}
			cfg.Params.Plan = pl
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			for range builds {
				if _, err := NewShared(cfg, sim.New()); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&ms1)
			if per := (ms1.TotalAlloc - ms0.TotalAlloc) / builds; per > tc.budget {
				t.Errorf("setup allocates %d bytes per node, budget %d KiB", per, tc.budget>>10)
			} else {
				t.Logf("setup allocates %d bytes per node", per)
			}
		})
	}
}

// TestEventsPerCompletion pins the engine events one completed request costs
// on a node, at low load where few requests are in flight when the run
// stops. On a hardware plan six stages could be events:
//  1. selfArrival: the open-loop generator injects the request;
//  2. arrived: the backend has written the packets and the memory write has
//     landed (the backend's own completion is folded into it, DESIGN.md §9);
//  3. routeWire: the completion token reaches its dispatcher tile;
//  4. routeSubmit: the dispatch stage has cycled the token;
//  5. delivered: the dispatch lands in the core's private CQ;
//  6. finish: the handler has run and the reply and replenish are posted.
//
// 4 and 5 are events only while contended (DESIGN.md §9, folding): a token
// finding its dispatch stage idle and its CQ empty is enqueued in routeWire,
// and a dispatch to a core with nothing else outstanding starts the core
// where it is made. So a request costs four events, plus the few in a
// hundred stages that meet contention; a 16x1 core's dispatcher sees more of
// it, since its one core often has a request outstanding.
//
// The reply's send-slot credit and the sender's receive-slot replenish are
// deferred credits, not events (DESIGN.md §9): they settle when a slot
// table is next read, and fire only as wake events for a source with
// requests waiting on them, which this load never has. The core's
// completion notice to its dispatcher is deferred the same way: it becomes
// its notifyWire and notifyDone events only while its dispatcher is
// contended, a few in a thousand here. The software plan has no
// dispatcher: 3–5 give way to swEnqueue (the NI appends to the shared
// queue) and lockDone (a core's dequeue critical section ends), five in
// all.
func TestEventsPerCompletion(t *testing.T) {
	for _, tc := range []struct {
		mode Mode
		want float64
	}{
		{ModeSingleQueue, 4.01},
		{ModeGrouped, 4.00},
		{ModePartitioned, 4.07},
		{ModeSoftware, 5},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			cfg := testConfig(tc.mode, workload.HERD(), 2)
			cfg.Warmup = 500
			cfg.Measure = 4000
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if m.blockedArrivals+m.replyStalls != 0 {
				t.Fatalf("%d blocked arrivals, %d reply stalls: want a load that never waits on a credit",
					m.blockedArrivals, m.replyStalls)
			}
			per := float64(m.eng.Fired()) / float64(m.completed)
			if per < tc.want-0.01 || per > tc.want+0.01 {
				t.Errorf("%d events for %d completions = %.4f per completion, want %v ± 0.01",
					m.eng.Fired(), m.completed, per, tc.want)
			} else {
				t.Logf("%.4f events per completion", per)
			}
		})
	}
}
