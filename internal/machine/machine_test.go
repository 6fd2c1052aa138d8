package machine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"rpcvalet/internal/arrival"
	"rpcvalet/internal/ni"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/sonuma"
	"rpcvalet/internal/trace"
	"rpcvalet/internal/workload"
)

// testConfig returns a fast-running configuration for unit tests.
func testConfig(mode Mode, wl workload.Profile, rate float64) Config {
	p := Defaults()
	p.Mode = mode
	return Config{
		Params:   p,
		Workload: wl,
		RateMRPS: rate,
		Warmup:   2000,
		Measure:  20000,
		Seed:     1,
	}
}

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	good := testConfig(ModeSingleQueue, workload.HERD(), 5)
	mutations := map[string]func(*Config){
		"zeroRate":    func(c *Config) { c.RateMRPS = 0 },
		"zeroMeasure": func(c *Config) { c.Measure = 0 },
		"negWarmup":   func(c *Config) { c.Warmup = -1 },
		"badCores":    func(c *Config) { c.Params.Cores = 0 },
		"badBackends": func(c *Config) { c.Params.Backends = 0 },
		"unevenSplit": func(c *Config) { c.Params.Backends = 3 },
		"badThresh":   func(c *Config) { c.Params.Threshold = 0 },
		"smallMesh":   func(c *Config) { c.Params.Cores = 32 },
		"badMode":     func(c *Config) { c.Params.Mode = Mode(99) },
		"mtuMismatch": func(c *Config) { c.Params.Domain.MTU = 32 },
		"badDomain":   func(c *Config) { c.Params.Domain.Nodes = 0 },
		"badWorkload": func(c *Config) { c.Workload.Classes = nil },
	}
	for name, mutate := range mutations {
		cfg := good
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

// TestNewRejectsOversizedDomain: a domain whose per-pair slot numbers
// overflow 16 bits, or whose N×S receive-slot indices overflow int32, would
// wrap the machine's narrowed slot tables; New and NewShared refuse it with
// the soNUMA domain's own error, surfaced through Params.Validate.
func TestNewRejectsOversizedDomain(t *testing.T) {
	for name, mutate := range map[string]func(*sonuma.DomainConfig){
		"slotsOver16Bit": func(d *sonuma.DomainConfig) { d.Slots = 1<<16 + 1 },
		"totalOverInt32": func(d *sonuma.DomainConfig) { d.Nodes, d.Slots = math.MaxInt32/1024+1, 1024 },
	} {
		cfg := testConfig(ModeSingleQueue, workload.HERD(), 5)
		mutate(&cfg.Params.Domain)
		want := cfg.Params.Domain.Validate()
		if want == nil {
			t.Fatalf("%s: domain %+v accepted", name, cfg.Params.Domain)
		}
		if err := cfg.Params.Validate(); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: Params.Validate() = %v, want %v", name, err, want)
		}
		if _, err := New(cfg); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: New() = %v, want %v", name, err, want)
		}
		if _, err := NewShared(cfg, sim.New()); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: NewShared() = %v, want %v", name, err, want)
		}
	}
}

func TestModeStrings(t *testing.T) {
	names := map[Mode]string{
		ModeSingleQueue: "rpcvalet-1x16",
		ModeGrouped:     "grouped-4x4",
		ModePartitioned: "partitioned-16x1",
		ModeSoftware:    "software-1x16",
		Mode(42):        "mode(42)",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

// TestAllModesSmoke runs every mode at moderate load and checks basic sanity.
func TestAllModesSmoke(t *testing.T) {
	for _, mode := range []Mode{ModeSingleQueue, ModeGrouped, ModePartitioned, ModeSoftware} {
		res := mustRun(t, testConfig(mode, workload.HERD(), 5))
		if res.Latency.Count == 0 {
			t.Fatalf("%v: no latency samples", mode)
		}
		if res.Latency.P99 < res.Latency.P50 || res.Latency.P50 < res.Latency.Min {
			t.Fatalf("%v: percentile ordering broken: %+v", mode, res.Latency)
		}
		if res.Latency.Min <= 0 {
			t.Fatalf("%v: non-positive latency", mode)
		}
		// Offered 5 MRPS is far below saturation; throughput must track it.
		if math.Abs(res.ThroughputMRPS-5)/5 > 0.05 {
			t.Fatalf("%v: throughput %.2f, offered 5", mode, res.ThroughputMRPS)
		}
		if res.TimedOut {
			t.Fatalf("%v: unexpected timeout", mode)
		}
		if res.Completed != 22000 {
			t.Fatalf("%v: completed %d, want 22000", mode, res.Completed)
		}
	}
}

// TestServiceTimeCalibration checks the §6.1 anchor: HERD's measured S̄ must
// land near 550 ns (330 ns handler + ≈200 ns microbenchmark overhead).
func TestServiceTimeCalibration(t *testing.T) {
	res := mustRun(t, testConfig(ModeSingleQueue, workload.HERD(), 5))
	if res.ServiceMeanNanos < 500 || res.ServiceMeanNanos > 600 {
		t.Fatalf("HERD S̄ = %.0fns, want ~530-550", res.ServiceMeanNanos)
	}
	// SLO is 10× S̄.
	if math.Abs(res.SLONanos-10*res.ServiceMeanNanos) > 1 {
		t.Fatalf("SLO %.0f != 10×S̄ %.0f", res.SLONanos, res.ServiceMeanNanos)
	}
}

// TestLatencyLowerBound: end-to-end latency can never be below the fixed
// per-request core costs plus the minimum handler time.
func TestLatencyLowerBound(t *testing.T) {
	res := mustRun(t, testConfig(ModeSingleQueue, workload.SyntheticFixed(), 2))
	floor := CoreOverheadNanos + 600 // fixed 600ns handler
	if res.Latency.Min < floor {
		t.Fatalf("min latency %.0f below physical floor %.0f", res.Latency.Min, floor)
	}
}

// TestSingleQueueBeatsPartitioned is the paper's headline comparison at a
// load where imbalance hurts: 1×16 must show a materially lower p99 than
// 16×1 under the heavy-tailed GEV workload.
func TestSingleQueueBeatsPartitioned(t *testing.T) {
	const rate = 12 // ~60% of saturation for the synthetic profiles
	sq := mustRun(t, testConfig(ModeSingleQueue, workload.SyntheticGEV(), rate))
	pt := mustRun(t, testConfig(ModePartitioned, workload.SyntheticGEV(), rate))
	if !(sq.Latency.P99 < pt.Latency.P99*0.8) {
		t.Fatalf("1x16 p99 %.0f not clearly below 16x1 p99 %.0f", sq.Latency.P99, pt.Latency.P99)
	}
}

// TestGroupedBetween: 4×4 falls between 1×16 and 16×1.
func TestGroupedBetween(t *testing.T) {
	const rate = 12
	sq := mustRun(t, testConfig(ModeSingleQueue, workload.SyntheticGEV(), rate))
	gr := mustRun(t, testConfig(ModeGrouped, workload.SyntheticGEV(), rate))
	pt := mustRun(t, testConfig(ModePartitioned, workload.SyntheticGEV(), rate))
	if !(sq.Latency.P99 <= gr.Latency.P99*1.05 && gr.Latency.P99 <= pt.Latency.P99*1.05) {
		t.Fatalf("ordering violated: 1x16=%.0f 4x4=%.0f 16x1=%.0f",
			sq.Latency.P99, gr.Latency.P99, pt.Latency.P99)
	}
}

// TestSoftwareSaturatesEarly: at a rate the hardware single queue absorbs
// easily, the MCS-locked software queue must already be past saturation
// (its lock serializes dequeues at ≈190ns → ≈5.3 MRPS capacity).
func TestSoftwareSaturatesEarly(t *testing.T) {
	cfg := testConfig(ModeSoftware, workload.SyntheticFixed(), 8)
	cfg.MaxSimTime = 50 * sim.Millisecond
	sw := mustRun(t, cfg)
	hw := mustRun(t, testConfig(ModeSingleQueue, workload.SyntheticFixed(), 8))
	if hw.Latency.P99 > hw.SLONanos {
		t.Fatalf("hardware should meet SLO at 8 MRPS: p99=%.0f slo=%.0f", hw.Latency.P99, hw.SLONanos)
	}
	if sw.ThroughputMRPS > 6.5 {
		t.Fatalf("software throughput %.2f MRPS exceeds lock-bound capacity", sw.ThroughputMRPS)
	}
}

// TestSoftwareCompetitiveAtLowLoad (§6.2): at low load the software
// implementation's latency is close to hardware's.
func TestSoftwareCompetitiveAtLowLoad(t *testing.T) {
	sw := mustRun(t, testConfig(ModeSoftware, workload.SyntheticFixed(), 1))
	hw := mustRun(t, testConfig(ModeSingleQueue, workload.SyntheticFixed(), 1))
	// The software tail carries occasional lock-contention bursts even at
	// low load (two Poisson arrivals inside one lock-hold window), so
	// "competitive" means within ~1.5×, not equal.
	if sw.Latency.P99 > hw.Latency.P99*1.5 {
		t.Fatalf("software p99 %.0f not competitive with hardware %.0f at low load",
			sw.Latency.P99, hw.Latency.P99)
	}
	if sw.Latency.P50 > hw.Latency.P50*1.25 {
		t.Fatalf("software median %.0f should be close to hardware %.0f at low load",
			sw.Latency.P50, hw.Latency.P50)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testConfig(ModeSingleQueue, workload.SyntheticGEV(), 10)
	cfg.Measure = 8000
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if a.Latency != b.Latency || a.ThroughputMRPS != b.ThroughputMRPS {
		t.Fatal("identical seeds differ")
	}
	cfg.Seed = 99
	c := mustRun(t, cfg)
	if a.Latency == c.Latency {
		t.Fatal("different seeds identical")
	}
}

// TestMasstreeClassSeparation: scans must be excluded from the measured
// latency but still occupy cores (pushing get tails up), and the reported
// SLO must be the absolute 12.5µs.
func TestMasstreeClassSeparation(t *testing.T) {
	cfg := testConfig(ModeSingleQueue, workload.Masstree(), 2)
	res := mustRun(t, cfg)
	if res.SLONanos != 12500 {
		t.Fatalf("SLO = %v", res.SLONanos)
	}
	get, ok := res.ClassLatency["get"]
	if !ok || get.Count == 0 {
		t.Fatal("no get latencies")
	}
	scan, ok := res.ClassLatency["scan"]
	if !ok || scan.Count == 0 {
		t.Fatal("no scan latencies")
	}
	if scan.Min < 60000 {
		t.Fatalf("scan min %.0f below 60µs", scan.Min)
	}
	// The top-level latency summary covers only gets.
	if res.Latency.Count != get.Count {
		t.Fatalf("measured count %d != get count %d", res.Latency.Count, get.Count)
	}
	// Scan interference: get p99 well above isolated get latency.
	if res.Latency.P99 < 2000 {
		t.Fatalf("get p99 %.0f suspiciously low given scan interference", res.Latency.P99)
	}
}

// TestPromotedNoticeSettlesFirst pins a run in which a notice that is an
// event (notifyWire) reaches the dispatch stage while a deferred notice that
// arrived before it is still unsettled: jbsq1 under HERD at 0.9 of
// capacity, seed 13. notifyWire must put the deferred notice on the stage
// first; otherwise the stage's busy horizon slips a cycle and a few
// requests' latencies with it. The pins were produced while every notice
// was an event.
func TestPromotedNoticeSettlesFirst(t *testing.T) {
	pl, err := ParsePlan("jbsq1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(ModeSingleQueue, workload.HERD(), 0)
	cfg.Params.Plan = pl
	cfg.RateMRPS = 0.9 * CapacityMRPS(cfg.Params, cfg.Workload)
	cfg.Warmup, cfg.Measure, cfg.Seed = 500, 20000, 13
	res := mustRun(t, cfg)
	for _, c := range []struct {
		name string
		got  float64
		want string
	}{
		{"latency mean", res.Latency.Mean, "821.47005974999922"},
		{"wait mean", res.Wait.Mean, "289.85047399999956"},
	} {
		if s := fmt.Sprintf("%.17g", c.got); s != c.want {
			t.Errorf("%s = %s, pinned %s", c.name, s, c.want)
		}
	}
}

// TestClassLatencyMatchesRecorder: a Result's per-class summary equals the
// recorder's selection of that class exactly, also where it reuses the
// headline summary (one measured class: HERD, Masstree's gets) instead of
// selecting again.
func TestClassLatencyMatchesRecorder(t *testing.T) {
	scansToo := workload.Masstree()
	scansToo.Classes = append([]workload.Class(nil), scansToo.Classes...)
	scansToo.Classes[1].Measured = true
	for _, wl := range []workload.Profile{workload.HERD(), workload.Masstree(), scansToo} {
		cfg := testConfig(ModeSingleQueue, wl, 2)
		cfg.Warmup, cfg.Measure = 200, 3000
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i, cl := range wl.Classes {
			if got, want := res.ClassLatency[cl.Name], m.rec.Class(i); got != want {
				t.Errorf("%s class %s: ClassLatency %+v, recorder %+v", wl.Name, cl.Name, got, want)
			}
		}
	}
}

// TestFlowControlBackpressure: with a tiny messaging domain the traffic
// generator must park arrivals instead of overflowing slots, and the run
// still completes with conservation intact.
func TestFlowControlBackpressure(t *testing.T) {
	cfg := testConfig(ModeSingleQueue, workload.SyntheticFixed(), 18)
	cfg.Params.Domain.Nodes = 4
	cfg.Params.Domain.Slots = 2
	cfg.Warmup, cfg.Measure = 500, 5000
	res := mustRun(t, cfg)
	if res.BlockedArrivals == 0 {
		t.Fatal("expected blocked arrivals under a tiny domain at overload")
	}
	if res.Completed != 5500 {
		t.Fatalf("completed %d", res.Completed)
	}
}

// TestReplyCreditStall: with one slot per pair and a long credit RTT, cores
// must stall on reply credits; the run still finishes.
func TestReplyCreditStall(t *testing.T) {
	cfg := testConfig(ModeSingleQueue, workload.SyntheticFixed(), 15)
	cfg.Params.Domain.Nodes = 2
	cfg.Params.Domain.Slots = 1
	cfg.Params.NetRTT = sim.FromMicros(20)
	cfg.Warmup, cfg.Measure = 100, 2000
	res := mustRun(t, cfg)
	if res.ReplyStalls == 0 {
		t.Fatal("expected reply-credit stalls")
	}
}

// TestRendezvousDelivery: oversized requests take the descriptor + one-sided
// read path, adding roughly a network round trip to their latency.
func TestRendezvousDelivery(t *testing.T) {
	big := workload.SyntheticFixed()
	big.RequestBytes = 4096 // > MaxMsgSize 2048 → rendezvous
	inline := workload.SyntheticFixed()

	cfgBig := testConfig(ModeSingleQueue, big, 2)
	cfgBig.Warmup, cfgBig.Measure = 500, 5000
	cfgIn := testConfig(ModeSingleQueue, inline, 2)
	cfgIn.Warmup, cfgIn.Measure = 500, 5000

	rb := mustRun(t, cfgBig)
	ri := mustRun(t, cfgIn)
	extra := rb.Latency.P50 - ri.Latency.P50
	rtt := Defaults().NetRTT.Nanos()
	if extra < rtt*0.9 {
		t.Fatalf("rendezvous added %.0fns, want >= ~%.0fns (one RTT)", extra, rtt)
	}
}

// TestThresholdAblation (§4.3, §6.1): threshold 2 eliminates the dispatch
// round-trip bubble, so at saturation it must not be slower than threshold 1
// and should shave the mean latency.
func TestThresholdAblation(t *testing.T) {
	mk := func(k int) Result {
		cfg := testConfig(ModeSingleQueue, workload.HERD(), 25)
		cfg.Params.Threshold = k
		cfg.MaxSimTime = 100 * sim.Millisecond
		return mustRun(t, cfg)
	}
	k1, k2 := mk(1), mk(2)
	if k2.ThroughputMRPS < k1.ThroughputMRPS*0.995 {
		t.Fatalf("threshold 2 throughput %.3f below threshold 1 %.3f",
			k2.ThroughputMRPS, k1.ThroughputMRPS)
	}
}

// TestRSSByFlowSkew: hashing 200 flows onto 16 cores creates static load
// skew, so per-flow RSS must not beat the uniform per-message split.
func TestRSSByFlowSkew(t *testing.T) {
	mk := func(byFlow bool) Result {
		cfg := testConfig(ModePartitioned, workload.SyntheticExp(), 12)
		cfg.Params.RSSByFlow = byFlow
		return mustRun(t, cfg)
	}
	flow, uniform := mk(true), mk(false)
	if flow.Latency.P99 < uniform.Latency.P99*0.9 {
		t.Fatalf("per-flow RSS p99 %.0f unexpectedly beats uniform %.0f",
			flow.Latency.P99, uniform.Latency.P99)
	}
}

func TestTimeout(t *testing.T) {
	cfg := testConfig(ModeSingleQueue, workload.SyntheticFixed(), 0.001)
	cfg.MaxSimTime = sim.FromMicros(100) // far too short for any completion
	res := mustRun(t, cfg)
	if !res.TimedOut {
		t.Fatal("expected timeout")
	}
	if res.MeetsSLO {
		t.Fatal("timed-out run cannot meet SLO")
	}
}

func TestUtilizationTracksLoad(t *testing.T) {
	// Fixed 600ns handler + ~200ns overhead = ~800ns occupancy; at 10 MRPS
	// over 16 cores utilization should be ~0.5.
	res := mustRun(t, testConfig(ModeSingleQueue, workload.SyntheticFixed(), 10))
	var sum float64
	for _, u := range res.CoreUtilization {
		sum += u
	}
	avg := sum / float64(len(res.CoreUtilization))
	if avg < 0.42 || avg > 0.58 {
		t.Fatalf("avg core utilization %.3f, want ~0.5", avg)
	}
	for _, u := range res.BackendUtilization {
		if u < 0 || u > 1 {
			t.Fatalf("backend utilization %v out of range", u)
		}
	}
}

// TestUtilizationAtMostOne: a run that stops on its only completion leaves
// other cores mid-span. Each core's busy fraction counts its spans only up
// to the stop, so none exceeds 1 (core 8 read 2.357 when a span counted
// whole).
func TestUtilizationAtMostOne(t *testing.T) {
	cfg := testConfig(ModeSingleQueue, workload.Masstree(), 5)
	cfg.Warmup, cfg.Measure = 0, 1
	res := mustRun(t, cfg)
	for i, u := range res.CoreUtilization {
		if u < 0 || u > 1 {
			t.Errorf("core %d utilization %.4f, want within [0, 1]", i, u)
		}
	}
}

// TestUtilizationCutsAtNow: one request injected at 0 on an idle node
// starts on one core at the instant s its CQE lands and runs 600 ns. Read
// at 100 ns, that core has been busy 100 ns − s and the other 15 not at
// all, so the mean busy fraction is (100 ns − s) / 100 ns / 16.
func TestUtilizationCutsAtNow(t *testing.T) {
	eng := sim.New()
	var start sim.Time = -1
	cfg := Config{Params: Defaults(), Workload: workload.SyntheticFixed(), Seed: 1}
	cfg.Trace = trace.Func(func(e trace.Event) {
		if e.Phase == trace.PhaseStart {
			start = e.At
		}
	})
	m, err := NewShared(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	injectAt(eng, m, 0, 1)
	const now = 100 * sim.Time(sim.Nanosecond)
	eng.RunUntil(now)
	if start < 0 || start >= now {
		t.Fatalf("request started at %v, want within [0, %v)", start, now)
	}
	want := float64(now-start) / float64(now) / 16
	if got := m.MeanCoreUtilization(); got != want {
		t.Fatalf("mean core utilization %v, want %v (one core busy since %v)", got, want, start)
	}
}

// TestBalancedUtilization: the 1×16 dispatcher must spread load evenly —
// no core should sit far from the mean.
func TestBalancedUtilization(t *testing.T) {
	res := mustRun(t, testConfig(ModeSingleQueue, workload.SyntheticExp(), 10))
	var sum float64
	for _, u := range res.CoreUtilization {
		sum += u
	}
	avg := sum / float64(len(res.CoreUtilization))
	for i, u := range res.CoreUtilization {
		if math.Abs(u-avg)/avg > 0.1 {
			t.Fatalf("core %d utilization %.3f deviates from mean %.3f", i, u, avg)
		}
	}
}

func TestResultString(t *testing.T) {
	res := mustRun(t, testConfig(ModeSingleQueue, workload.HERD(), 2))
	if res.String() == "" {
		t.Fatal("empty result string")
	}
}

// TestSaturationThroughputCap: offered load beyond capacity must be clipped
// at roughly 16 cores / S̄ regardless of mode (for the hardware modes).
func TestSaturationThroughputCap(t *testing.T) {
	cfg := testConfig(ModeSingleQueue, workload.SyntheticFixed(), 40) // >> capacity
	cfg.MaxSimTime = 100 * sim.Millisecond
	res := mustRun(t, cfg)
	capacity := 16.0 / (res.ServiceMeanNanos / 1000) // MRPS
	if res.ThroughputMRPS > capacity*1.02 {
		t.Fatalf("throughput %.2f exceeds physical capacity %.2f", res.ThroughputMRPS, capacity)
	}
	if res.ThroughputMRPS < capacity*0.93 {
		t.Fatalf("throughput %.2f far below capacity %.2f at overload", res.ThroughputMRPS, capacity)
	}
}

// TestWaitDecomposition: the reported Wait is the pre-service component of
// latency — near the NI pipeline floor at low load, growing as queueing
// appears, and always bounded by total latency minus service.
func TestWaitDecomposition(t *testing.T) {
	low := mustRun(t, testConfig(ModeSingleQueue, workload.SyntheticFixed(), 2))
	high := mustRun(t, testConfig(ModeSingleQueue, workload.SyntheticFixed(), 18))
	if low.Wait.Count == 0 {
		t.Fatal("no wait samples")
	}
	// At 10% load, dispatch is the only delay: tens of ns.
	if low.Wait.P50 > 100 {
		t.Fatalf("low-load median wait %.0fns, want < 100ns", low.Wait.P50)
	}
	// At ~90% load, queueing dominates the wait.
	if high.Wait.P99 < low.Wait.P99*2 {
		t.Fatalf("wait did not grow with load: %.0f -> %.0f", low.Wait.P99, high.Wait.P99)
	}
	// Wait + minimum service cannot exceed measured latency means.
	if low.Wait.Mean > low.Latency.Mean {
		t.Fatalf("mean wait %.0f exceeds mean latency %.0f", low.Wait.Mean, low.Latency.Mean)
	}
}

// TestSingleCoreMachine: the model degenerates cleanly to one core and one
// backend (an M/G/1-like system).
func TestSingleCoreMachine(t *testing.T) {
	cfg := testConfig(ModeSingleQueue, workload.SyntheticFixed(), 0.6)
	cfg.Params.Cores = 1
	cfg.Params.Backends = 1
	cfg.Warmup, cfg.Measure = 500, 5000
	res := mustRun(t, cfg)
	if res.Latency.Count == 0 || res.TimedOut {
		t.Fatalf("single-core run failed: %+v", res)
	}
	if len(res.CoreUtilization) != 1 {
		t.Fatalf("utilization entries = %d", len(res.CoreUtilization))
	}
	// Offered 0.6 MRPS × ~0.8µs ≈ 48% utilization.
	if res.CoreUtilization[0] < 0.35 || res.CoreUtilization[0] > 0.6 {
		t.Fatalf("utilization = %v", res.CoreUtilization[0])
	}
}

// TestEightBackends: more backends than the default still wire correctly in
// every hardware mode.
func TestEightBackends(t *testing.T) {
	for _, mode := range []Mode{ModeSingleQueue, ModeGrouped, ModePartitioned} {
		cfg := testConfig(mode, workload.HERD(), 5)
		cfg.Params.Backends = 8
		cfg.Warmup, cfg.Measure = 300, 3000
		res := mustRun(t, cfg)
		if len(res.BackendUtilization) != 8 {
			t.Fatalf("%v: backend count %d", mode, len(res.BackendUtilization))
		}
	}
}

// TestCustomPolicyInjection: a caller-supplied policy is honored.
func TestCustomPolicyInjection(t *testing.T) {
	cfg := testConfig(ModeSingleQueue, workload.HERD(), 3)
	cfg.Params.Plan = &Plan{Groups: 1, Policy: mustSpec("first-available")}
	cfg.Warmup, cfg.Measure = 300, 3000
	res := mustRun(t, cfg)
	// First-available concentrates work: core 0 must be the busiest.
	max := 0
	for i, u := range res.CoreUtilization {
		if u > res.CoreUtilization[max] {
			max = i
		}
	}
	if max != 0 {
		t.Fatalf("busiest core = %d, want 0 under first-available", max)
	}
}

// TestDeliverRejectsUnknownRequest: a dispatch's Tag is the request's slab
// ref, and deliver must refuse a Tag outside the slab or naming a request
// that does not hold the message's receive slot, while accepting a request
// at its own slot.
func TestDeliverRejectsUnknownRequest(t *testing.T) {
	cfg := testConfig(ModeSingleQueue, workload.HERD(), 5)
	cfg.Warmup, cfg.Measure = 0, 200
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var held *request
	for _, req := range m.reqs {
		if req.slot >= 0 {
			held = req
			break
		}
	}
	if held == nil {
		t.Fatal("no admitted request left when the run stopped")
	}
	m.deliver(ni.Dispatch{Msg: ni.Msg{Slot: held.slot, Tag: uint64(held.ref)}}, m.eng.Now())

	for _, tc := range []struct {
		name string
		msg  ni.Msg
	}{
		{"tag past the slab", ni.Msg{Slot: held.slot, Tag: uint64(len(m.reqs))}},
		{"tag at the top of uint64", ni.Msg{Slot: held.slot, Tag: math.MaxUint64}},
		{"request not holding the slot", ni.Msg{Slot: held.slot + 1, Tag: uint64(held.ref)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "dispatch of unknown request") {
					t.Fatalf("deliver(%+v) panicked with %q, want a dispatch of unknown request", tc.msg, msg)
				}
			}()
			m.deliver(ni.Dispatch{Msg: tc.msg}, m.eng.Now())
		})
	}
}

// TestTraceLifecycle: with a tracer attached, every completed request must
// show the four milestones in causal order on a consistent core.
func TestTraceLifecycle(t *testing.T) {
	byReq := map[uint64][]trace.Event{}
	cfg := testConfig(ModeSingleQueue, workload.HERD(), 5)
	cfg.Warmup, cfg.Measure = 100, 1000
	cfg.Trace = trace.Func(func(e trace.Event) { byReq[e.ReqID] = append(byReq[e.ReqID], e) })
	mustRun(t, cfg)

	complete := 0
	for id, evs := range byReq {
		var arrive, dispatch, start, done *trace.Event
		for i := range evs {
			e := &evs[i]
			switch e.Phase {
			case trace.PhaseArrive:
				arrive = e
			case trace.PhaseDispatch:
				dispatch = e
			case trace.PhaseStart:
				start = e
			case trace.PhaseComplete:
				done = e
			}
		}
		if done == nil {
			continue // still in flight when the run stopped
		}
		complete++
		if arrive == nil || dispatch == nil || start == nil {
			t.Fatalf("req %d completed without full lifecycle: %v", id, evs)
		}
		if !(arrive.At <= dispatch.At && dispatch.At <= start.At && start.At < done.At) {
			t.Fatalf("req %d milestones out of order: %v", id, evs)
		}
		if dispatch.Core != start.Core || start.Core != done.Core {
			t.Fatalf("req %d changed cores mid-flight: %v", id, evs)
		}
		if arrive.Core != -1 {
			t.Fatalf("req %d arrival already bound to core %d", id, arrive.Core)
		}
	}
	if complete < 1000 {
		t.Fatalf("only %d complete lifecycles traced", complete)
	}
}

// TestTraceSoftwareMode: the software path emits the same milestones.
func TestTraceSoftwareMode(t *testing.T) {
	phases := map[trace.Phase]int{}
	cfg := testConfig(ModeSoftware, workload.SyntheticFixed(), 3)
	cfg.Warmup, cfg.Measure = 50, 500
	cfg.Trace = trace.Func(func(e trace.Event) { phases[e.Phase]++ })
	mustRun(t, cfg)
	for _, ph := range []trace.Phase{trace.PhaseArrive, trace.PhaseDispatch, trace.PhaseStart, trace.PhaseComplete} {
		if phases[ph] == 0 {
			t.Fatalf("software mode emitted no %v events", ph)
		}
	}
}

// TestArrivalKindsDeterministic: every built-in arrival process must yield
// identical results across runs of the same configuration, and actually
// change the traffic (a non-Poisson process differs from the default).
func TestArrivalKindsDeterministic(t *testing.T) {
	base := testConfig(ModeSingleQueue, workload.HERD(), 10)
	base.Warmup, base.Measure = 500, 6000
	def := mustRun(t, base)
	for _, kind := range arrival.Names {
		arr, err := arrival.ByName(kind, base.RateMRPS)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Arrival = arr
		a := mustRun(t, cfg)
		b := mustRun(t, cfg)
		if a.Latency != b.Latency || a.ThroughputMRPS != b.ThroughputMRPS {
			t.Fatalf("%s: identical configs differ", kind)
		}
		if kind != "poisson" && a.Latency == def.Latency {
			t.Fatalf("%s: produced the exact Poisson result — process not wired in", kind)
		}
		if kind == "poisson" && a.Latency != def.Latency {
			t.Fatal("explicit poisson differs from nil default")
		}
	}
}

// TestArrivalRerating: a process built at the wrong rate is re-rated to the
// config's RateMRPS, so throughput tracks the config, not the constructor.
func TestArrivalRerating(t *testing.T) {
	cfg := testConfig(ModeSingleQueue, workload.HERD(), 10)
	cfg.Warmup, cfg.Measure = 500, 6000
	cfg.Arrival = arrival.DeterministicAtMRPS(1) // 10× too slow; must be re-rated
	res := mustRun(t, cfg)
	if math.Abs(res.ThroughputMRPS-10)/10 > 0.05 {
		t.Fatalf("throughput %v MRPS, want ~10 (re-rated)", res.ThroughputMRPS)
	}
}

// TestArrivalWithoutRate: Arrival set and RateMRPS zero uses the process
// exactly as constructed.
func TestArrivalWithoutRate(t *testing.T) {
	cfg := testConfig(ModeSingleQueue, workload.HERD(), 0)
	cfg.Warmup, cfg.Measure = 500, 6000
	cfg.Arrival = arrival.DeterministicAtMRPS(8)
	res := mustRun(t, cfg)
	if math.Abs(res.ThroughputMRPS-8)/8 > 0.05 {
		t.Fatalf("throughput %v MRPS, want ~8", res.ThroughputMRPS)
	}
}

// TestNoticeBehindBackloggedStage: a completion notice posted while route
// tokens queue on the dispatch stage, arriving before the latest of them
// leaves it, is an event from the start (notify's routeEnd test), even with
// the CQ empty. Here one request occupies core 0, then a burst of 32 from
// one source spreads over the four backends, whose tokens pile up on the
// stage; core 0 finishes while they wait, and a token leaving after the
// notice arrives finds every core at its threshold. Deferred instead, the notice would be
// promoted only then, after its key had passed, which panics, or settled
// ahead of picks that must not see it. The pins were produced while every
// notice was an event.
func TestNoticeBehindBackloggedStage(t *testing.T) {
	cfg := Config{Params: Defaults(), Workload: workload.SyntheticFixed(), Seed: 1}
	cfg.Params.Domain.Nodes, cfg.Params.Domain.Slots = 1, 64
	var waitSum sim.Duration
	started := 0
	arrive := map[uint64]sim.Time{}
	cfg.Trace = trace.Func(func(e trace.Event) {
		switch e.Phase {
		case trace.PhaseArrive:
			arrive[e.ReqID] = e.At
		case trace.PhaseStart:
			waitSum += e.At.Sub(arrive[e.ReqID])
			started++
		}
	})
	eng := sim.New()
	m, err := NewShared(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	injectAt(eng, m, 0, 1)
	injectAt(eng, m, 792250, 32) // 792.25 ns
	eng.Run()
	if m.completed != 33 || started != 33 || waitSum != 13299500 {
		t.Fatalf("%d completed, %d started, arrival-to-start total %d ps; pinned 33, 33, 13299500",
			m.completed, started, waitSum)
	}
}

// injectAt schedules n requests from one source into a shared machine at
// time at, all in one event.
func injectAt(eng *sim.Engine, m *Machine, at sim.Time, n int) {
	eng.ScheduleAt(at, func() {
		for range n {
			m.InjectArg(nil, nil)
		}
	})
}
