package machine

import (
	"testing"

	"rpcvalet/internal/trace"
	"rpcvalet/internal/workload"
)

// TestMachineTailSpans: tail capture on the single-machine simulator — K
// completed spans, slowest first, depth-at-arrival tracked, and the slowest
// at least as slow as the window's p99 (the sampler saw every request).
func TestMachineTailSpans(t *testing.T) {
	cfg := testConfig(ModeSingleQueue, workload.HERD(), 8)
	cfg.Warmup, cfg.Measure = 100, 2000
	tail := trace.NewTailSampler(16)
	cfg.Trace = tail
	res := mustRun(t, cfg)
	spans := tail.Spans()
	if len(spans) != 16 {
		t.Fatalf("tail spans = %d, want 16", len(spans))
	}
	for i, s := range spans {
		if !s.Completed() {
			t.Fatalf("span %d incomplete", i)
		}
		if s.DepthAtArrival < 0 {
			t.Fatalf("span %d missing depth-at-arrival", i)
		}
		if s.Core < 0 || s.Core >= cfg.Params.Cores {
			t.Fatalf("span %d core %d", i, s.Core)
		}
		if s.Dispatch == trace.Unset || s.Start == trace.Unset {
			t.Fatalf("span %d missing milestones: %+v", i, s)
		}
		if i > 0 && s.TotalNs() > spans[i-1].TotalNs() {
			t.Fatal("tail not slowest-first")
		}
	}
	if spans[0].TotalNs() < res.Latency.P99 {
		t.Fatalf("slowest span %.0fns below p99 %.0fns",
			spans[0].TotalNs(), res.Latency.P99)
	}
}

// TestMachineTraceSampling: a sampled recorder beside the tail sampler sees
// one request in 16 by ID, while results and the tail set stay untouched.
func TestMachineTraceSampling(t *testing.T) {
	base := testConfig(ModeSingleQueue, workload.SyntheticFixed(), 3)
	base.Warmup, base.Measure = 50, 1000
	fullTail := trace.NewTailSampler(8)
	base.Trace = fullTail
	full := mustRun(t, base)

	sampled := 0
	cfg := base
	tail := trace.NewTailSampler(8)
	cfg.Trace = trace.Tee(tail, trace.Sample(trace.Func(func(e trace.Event) {
		if e.ReqID%16 != 0 {
			t.Fatalf("sampled stream leaked req %d", e.ReqID)
		}
		sampled++
	}), 16))
	got := mustRun(t, cfg)
	if sampled == 0 {
		t.Fatal("sampling recorded nothing")
	}
	if got.Latency != full.Latency || got.ThroughputMRPS != full.ThroughputMRPS {
		t.Fatal("tracing perturbed the result stream")
	}
	gotSpans, fullSpans := tail.Spans(), fullTail.Spans()
	if len(gotSpans) != len(fullSpans) {
		t.Fatalf("tail size changed under sampling: %d vs %d", len(gotSpans), len(fullSpans))
	}
	for i := range gotSpans {
		if gotSpans[i] != fullSpans[i] {
			t.Fatalf("tail span %d changed under sampling", i)
		}
	}
}

// TestMachineDepthAtArrival: arrive events carry the number of other
// in-flight requests, and it is consistent with a non-negative bound.
func TestMachineDepthAtArrival(t *testing.T) {
	var arrives, withDepth int
	cfg := testConfig(ModePartitioned, workload.SyntheticFixed(), 3)
	cfg.Warmup, cfg.Measure = 20, 400
	cfg.Trace = trace.Func(func(e trace.Event) {
		switch e.Phase {
		case trace.PhaseArrive:
			arrives++
			if e.Depth >= 0 {
				withDepth++
			}
		default:
			if e.Depth != -1 {
				t.Fatalf("%v carries depth %d", e.Phase, e.Depth)
			}
		}
	})
	mustRun(t, cfg)
	if arrives == 0 || withDepth != arrives {
		t.Fatalf("depth tracked on %d of %d arrivals", withDepth, arrives)
	}
}

// BenchmarkTraceOverhead measures the machine hot path's tracing cost.
// The disabled case is the acceptance gate: record() with no sinks must be
// 0 allocs/op (guarded by TestRecordDisabledZeroAllocs below, which fails
// the suite rather than needing a human to read benchmark output).
func BenchmarkTraceOverhead(b *testing.B) {
	bench := func(b *testing.B, mutate func(*Config)) {
		cfg := testConfig(ModeSingleQueue, workload.SyntheticFixed(), 3)
		cfg.Warmup, cfg.Measure = 10, 100
		mutate(&cfg)
		m, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.record(0, uint64(i), trace.PhaseArrive, -1, 3)
		}
	}
	b.Run("disabled", func(b *testing.B) {
		bench(b, func(*Config) {})
	})
	b.Run("func", func(b *testing.B) {
		bench(b, func(c *Config) { c.Trace = trace.Func(func(trace.Event) {}) })
	})
	b.Run("sampled-1in1024", func(b *testing.B) {
		bench(b, func(c *Config) { c.Trace = trace.Sample(trace.Func(func(trace.Event) {}), 1024) })
	})
	b.Run("tail64", func(b *testing.B) {
		bench(b, func(c *Config) { c.Trace = trace.NewTailSampler(64) })
	})
}

// TestRecordDisabledZeroAllocs enforces the disabled-path contract in the
// test suite: the machine's per-event hook allocates nothing when no tracer
// is configured.
func TestRecordDisabledZeroAllocs(t *testing.T) {
	cfg := testConfig(ModeSingleQueue, workload.SyntheticFixed(), 3)
	cfg.Warmup, cfg.Measure = 10, 100
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		m.record(0, id, trace.PhaseArrive, -1, 3)
		id++
	})
	if allocs != 0 {
		t.Fatalf("disabled record() allocates %.1f per op, want 0", allocs)
	}
}
