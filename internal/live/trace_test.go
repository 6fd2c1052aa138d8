package live

import (
	"testing"
	"time"

	"rpcvalet/internal/machine"
	"rpcvalet/internal/obs"
	"rpcvalet/internal/trace"
	"rpcvalet/internal/workload"
)

// TestLiveTailSpans: a traced live run surfaces exactly K completed spans,
// slowest first, with sane wall-clock structure (wait + service ≈ total,
// worker attribution in range). Assertions are structural — never absolute
// latencies — so scheduler noise cannot flake CI.
func TestLiveTailSpans(t *testing.T) {
	cfg := smokeConfig("1x16", t)
	tail := trace.NewTailSampler(8)
	cfg.Trace = tail
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spans := tail.Spans()
	if len(spans) != 8 {
		t.Fatalf("tail spans = %d, want 8", len(spans))
	}
	for i, s := range spans {
		if !s.Completed() {
			t.Fatalf("span %d incomplete", i)
		}
		if s.Core < 0 || s.Core >= cfg.workers() {
			t.Fatalf("span %d worker %d out of range", i, s.Core)
		}
		if s.Dispatch != trace.Unset || s.BalancerRecv != trace.Unset {
			t.Fatalf("span %d carries phases the live runtime cannot measure: %+v", i, s)
		}
		if s.TotalNs() <= 0 || s.ServiceNs() <= 0 {
			t.Fatalf("span %d degenerate: %v", i, s)
		}
		if got, want := s.QueueWaitNs()+s.ServiceNs(), s.TotalNs(); got != want {
			t.Fatalf("span %d legs don't add up: wait+svc=%v total=%v", i, got, want)
		}
		if i > 0 && s.TotalNs() > spans[i-1].TotalNs() {
			t.Fatal("tail not slowest-first")
		}
	}
	// The slowest retained span is the run's maximum latency.
	if spans[0].TotalNs() < res.Latency.P99 {
		t.Fatalf("slowest span %.0fns below p99 %.0fns", spans[0].TotalNs(), res.Latency.P99)
	}
}

// TestLiveTraceSampling: the post-run trace replay respects the sampling
// rate and stays causally ordered per request.
func TestLiveTraceSampling(t *testing.T) {
	cfg := smokeConfig("jbsq2", t)
	var events []trace.Event
	cfg.Trace = trace.Sample(trace.Func(func(e trace.Event) { events = append(events, e) }), 4)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
	byReq := make(map[uint64][]trace.Event)
	for _, e := range events {
		if e.ReqID%4 != 0 {
			t.Fatalf("sampled stream leaked req %d", e.ReqID)
		}
		byReq[e.ReqID] = append(byReq[e.ReqID], e)
	}
	for id, evs := range byReq {
		if len(evs) != 3 {
			t.Fatalf("req %d: %d events, want arrive/start/complete", id, len(evs))
		}
		for i := 1; i < len(evs); i++ {
			if evs[i].Phase.Rank() <= evs[i-1].Phase.Rank() || evs[i].At < evs[i-1].At {
				t.Fatalf("req %d: out of order: %v then %v", id, evs[i-1], evs[i])
			}
		}
	}
	// Roughly 1-in-4 of completions traced (sequence numbering is exact, so
	// this is a hard bound, not a statistical one).
	if traced, max := len(byReq), res.Completed/4+1; traced > max {
		t.Fatalf("traced %d of %d completions at 1/4 sampling", traced, res.Completed)
	}
}

// TestLiveObsHooks: a run wired to RunMetrics leaves the counters consistent
// with the Result and the inflight gauge drained to zero.
func TestLiveObsHooks(t *testing.T) {
	cfg := smokeConfig("16x1", t)
	reg := obs.NewRegistry()
	cfg.Obs = obs.NewRunMetrics(reg, obs.Labels{"plan": "16x1"})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Obs.Offered.Value(); got != uint64(res.Offered) {
		t.Fatalf("offered counter %d, result %d", got, res.Offered)
	}
	if got := cfg.Obs.Completed.Value(); got != uint64(res.Completed) {
		t.Fatalf("completed counter %d, result %d", got, res.Completed)
	}
	if got := cfg.Obs.Dropped.Value(); got != uint64(res.Dropped) {
		t.Fatalf("dropped counter %d, result %d", got, res.Dropped)
	}
	if v := cfg.Obs.Inflight.Value(); v != 0 {
		t.Fatalf("inflight gauge %v after drain", v)
	}
	if got := cfg.Obs.Latency.Count(); got != uint64(res.Completed) {
		t.Fatalf("latency observations %d, completed %d", got, res.Completed)
	}
}

// BenchmarkLiveTraceOverhead quantifies tracing's live-throughput cost: the
// same run untraced, then with tail capture + 1/1024-sampled tracing + obs
// instruments all on. Compare the rps metrics across sub-benchmarks — the
// instrumented run's throughput should sit within ~2% of baseline (the
// serving path only gains one integer per completion record and a few
// atomics). perfbench does not cover the live runtime, so this stays.
func BenchmarkLiveTraceOverhead(b *testing.B) {
	base := func(b *testing.B) Config {
		pl, err := machine.ParsePlan("1x16")
		if err != nil {
			b.Fatal(err)
		}
		cfg := Config{
			Plan:     pl,
			Workload: workload.SyntheticExp(),
			Workers:  4,
			Duration: 100 * time.Millisecond,
			Seed:     42,
		}
		cfg.RateMRPS = 0.5 * CapacityMRPS(cfg)
		return cfg
	}
	run := func(b *testing.B, mutate func(*Config)) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			cfg := base(b)
			mutate(&cfg)
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Completed), "completions")
			b.ReportMetric(res.ThroughputMRPS*1e6, "rps")
		}
	}
	b.Run("untraced", func(b *testing.B) {
		run(b, func(*Config) {})
	})
	b.Run("traced-1in1024", func(b *testing.B) {
		run(b, func(cfg *Config) {
			cfg.Trace = trace.Tee(trace.NewTailSampler(64), trace.Sample(trace.Func(func(trace.Event) {}), 1024))
			cfg.Obs = obs.NewRunMetrics(obs.NewRegistry(), obs.Labels{"plan": "1x16"})
		})
	})
}
