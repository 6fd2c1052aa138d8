package metrics

import (
	"runtime"
	"testing"

	"rpcvalet/internal/sim"
	"rpcvalet/internal/stats"
)

func at(ns float64) sim.Time { return sim.Time(0).Add(sim.FromNanos(ns)) }

// TestSummaryMatchesInlineCollectors replays the exact gating the machine
// model historically applied and checks the Recorder's summary equals
// inline stats.Sample collectors fed the same values.
func TestSummaryMatchesInlineCollectors(t *testing.T) {
	var latency, wait, svc stats.Sample
	classLat := make([]stats.Sample, 2)

	obs := []struct {
		t                  float64
		class              int
		measured, inWindow bool
		lat, wait, svc     float64
	}{
		{100, 0, true, false, 500, 100, 400}, // warmup: timeline only
		{200, 1, false, true, 900, 300, 600},
		{300, 0, true, true, 550, 120, 430},
		{400, 0, true, true, 700, 250, 450},
	}
	// The reference: the collectors the machine model historically kept
	// inline, with its exact gating order.
	for _, o := range obs {
		if !o.inWindow {
			continue
		}
		if o.measured {
			latency.Add(o.lat)
		}
		classLat[o.class].Add(o.lat)
		svc.Add(o.svc)
		wait.Add(o.wait)
	}
	r := NewRecorder(Config{Classes: []string{"a", "b"}, Servers: 2})
	for i, o := range obs {
		if i == 1 {
			r.OpenWindow(at(150))
		}
		r.Complete(at(o.t), Completion{Class: o.class, Measured: o.measured, LatencyNs: o.lat, WaitNs: o.wait, ServiceNs: o.svc, Depth: 3})
	}
	r.CloseWindow(at(400))

	if r.Latency() != latency.Summarize() {
		t.Fatalf("latency summary diverged: %v vs %v", r.Latency(), latency.Summarize())
	}
	if r.Wait() != wait.Summarize() {
		t.Fatalf("wait summary diverged")
	}
	if r.ServiceMean() != svc.Mean() {
		t.Fatalf("service mean diverged")
	}
	for i := range classLat {
		if r.Class(i) != classLat[i].Summarize() {
			t.Fatalf("class %d summary diverged", i)
		}
	}
	if got := r.Wait().Count; got != 3 {
		t.Fatalf("window wait count = %d, want 3", got)
	}
	// The timeline saw all four completions, the summary only three.
	tl := r.Timeline()
	total := 0
	for _, e := range tl.Epochs {
		total += e.Completions
	}
	if total != 4 {
		t.Fatalf("timeline completions = %d, want 4", total)
	}
}

func TestEpochSlicing(t *testing.T) {
	r := NewRecorder(Config{EpochNanos: 100, MaxEpochs: 64})
	// Two completions in epoch 0, one in epoch 3.
	r.Complete(at(10), Completion{Measured: true, LatencyNs: 50, WaitNs: -1, ServiceNs: -1, Depth: 2})
	r.Complete(at(90), Completion{Measured: true, LatencyNs: 70, WaitNs: -1, ServiceNs: -1, Depth: 4})
	r.Complete(at(350), Completion{Measured: true, LatencyNs: 90, WaitNs: -1, ServiceNs: -1, Depth: -1})
	tl := r.Timeline()
	if tl.EpochNanos != 100 || len(tl.Epochs) != 4 {
		t.Fatalf("timeline = %g ns × %d epochs", tl.EpochNanos, len(tl.Epochs))
	}
	e0 := tl.Epochs[0]
	if e0.Completions != 2 || e0.Latency.Count != 2 || e0.MaxDepth != 4 || e0.MeanDepth != 3 {
		t.Fatalf("epoch 0 = %+v", e0)
	}
	if e0.ThroughputMRPS != 2.0/100*1000 {
		t.Fatalf("epoch 0 throughput = %v", e0.ThroughputMRPS)
	}
	if tl.Epochs[1].Completions != 0 || tl.Epochs[2].Completions != 0 {
		t.Fatal("interior empty epochs must be kept")
	}
	if tl.Epochs[3].Latency.P99 != 90 {
		t.Fatalf("epoch 3 p99 = %v", tl.Epochs[3].Latency.P99)
	}
	if got := tl.EpochIndex(350); got != 3 {
		t.Fatalf("EpochIndex(350) = %d", got)
	}
	if got := tl.EpochIndex(1e9); got != 3 {
		t.Fatalf("EpochIndex clamps to last, got %d", got)
	}
}

// TestEpochDoubling drives the recorder past MaxEpochs and checks that
// doubling merges slices without losing observations.
func TestEpochDoubling(t *testing.T) {
	r := NewRecorder(Config{EpochNanos: 10, MaxEpochs: 4})
	n := 0
	for ns := 5.0; ns < 300; ns += 10 { // 30 completions over 300 ns
		r.Complete(at(ns), Completion{Measured: true, LatencyNs: ns, WaitNs: -1, ServiceNs: -1, Depth: 1})
		n++
	}
	tl := r.Timeline()
	if len(tl.Epochs) > 4 {
		t.Fatalf("epochs = %d, want <= 4", len(tl.Epochs))
	}
	// 300 ns needs epoch >= 75 ns with 4 slices; doubling from 10 gives 80.
	if tl.EpochNanos != 80 {
		t.Fatalf("epoch length = %g, want 80", tl.EpochNanos)
	}
	total := 0
	for _, e := range tl.Epochs {
		total += e.Completions
	}
	if total != n {
		t.Fatalf("completions after doubling = %d, want %d", total, n)
	}
	// Latency observations survive merging: the global max must be present.
	last := tl.Epochs[len(tl.Epochs)-1]
	if last.Latency.Max != 295 {
		t.Fatalf("last epoch max = %v, want 295", last.Latency.Max)
	}
}

func TestBusyAndUtilization(t *testing.T) {
	r := NewRecorder(Config{EpochNanos: 100, MaxEpochs: 8, Servers: 2})
	r.Busy(at(50), 0, sim.FromNanos(40))
	r.Busy(at(60), 1, sim.FromNanos(60))
	r.Busy(at(150), 0, sim.FromNanos(100))
	if got := r.BusyTotal(0); got != sim.FromNanos(140) {
		t.Fatalf("busy[0] = %v", got)
	}
	if got := r.BusyTotal(1); got != sim.FromNanos(60) {
		t.Fatalf("busy[1] = %v", got)
	}
	tl := r.Timeline()
	// Epoch 0: 100 ns busy over 2×100 ns capacity = 0.5.
	if u := tl.Epochs[0].Utilization; u != 0.5 {
		t.Fatalf("epoch 0 utilization = %v", u)
	}
	if u := tl.Epochs[1].Utilization; u != 0.5 {
		t.Fatalf("epoch 1 utilization = %v", u)
	}
	if got := r.MeanUtilization(at(200)); got != 0.5 {
		t.Fatalf("mean utilization = %v", got)
	}
	if got := r.MeanUtilization(0); got != 0 {
		t.Fatal("mean utilization at t=0 must be 0")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Timeline {
		r := NewRecorder(Config{EpochNanos: 50, MaxEpochs: 8, Servers: 1})
		for i := 0; i < 200; i++ {
			ns := float64(i) * 7.3
			r.Complete(at(ns), Completion{Measured: i%3 != 0, LatencyNs: float64(i%17) * 11, WaitNs: float64(i % 5), ServiceNs: 400, Depth: i % 9})
			r.Busy(at(ns), 0, sim.FromNanos(3))
		}
		return r.Timeline()
	}
	a, b := run(), run()
	if len(a.Epochs) != len(b.Epochs) || a.EpochNanos != b.EpochNanos {
		t.Fatal("timeline shape nondeterministic")
	}
	for i := range a.Epochs {
		if a.Epochs[i] != b.Epochs[i] {
			t.Fatalf("epoch %d differs", i)
		}
	}
}

func TestEmptyTimeline(t *testing.T) {
	r := NewRecorder(Config{})
	tl := r.Timeline()
	if len(tl.Epochs) != 0 {
		t.Fatalf("empty recorder produced %d epochs", len(tl.Epochs))
	}
	if tl.EpochIndex(0) != -1 {
		t.Fatal("EpochIndex on empty timeline must be -1")
	}
	if len(tl.P99s()) != 0 {
		t.Fatal("P99s on empty timeline must be empty")
	}
}

// TestPresizeCapped: a run that expects more completions than MaxPresize
// presizes MaxPresize entries per log and no more, so a huge -measure costs
// memory only as completions arrive. The wait log is sized at its first
// wait.
func TestPresizeCapped(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewRecorder(Config{Classes: []string{"get", "scan"}, Expect: 1e10})
	runtime.ReadMemStats(&after)
	if cap(r.lat) != MaxPresize || cap(r.tag) != MaxPresize {
		t.Fatalf("presized lat/tag to %d/%d, want %d", cap(r.lat), cap(r.tag), MaxPresize)
	}
	const logBytes = (8 + 8 + 4) * MaxPresize
	if grew := after.TotalAlloc - before.TotalAlloc; grew > logBytes+1<<20 {
		t.Fatalf("NewRecorder allocated %d bytes, want at most %d", grew, logBytes+1<<20)
	}
	r.Complete(at(1), Completion{Class: 1, Measured: true, LatencyNs: 5, WaitNs: 1, ServiceNs: 4, Depth: -1})
	if len(r.lat) != 1 || len(r.wait) != 1 || cap(r.wait) != MaxPresize {
		t.Fatalf("recorded %d latencies, %d waits (wait cap %d), want 1 each and cap %d", len(r.lat), len(r.wait), cap(r.wait), MaxPresize)
	}
}

// TestNoWaitNoWaitLog: a recorder whose owner never records a wait, as
// cluster.Run's front recorder passes WaitNs -1 on every completion, holds
// no wait capacity however many completions it expects.
func TestNoWaitNoWaitLog(t *testing.T) {
	r := NewRecorder(Config{Expect: 1000})
	for i := range 100 {
		r.Complete(at(float64(i)), Completion{Class: -1, Measured: true, LatencyNs: 5, WaitNs: -1, ServiceNs: 4, Depth: -1})
	}
	if cap(r.wait) != 0 || len(r.lat) != 100 {
		t.Fatalf("wait log cap %d, %d latencies after 100 wait-less completions", cap(r.wait), len(r.lat))
	}
	if w := r.Wait(); w.Count != 0 {
		t.Fatalf("wait summary counts %d", w.Count)
	}
}
