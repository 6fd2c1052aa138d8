package machine

import (
	"reflect"
	"sync"
	"testing"

	"rpcvalet/internal/metrics"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/workload"
)

func TestParseFault(t *testing.T) {
	f, err := ParseFault("x1.5")
	if err != nil || f.Slowdown != 1.5 || len(f.Pauses) != 0 {
		t.Fatalf("x1.5 -> %+v, %v", f, err)
	}
	f, err = ParseFault("pause@200us+100us")
	if err != nil || f.Slowdown != 0 || len(f.Pauses) != 1 {
		t.Fatalf("pause -> %+v, %v", f, err)
	}
	if f.Pauses[0].Start != sim.FromMicros(200) || f.Pauses[0].Dur != sim.FromMicros(100) {
		t.Fatalf("pause window = %+v", f.Pauses[0])
	}
	f, err = ParseFault("x2,pause@50us+10us,pause@500us+10us")
	if err != nil || f.Slowdown != 2 || len(f.Pauses) != 2 {
		t.Fatalf("combined -> %+v, %v", f, err)
	}
	// Spans of a second or more print without an exponent, whose "+" would
	// split the window in the wrong place.
	f, err = ParseFault("pause@1s+2s")
	if err != nil || f.String() != "pause@1000000us+2000000us" {
		t.Fatalf("pause@1s+2s -> %v, %v", f, err)
	}
	for _, bad := range []string{
		"y1.5", "x0", "x-1", "pause@50us", "pause@+10us", "pause@zz+10us", "1.5",
		"xNaN", "xnan", "xInf", "x+Inf", "x-Inf", "x1e400",
		"pause@NaN+1us", "pause@1us+inf", "pause@1e30s+1us",
	} {
		if _, err := ParseFault(bad); err == nil {
			t.Errorf("ParseFault(%q) accepted", bad)
		}
	}
}

func TestPauseStall(t *testing.T) {
	pauses := []Pause{
		{Start: sim.FromNanos(100), Dur: sim.FromNanos(50)},
		{Start: sim.FromNanos(120), Dur: sim.FromNanos(100)},
	}
	cases := []struct {
		at   float64
		want sim.Duration
	}{
		{0, 0},
		{99, 0},
		{100, sim.FromNanos(50)}, // first window only
		{130, sim.FromNanos(90)}, // overlapping: deeper window wins
		{219, sim.FromNanos(1)},  // tail of second window
		{220, 0},                 // window end is exclusive
		{1000, 0},
	}
	for _, c := range cases {
		if got := pauseStall(pauses, sim.Time(0).Add(sim.FromNanos(c.at))); got != c.want {
			t.Errorf("pauseStall at %gns = %v, want %v", c.at, got, c.want)
		}
	}
}

// TestSlowdownStretchesService checks that a degraded machine's measured S̄
// scales by the slowdown factor and its SLO-relative tail worsens.
func TestSlowdownStretchesService(t *testing.T) {
	cfg := testConfig(ModeSingleQueue, workload.SyntheticExp(), 6)
	cfg.Warmup, cfg.Measure = 500, 6000
	healthy := mustRun(t, cfg)

	cfg.Fault.Slowdown = 1.5
	slow := mustRun(t, cfg)

	ratio := slow.ServiceMeanNanos / healthy.ServiceMeanNanos
	// S̄ = fixed overhead + 1.5 × handler; with exp(300)+300ns handlers and
	// ~200ns overhead the expected ratio is ≈ 1.39. Allow sampling slack.
	if ratio < 1.25 || ratio > 1.5 {
		t.Fatalf("S̄ ratio under 1.5x slowdown = %.3f (healthy %.0f, slow %.0f)",
			ratio, healthy.ServiceMeanNanos, slow.ServiceMeanNanos)
	}
	if slow.Latency.P99 <= healthy.Latency.P99 {
		t.Fatalf("slowdown did not hurt the tail: %v vs %v", slow.Latency.P99, healthy.Latency.P99)
	}
}

// TestSlowdownOneIsHealthy: Slowdown 1 (and 0) must reproduce the healthy
// machine's result stream bit for bit.
func TestSlowdownOneIsHealthy(t *testing.T) {
	cfg := testConfig(ModeSingleQueue, workload.HERD(), 8)
	cfg.Warmup, cfg.Measure = 300, 3000
	base := mustRun(t, cfg)
	for _, s := range []float64{0, 1} {
		cfg.Fault.Slowdown = s
		got := mustRun(t, cfg)
		if got.Latency != base.Latency || got.ThroughputMRPS != base.ThroughputMRPS {
			t.Fatalf("slowdown %g diverged from healthy run", s)
		}
	}
}

// TestPauseWindowBacklog: a pause stalls work beginning inside the window,
// building a backlog visible as a latency spike in the timeline epochs
// covering the pause — and the spike drains afterward.
func TestPauseWindowBacklog(t *testing.T) {
	cfg := testConfig(ModeSingleQueue, workload.SyntheticExp(), 8)
	cfg.Warmup, cfg.Measure = 500, 12000
	cfg.Epoch = 50 * sim.Microsecond
	base := mustRun(t, cfg)

	pauseStart, pauseDur := 400*sim.Microsecond, 100*sim.Microsecond
	cfg.Fault.Pauses = []Pause{{Start: pauseStart, Dur: pauseDur}}
	paused := mustRun(t, cfg)

	if paused.Latency.P99 <= base.Latency.P99 {
		t.Fatalf("pause did not raise p99: %v vs %v", paused.Latency.P99, base.Latency.P99)
	}
	tl := paused.Timeline()
	if len(tl.Epochs) == 0 {
		t.Fatal("timeline empty")
	}
	// The epoch containing the pause's end sees the stalled backlog drain:
	// its p99 must tower over the first epoch after warmup settles.
	spikeIdx := tl.EpochIndex((pauseStart + pauseDur).Nanos())
	calm := tl.Epochs[tl.EpochIndex(200_000)] // well before the pause
	spike := tl.Epochs[spikeIdx]
	if spike.Latency.P99 < 4*calm.Latency.P99 {
		t.Fatalf("pause spike not visible: spike p99 %.0f vs calm %.0f",
			spike.Latency.P99, calm.Latency.P99)
	}
	// And the last epoch has recovered to within an order of magnitude of calm.
	last := tl.Epochs[len(tl.Epochs)-1]
	if last.Latency.Count > 0 && last.Latency.P99 > 10*calm.Latency.P99 {
		t.Fatalf("tail never recovered after pause: last p99 %.0f vs calm %.0f",
			last.Latency.P99, calm.Latency.P99)
	}
}

// TestTimelinePopulated: every run's Result carries a coherent timeline —
// epochs tile the run, completions sum to the total, and utilization and
// throughput are sane.
func TestTimelinePopulated(t *testing.T) {
	cfg := testConfig(ModeSingleQueue, workload.HERD(), 10)
	cfg.Warmup, cfg.Measure = 300, 5000
	res := mustRun(t, cfg)
	tl := res.Timeline()
	if tl.EpochNanos <= 0 || len(tl.Epochs) == 0 {
		t.Fatalf("timeline unpopulated: %+v", tl)
	}
	total := 0
	for i, e := range tl.Epochs {
		total += e.Completions
		if e.StartNanos != float64(i)*tl.EpochNanos || e.EndNanos-e.StartNanos != tl.EpochNanos {
			t.Fatalf("epoch %d does not tile: %+v", i, e)
		}
		if e.Utilization < 0 || e.MeanDepth < 0 {
			t.Fatalf("epoch %d has negative stats: %+v", i, e)
		}
	}
	if total != res.Completed {
		t.Fatalf("timeline completions %d != run completions %d", total, res.Completed)
	}
}

// TestTimelineOnDemand: a Result's timeline is summarized from its run's
// recorder on each call, writes nothing there, and so reads the same on
// every call and from two goroutines at once (run it under -race).
func TestTimelineOnDemand(t *testing.T) {
	cfg := testConfig(ModeSingleQueue, workload.HERD(), 10)
	cfg.Warmup, cfg.Measure = 300, 5000
	res := mustRun(t, cfg)
	first := res.Timeline()
	if len(first.Epochs) == 0 {
		t.Fatal("timeline empty")
	}
	var tls [2]metrics.Timeline
	var wg sync.WaitGroup
	for i := range tls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tls[i] = res.Timeline()
		}()
	}
	wg.Wait()
	for i, tl := range append(tls[:], res.Timeline()) {
		if !reflect.DeepEqual(first, tl) {
			t.Fatalf("call %d summarizes a different timeline", i)
		}
	}
	if tl := (Result{}).Timeline(); tl.EpochNanos != 0 || tl.Epochs != nil {
		t.Fatalf("zero Result has timeline %+v", tl)
	}
}

// TestTimelineDeterministic: identical configs produce identical timelines.
func TestTimelineDeterministic(t *testing.T) {
	cfg := testConfig(ModeGrouped, workload.SyntheticExp(), 9)
	cfg.Warmup, cfg.Measure = 200, 3000
	a, b := mustRun(t, cfg).Timeline(), mustRun(t, cfg).Timeline()
	if a.EpochNanos != b.EpochNanos || len(a.Epochs) != len(b.Epochs) {
		t.Fatal("timeline shape nondeterministic")
	}
	for i := range a.Epochs {
		if a.Epochs[i] != b.Epochs[i] {
			t.Fatalf("epoch %d differs between identical runs", i)
		}
	}
}

// FuzzParseFault checks that no spec panics the parser and that every
// accepted spec's String() parses back to an equal Fault (slowdown 0 and 1
// both mean full speed, so String writes neither).
func FuzzParseFault(f *testing.F) {
	for _, seed := range []string{
		"", "healthy", "x1", "x1.5", "pause@200us+100us",
		"x2,pause@50us+10us,pause@500us+10us",
		"xNaN", "xInf", "pause@NaN+1us", "pause@1us+1e30s", "pause@1s+0",
		"pause@999999999999.999999ns+1000s", "pause@1000s+1ms",
	} {
		f.Add(seed)
	}
	norm := func(f Fault) Fault {
		if f.Slowdown == 1 {
			f.Slowdown = 0
		}
		return f
	}
	f.Fuzz(func(t *testing.T, spec string) {
		got, err := ParseFault(spec)
		if err != nil {
			return
		}
		back, err := ParseFault(got.String())
		if err != nil {
			t.Fatalf("ParseFault(%q) = %v, which does not parse back: %v", spec, got, err)
		}
		if !reflect.DeepEqual(norm(back), norm(got)) {
			t.Fatalf("ParseFault(%q) = %+v, String %q parses back to %+v", spec, got, got, back)
		}
	})
}
