package live

import (
	"testing"
	"time"

	"rpcvalet/internal/machine"
	"rpcvalet/internal/ni"
	"rpcvalet/internal/workload"
)

// smokeConfig is a rate-limited ~100 ms run: sleep emulation (safe on any
// core count, including the 1-CPU CI runners), low offered load, fixed
// service. Assertions stay on completion counts and structural invariants —
// never on latencies — so wall-clock noise cannot flake CI.
func smokeConfig(plan string, t *testing.T) Config {
	t.Helper()
	pl, err := machine.ParsePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Plan:      pl,
		Workload:  workload.SyntheticFixed(),
		Workers:   4,
		Emulation: EmulationSleep,
		Duration:  100 * time.Millisecond,
		Seed:      7,
	}
	// ~40% of sleep-mode capacity: 4 workers / 300 µs mean.
	cfg.RateMRPS = 0.4 * CapacityMRPS(cfg)
	return cfg
}

// smokePlans cover both paths: the shared channel (1x16) and the dispatch
// path under a bound (jbsq2), static RSS groups (16x1), one dispatcher per
// NI backend (4x4) and a named policy (1x16:random2).
var smokePlans = []string{"1x16", "16x1", "jbsq2", "4x4", "1x16:random2"}

// TestLiveSmoke runs every smoke plan end to end and checks the counting
// invariants: work was completed, every accepted arrival was served (no
// hidden losses), and the result's bookkeeping is self-consistent.
func TestLiveSmoke(t *testing.T) {
	for _, plan := range smokePlans {
		t.Run(plan, func(t *testing.T) {
			res, err := Run(smokeConfig(plan, t))
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed == 0 {
				t.Fatal("no completions in 100ms at 40% load")
			}
			if res.Completed+res.Dropped != res.Offered {
				t.Fatalf("lost work: offered=%d completed=%d dropped=%d",
					res.Offered, res.Completed, res.Dropped)
			}
			if res.Dropped != 0 {
				t.Fatalf("dropped %d arrivals far below capacity", res.Dropped)
			}
			if res.Latency.Count <= 0 || res.Latency.Count > res.Completed {
				t.Fatalf("latency sample count %d vs completed %d", res.Latency.Count, res.Completed)
			}
			if res.Emulation != "sleep" {
				t.Fatalf("emulation = %q, want sleep", res.Emulation)
			}
			if len(res.Timeline.Epochs) == 0 {
				t.Fatal("empty timeline")
			}
		})
	}
}

// TestLiveScheduleDeterministic: the offered schedule is a pure function of
// (seed, rate, duration) — two runs release the same number of arrivals even
// though their latencies differ. With the queue far from its cap nothing
// drops, so completions match too.
func TestLiveScheduleDeterministic(t *testing.T) {
	a, err := Run(smokeConfig("1x16", t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smokeConfig("1x16", t))
	if err != nil {
		t.Fatal(err)
	}
	if a.Offered != b.Offered || a.Completed != b.Completed {
		t.Fatalf("schedule not deterministic: %d/%d vs %d/%d arrivals/completions",
			a.Offered, a.Completed, b.Offered, b.Completed)
	}
}

// TestLiveOverloadSheds soaks each smoke plan well past saturation with a tiny
// backlog cap: the open loop must shed (Dropped > 0) instead of blocking,
// and the accounting must still balance. Skipped under -short — this is the
// slow half that `make live-smoke` leaves out.
func TestLiveOverloadSheds(t *testing.T) {
	if testing.Short() {
		t.Skip("overload soak")
	}
	defer func(c int) { queueCap = c }(queueCap)
	queueCap = 32
	for _, plan := range smokePlans {
		t.Run(plan, func(t *testing.T) {
			cfg := smokeConfig(plan, t)
			cfg.Duration = 300 * time.Millisecond
			cfg.RateMRPS = 4 * CapacityMRPS(cfg) // far past saturation
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed+res.Dropped != res.Offered {
				t.Fatalf("lost work: offered=%d completed=%d dropped=%d",
					res.Offered, res.Completed, res.Dropped)
			}
			if res.Dropped == 0 {
				t.Fatalf("no drops at 4× capacity with a 32-slot backlog (offered %d)", res.Offered)
			}
		})
	}
}

// TestPlanDispatchers maps plans to the dispatchers the live runtime builds
// for them at 8 workers: none on the shared path, and otherwise the plan's
// groups and threshold on an 8-core machine.
func TestPlanDispatchers(t *testing.T) {
	cases := []struct {
		spec      string
		groups    int
		threshold int
	}{
		{"1x16", 0, 0},
		{"single", 0, 0},
		{"sw", 0, 0},
		{"16x1", 8, ni.Unlimited},
		{"partitioned", 8, ni.Unlimited},
		{"jbsq1", 1, 1},
		{"jbsq4", 1, 4},
		{"4x4", 4, 2},
		{"2x4", 2, 2},
		{"1x16:random2", 1, 2},
		{"4x4:round-robin", 4, 2},
	}
	for _, c := range cases {
		cfg := smokeConfig(c.spec, t)
		cfg.Workers = 8
		ds, err := cfg.validate()
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if len(ds) != c.groups || len(ds) > 0 && ds[0].Threshold() != c.threshold {
			t.Fatalf("%s: %d dispatchers, want %d at threshold %d", c.spec, len(ds), c.groups, c.threshold)
		}
	}
	cfg := smokeConfig("1x16", t)
	cfg.Plan = nil
	if ds, err := cfg.validate(); err != nil || ds != nil {
		t.Fatalf("nil plan: %d dispatchers, %v", len(ds), err)
	}
	// A plan whose group count equals the worker count is one worker a group.
	cfg.Workers, cfg.Plan = 8, &machine.Plan{Groups: 8}
	if ds, err := cfg.validate(); err != nil || len(ds) != 8 {
		t.Fatalf("8 groups / 8 workers: %d dispatchers, %v", len(ds), err)
	}
	// 2 groups of 8 cores do not make an 8-worker machine.
	cfg = smokeConfig("2x8", t)
	cfg.Workers = 8
	if err := cfg.Validate(); err == nil {
		t.Fatal("2x8 accepted at 8 workers")
	}
}

// TestLiveDispatchReplay logs every dispatcher call a run makes under its
// lock and replays the log through fresh machine.Dispatchers: each call must
// return the dispatch the live one did, so the live runtime decides exactly
// as the simulator's dispatchers would on the same calls. At run end every
// dispatcher has delivered what it was given, and what was given is what
// completed.
func TestLiveDispatchReplay(t *testing.T) {
	defer func() { onDispatch = nil }()
	for _, plan := range []string{"jbsq2", "4x4", "1x16:random2", "16x1"} {
		t.Run(plan, func(t *testing.T) {
			var ds []*ni.Dispatcher
			var calls []dispatchCall
			onDispatch = func(d []*ni.Dispatcher, c dispatchCall) {
				ds = d
				calls = append(calls, c)
			}
			cfg := smokeConfig(plan, t)
			cfg.Workers = 8
			cfg.RateMRPS = 0.9 * CapacityMRPS(cfg) // keep the CQs busy
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}

			p := machine.Defaults()
			p.Cores, p.Plan = cfg.Workers, cfg.Plan
			fresh, err := machine.Dispatchers(p, cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			enqueues := 0
			for i, c := range calls {
				var d ni.Dispatch
				var ok bool
				if c.worker < 0 {
					enqueues++
					d, ok = fresh[c.group].Enqueue(ni.Msg{Tag: c.seq})
				} else {
					d, ok = fresh[c.group].Complete(c.worker)
				}
				if d != c.d || ok != c.ok {
					t.Fatalf("call %d %+v: replay dispatched %+v/%v", i, c, d, ok)
				}
				// 16x1 keeps the static RSS assignment: a request's worker
				// is the hash of its ID over the workers.
				if plan == "16x1" && c.worker < 0 && d.Core != ni.RSSQueue(c.seq, cfg.Workers) {
					t.Fatalf("request %d went to worker %d, RSS says %d", c.seq, d.Core, ni.RSSQueue(c.seq, cfg.Workers))
				}
			}
			if enqueues == 0 || enqueues != res.Completed {
				t.Fatalf("%d enqueues logged, %d completed", enqueues, res.Completed)
			}
			var total uint64
			for g, d := range ds {
				enq, del := d.Stats()
				if enq != del || d.QueueDepth() != 0 {
					t.Fatalf("dispatcher %d: enqueued %d, delivered %d, %d still queued", g, enq, del, d.QueueDepth())
				}
				total += enq
			}
			if total != uint64(res.Completed) {
				t.Fatalf("dispatchers enqueued %d, run completed %d", total, res.Completed)
			}
		})
	}
}

func TestLiveValidation(t *testing.T) {
	base := smokeConfig("1x16", t)
	bad := base
	bad.RateMRPS = 0
	if _, err := Run(bad); err == nil {
		t.Fatal("zero rate accepted")
	}
	bad = base
	bad.Duration = 0
	if _, err := Run(bad); err == nil {
		t.Fatal("zero duration accepted")
	}
	bad = base
	bad.Workload = workload.Profile{}
	if _, err := Run(bad); err == nil {
		t.Fatal("empty workload accepted")
	}
}

func TestCalibrateSpin(t *testing.T) {
	if rate := calibrateSpin(); !(rate > 0) {
		t.Fatalf("spin calibration rate = %v", rate)
	}
}

func TestRecommendedScale(t *testing.T) {
	wl := workload.SyntheticFixed() // mean 600 ns
	if s := RecommendedScale(EmulationSleep, 4, wl); s*wl.MeanService() != SleepTargetServiceNanos {
		t.Fatalf("sleep scale %v lifts mean to %v", s, s*wl.MeanService())
	}
	if s := RecommendedScale(EmulationSpin, 4, wl); s*wl.MeanService() != SpinTargetServiceNanos {
		t.Fatalf("spin scale %v lifts mean to %v", s, s*wl.MeanService())
	}
	// A profile already above the target is left alone.
	big := workload.Masstree() // mean ≈ 1.8 µs... still below; scale must be ≥ 1 anyway
	if s := RecommendedScale(EmulationSpin, 4, big); s < 1 {
		t.Fatalf("scale %v shrank the profile", s)
	}
}

func TestParseEmulation(t *testing.T) {
	for s, want := range map[string]Emulation{"auto": EmulationAuto, "": EmulationAuto, "spin": EmulationSpin, "sleep": EmulationSleep} {
		got, err := ParseEmulation(s)
		if err != nil || got != want {
			t.Fatalf("ParseEmulation(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseEmulation("warp"); err == nil {
		t.Fatal("bad emulation accepted")
	}
}

// FuzzParseEmulation: no -emulation value panics the parser, and every
// accepted value's String() parses back to the same Emulation.
func FuzzParseEmulation(f *testing.F) {
	for _, seed := range []string{"", "auto", "spin", "sleep", "warp", "Spin", " sleep", "emulation(1)"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseEmulation(s)
		if err != nil {
			return
		}
		back, err := ParseEmulation(got.String())
		if err != nil {
			t.Fatalf("ParseEmulation(%q) = %v, which does not parse back: %v", s, got, err)
		}
		if back != got {
			t.Fatalf("ParseEmulation(%q) = %v, String %q parses back to %v", s, got, got, back)
		}
	})
}
