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

// TestLiveSmoke runs all three queue shapes end to end and checks the
// counting invariants: work was completed, every accepted arrival was served
// (no hidden losses), and the result's bookkeeping is self-consistent.
func TestLiveSmoke(t *testing.T) {
	for _, plan := range []string{"1x16", "16x1", "jbsq2"} {
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

// TestLiveOverloadSheds soaks each shape well past saturation with a tiny
// backlog cap: the open loop must shed (Dropped > 0) instead of blocking,
// and the accounting must still balance. Skipped under -short — this is the
// slow half that `make live-smoke` leaves out.
func TestLiveOverloadSheds(t *testing.T) {
	if testing.Short() {
		t.Skip("overload soak")
	}
	defer func(c int) { queueCap = c }(queueCap)
	queueCap = 32
	for _, plan := range []string{"1x16", "16x1", "jbsq2"} {
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

func TestShapeForPlan(t *testing.T) {
	mustPlan := func(spec string) *machine.Plan {
		pl, err := machine.ParsePlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	cases := []struct {
		spec  string
		shape Shape
		bound int
	}{
		{"1x16", ShapeShared, 0},
		{"single", ShapeShared, 0},
		{"sw", ShapeShared, 0},
		{"16x1", ShapePartitioned, 0},
		{"partitioned", ShapePartitioned, 0},
		{"jbsq1", ShapeJBSQ, 1},
		{"jbsq4", ShapeJBSQ, 4},
	}
	for _, c := range cases {
		shape, bound, err := ShapeForPlan(mustPlan(c.spec), 8)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if shape != c.shape || bound != c.bound {
			t.Fatalf("%s: shape=%v bound=%d, want %v/%d", c.spec, shape, bound, c.shape, c.bound)
		}
	}
	if shape, _, err := ShapeForPlan(nil, 8); err != nil || shape != ShapeShared {
		t.Fatalf("nil plan: %v/%v", shape, err)
	}
	// A plan whose group count equals the worker count is partitioned.
	if shape, _, err := ShapeForPlan(&machine.Plan{Groups: 8}, 8); err != nil || shape != ShapePartitioned {
		t.Fatalf("8 groups / 8 workers: %v/%v", shape, err)
	}
	// Unsupported: grouped plans and explicit policies.
	if _, _, err := ShapeForPlan(mustPlan("4x4"), 8); err == nil {
		t.Fatal("grouped plan should be rejected")
	}
	if _, _, err := ShapeForPlan(mustPlan("1x16:random2"), 8); err == nil {
		t.Fatal("policy plan should be rejected")
	}
	// An unlimited threshold on one group is still the shared queue.
	if shape, _, err := ShapeForPlan(&machine.Plan{Groups: 1, Threshold: ni.Unlimited}, 8); err != nil || shape != ShapeShared {
		t.Fatalf("unlimited threshold: %v/%v", shape, err)
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
