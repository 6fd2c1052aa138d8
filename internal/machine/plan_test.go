package machine

import (
	"fmt"
	"strings"
	"testing"

	"rpcvalet/internal/ni"
	"rpcvalet/internal/workload"
)

// planConfig builds a fast test config driven by an explicit plan.
func planConfig(pl *Plan, wl workload.Profile, rate float64) Config {
	cfg := testConfig(ModeSingleQueue, wl, rate)
	cfg.Params.Plan = pl
	cfg.Warmup, cfg.Measure = 500, 6000
	return cfg
}

// sameResult compares the measurement-bearing fields of two results exactly
// (Result holds maps, so == on the whole struct is unavailable).
func sameResult(t *testing.T, name string, a, b Result) {
	t.Helper()
	if a.Latency != b.Latency || a.Wait != b.Wait ||
		a.ThroughputMRPS != b.ThroughputMRPS ||
		a.ServiceMeanNanos != b.ServiceMeanNanos ||
		a.Completed != b.Completed ||
		a.DispatcherMaxDepth != b.DispatcherMaxDepth {
		t.Fatalf("%s: results differ:\n  a=%+v\n  b=%+v", name, a, b)
	}
}

// TestPlanReproducesSingleQueue: a 1-group plan inheriting the params
// threshold is, request for request, the legacy ModeSingleQueue machine.
func TestPlanReproducesSingleQueue(t *testing.T) {
	legacy := mustRun(t, planConfig(nil, workload.SyntheticGEV(), 12))
	cfg := planConfig(&Plan{Groups: 1}, workload.SyntheticGEV(), 12)
	sameResult(t, "1-group plan vs ModeSingleQueue", legacy, mustRun(t, cfg))
}

// TestPlanReproducesPartitioned: a per-core, unlimited-threshold plan (with
// routing left on auto, which resolves to RSS) is the legacy
// ModePartitioned machine.
func TestPlanReproducesPartitioned(t *testing.T) {
	base := testConfig(ModePartitioned, workload.SyntheticGEV(), 12)
	base.Warmup, base.Measure = 500, 6000
	legacy := mustRun(t, base)
	cfg := planConfig(&Plan{Groups: 16, Threshold: ni.Unlimited}, workload.SyntheticGEV(), 12)
	sameResult(t, "16x1 plan vs ModePartitioned", legacy, mustRun(t, cfg))
}

// TestCannedPlansReproduceAllModes: PlanForMode must reproduce every legacy
// mode exactly, software queue included.
func TestCannedPlansReproduceAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeSingleQueue, ModeGrouped, ModePartitioned, ModeSoftware} {
		rate := 5.0
		if mode == ModeSoftware {
			rate = 3 // below the MCS lock's saturation
		}
		base := testConfig(mode, workload.HERD(), rate)
		base.Warmup, base.Measure = 300, 4000
		legacy := mustRun(t, base)

		pl, err := PlanForMode(mode)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Params.Plan = pl
		viaPlan := mustRun(t, cfg)
		sameResult(t, mode.String(), legacy, viaPlan)
		if viaPlan.Dispatch != mode.String() {
			t.Fatalf("%v: dispatch label %q", mode, viaPlan.Dispatch)
		}
	}
}

// TestPlanPolicyDeterminism: every built-in policy (and the plans that carry
// them) must be fully deterministic — same seed, same Result — and actually
// reachable (randomized and stateful policies included).
func TestPlanPolicyDeterminism(t *testing.T) {
	specs := []string{
		"1x16:first-available",
		"1x16:round-robin",
		"1x16:least-outstanding",
		"1x16:least-outstanding-rr",
		"1x16:random2",
		"1x16:random3",
		"4x4:local",
		"2x8:random2",
		"jbsq1",
		"jbsq3",
	}
	for _, spec := range specs {
		pl, err := ParsePlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := planConfig(pl, workload.SyntheticGEV(), 10)
		cfg.Measure = 4000
		a, b := mustRun(t, cfg), mustRun(t, cfg)
		sameResult(t, spec, a, b)
		if a.Latency.Count == 0 {
			t.Fatalf("%s: no measurements", spec)
		}
		if a.Dispatch != spec && pl.Name != a.Dispatch {
			t.Fatalf("%s: dispatch label %q", spec, a.Dispatch)
		}
		cfg.Seed = 99
		c := mustRun(t, cfg)
		if a.Latency == c.Latency {
			t.Fatalf("%s: different seeds produced identical latency streams", spec)
		}
	}
}

// TestPlanGroupings: alternate groupings the Mode enum could not express
// wire up, run, and keep every core busy.
func TestPlanGroupings(t *testing.T) {
	for _, spec := range []string{"2x8", "8x2"} {
		pl, err := ParsePlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := planConfig(pl, workload.SyntheticExp(), 10)
		res := mustRun(t, cfg)
		if res.Latency.Count == 0 || res.TimedOut {
			t.Fatalf("%s: run failed: %v", spec, res)
		}
		for i, u := range res.CoreUtilization {
			if u <= 0 {
				t.Fatalf("%s: core %d never worked", spec, i)
			}
		}
	}
}

// TestJBSQBound: JBSQ(n) must never hold more than n outstanding per core.
// JBSQ(1)'s strict bound shows up as a throughput cost at saturation versus
// the bubble-hiding threshold 2 — the §4.3 effect, now expressible as data.
func TestJBSQBound(t *testing.T) {
	j1 := mustRun(t, planConfig(PlanJBSQ(1), workload.HERD(), 25))
	j2 := mustRun(t, planConfig(PlanJBSQ(2), workload.HERD(), 25))
	if j2.ThroughputMRPS < j1.ThroughputMRPS*0.995 {
		t.Fatalf("jbsq2 throughput %.3f below jbsq1 %.3f — the bubble should cost jbsq1",
			j2.ThroughputMRPS, j1.ThroughputMRPS)
	}
}

// TestParsePlan covers the spec grammar's error paths and shapes.
func TestParsePlan(t *testing.T) {
	good := map[string]func(pl *Plan) bool{
		"1x16":        func(pl *Plan) bool { return pl.Groups == 1 && !pl.Software },
		"single":      func(pl *Plan) bool { return pl.Groups == 1 },
		"4x4":         func(pl *Plan) bool { return pl.Groups == GroupsPerBackend },
		"16x1":        func(pl *Plan) bool { return pl.Groups == GroupsPerCore && pl.Threshold == ni.Unlimited },
		"partitioned": resolvesRSS,
		"sw":          func(pl *Plan) bool { return pl.Software },
		"software":    func(pl *Plan) bool { return pl.Software },
		"jbsq4":       func(pl *Plan) bool { return pl.Threshold == 4 && pl.Policy.Name == "least-outstanding" },
		"2x8:local":   func(pl *Plan) bool { return pl.Groups == 2 && pl.Policy.Name == "local" },
	}
	for spec, check := range good {
		pl, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if !check(pl) {
			t.Fatalf("%s: parsed to %+v", spec, pl)
		}
	}
	for _, spec := range []string{"", "bogus", "jbsq0", "jbsqx", "jbsq+02", "jbsq02", "0x16", "ax4", "sw:local", "1x16:bogus"} {
		if _, err := ParsePlan(spec); err == nil {
			t.Fatalf("%q: accepted", spec)
		}
	}
}

// resolvesRSS reports whether pl, resolved on Defaults(), assigns each
// message its dispatcher at arrival (RSS) rather than by backend.
func resolvesRSS(pl *Plan) bool {
	p := Defaults()
	p.Plan = pl
	ep, err := resolvePlan(p)
	return err == nil && ep.rss
}

// TestPlanValidation: plans that do not fit the machine must be rejected at
// construction, not at dispatch time.
func TestPlanValidation(t *testing.T) {
	bad := map[string]*Plan{
		"unsplittable groups": {Groups: 3},
		"too many groups":     {Groups: 32},
		"literal mismatch":    {Groups: 2, groupSize: 4},          // 2×4 ≠ 16 cores
		"wrapping literal":    {Groups: 16, groupSize: 1<<60 + 1}, // 16×M wraps to 16
		"negative threshold":  {Groups: 1, Threshold: -1},
	}
	for name, pl := range bad {
		cfg := planConfig(pl, workload.HERD(), 5)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ParsePlan("5x3"); err != nil {
		t.Fatal(err)
	} else if pl, _ := ParsePlan("5x3"); pl != nil {
		cfg := planConfig(pl, workload.HERD(), 5)
		if _, err := Run(cfg); err == nil {
			t.Error("5x3 on a 16-core machine: accepted")
		}
	}
}

// TestPlanLabels: synthesized names describe the resolved shape.
func TestPlanLabels(t *testing.T) {
	p := Defaults()
	cases := map[string]*Plan{
		"plan-2x8":         {Groups: 2},
		"plan-2x8/random2": {Groups: 2, Policy: mustSpec("random2")},
		"software-1x16":    {Software: true},
		"named":            {Name: "named", Groups: 1},
	}
	for want, pl := range cases {
		if got := pl.label(p); got != want {
			t.Errorf("label = %q, want %q", got, want)
		}
	}
}

// FuzzParsePlan checks that no spec panics the parser, that an accepted
// jbsqN spec is named by the base it was parsed from (so reports show what
// the user typed), and that every accepted spec either fails to build on
// Defaults() or builds with its dispatcher groups × group size equal to the
// machine's cores.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"1x16", "4x4", "16x1", "sw", "jbsq2", "2x8:random2", "5x3", "0x16", "sw:local",
		"16x1152921504606846977", "8x2305843009213693954", "jbsq+02", "jbsq02:local",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		pl, err := ParsePlan(spec)
		if err != nil {
			return
		}
		if base, _, _ := strings.Cut(spec, ":"); strings.HasPrefix(base, "jbsq") {
			if name := fmt.Sprintf("jbsq%d", pl.Threshold); name != base {
				t.Fatalf("%q: accepted as %s", spec, name)
			}
		}
		cfg := testConfig(ModeSingleQueue, workload.SyntheticFixed(), 1)
		cfg.Params.Plan = pl
		m, err := New(cfg)
		if err != nil || pl.Software {
			return
		}
		cores := cfg.Params.Cores
		size := make([]int, len(m.dispatchers))
		for _, c := range m.cores {
			size[c.disp]++
		}
		for g, n := range size {
			if n == 0 || (pl.groupSize != 0 && n != pl.groupSize) {
				t.Fatalf("%q: group %d has %d cores, want %d", spec, g, n, pl.groupSize)
			}
		}
		// Both factors are at most cores here, so the product cannot wrap.
		if pl.groupSize != 0 && (pl.groupSize > cores || len(size) > cores || len(size)*pl.groupSize != cores) {
			t.Fatalf("%q: built %d groups × %d cores on a %d-core machine", spec, len(size), pl.groupSize, cores)
		}
	})
}
