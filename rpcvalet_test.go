package rpcvalet_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"rpcvalet"
)

func TestRunFacade(t *testing.T) {
	cfg := rpcvalet.Config{
		Params:   rpcvalet.DefaultParams(),
		Workload: rpcvalet.HERD(),
		RateMRPS: 8,
		Warmup:   500,
		Measure:  8000,
		Seed:     1,
	}
	res, err := rpcvalet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.P99 <= 0 || res.ThroughputMRPS <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestSweepFacade(t *testing.T) {
	cfg := rpcvalet.Config{
		Params:   rpcvalet.DefaultParams(),
		Workload: rpcvalet.HERD(),
		Warmup:   300,
		Measure:  4000,
		Seed:     2,
	}
	cap := rpcvalet.CapacityMRPS(cfg.Params, cfg.Workload)
	curve, err := rpcvalet.Sweep(cfg, rpcvalet.RateGrid(cap, 0.2, 0.8, 3), "herd")
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 3 {
		t.Fatalf("points = %d", len(curve.Points))
	}
	if curve.ThroughputUnderSLO() <= 0 {
		t.Fatal("no point met SLO at moderate load")
	}
}

func TestModesExported(t *testing.T) {
	modes := []rpcvalet.Mode{
		rpcvalet.ModeSingleQueue, rpcvalet.ModeGrouped,
		rpcvalet.ModePartitioned, rpcvalet.ModeSoftware,
	}
	seen := map[string]bool{}
	for _, m := range modes {
		seen[m.String()] = true
	}
	if len(seen) != 4 {
		t.Fatalf("modes collapse: %v", seen)
	}
}

func TestProfilesExported(t *testing.T) {
	if rpcvalet.HERD().Name != "herd" || rpcvalet.Masstree().Name != "masstree" {
		t.Fatal("profile names wrong")
	}
	p, err := rpcvalet.Synthetic("gev")
	if err != nil || math.Abs(p.MeanService()-600) > 6 {
		t.Fatalf("synthetic gev: %v mean=%v", err, p.MeanService())
	}
	if _, err := rpcvalet.Synthetic("nope"); err == nil {
		t.Fatal("unknown synthetic accepted")
	}
}

func TestQueueModelFacade(t *testing.T) {
	res, err := rpcvalet.RunQueueModel(rpcvalet.QueueModel{
		Queues: 1, ServersPerQueue: 16,
		Service: nil, Load: 0.5, Measure: 100,
	})
	if err == nil {
		t.Fatalf("nil service accepted: %+v", res)
	}
}

func TestRegenerateFigure(t *testing.T) {
	opts := rpcvalet.QuickOptions()
	opts.Points = 3
	opts.Measure = 3000
	opts.QGen = 5000
	fig, err := rpcvalet.RegenerateFigure("table1", opts)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "table1" || len(fig.Tables) == 0 {
		t.Fatalf("figure malformed: %+v", fig)
	}
	if _, err := rpcvalet.RegenerateFigure("nope", opts); err == nil {
		t.Fatal("unknown figure accepted")
	}
	ids := rpcvalet.FigureIDs()
	if len(ids) < 10 {
		t.Fatalf("only %d figures registered", len(ids))
	}
}

func TestRunClusterFacade(t *testing.T) {
	pol, err := rpcvalet.ClusterPolicyByName("jsq2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rpcvalet.DefaultCluster(4, rpcvalet.HERD(), pol)
	cfg.Measure = 8000
	res, err := rpcvalet.RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.P99 <= 0 || res.ThroughputMRPS <= 0 || res.Policy != "jsq2" {
		t.Fatalf("degenerate result: %+v", res)
	}
	if len(res.NodeCompleted) != 4 || res.Imbalance < 1 {
		t.Fatalf("node accounting wrong: %+v", res)
	}
}

func TestClusterSweepFacade(t *testing.T) {
	pol, err := rpcvalet.ClusterPolicyByName("rr")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rpcvalet.DefaultCluster(2, rpcvalet.HERD(), pol)
	cfg.Warmup, cfg.Measure = 300, 4000
	cap := rpcvalet.ClusterCapacityMRPS(cfg)
	curve, err := rpcvalet.ClusterSweep(cfg, rpcvalet.RateGrid(cap, 0.2, 0.8, 3), "rr")
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 3 || curve.Label != "rr" {
		t.Fatalf("curve malformed: %+v", curve)
	}
}

func TestClusterPoliciesExported(t *testing.T) {
	names := rpcvalet.ClusterPolicies()
	if len(names) < 4 {
		t.Fatalf("only %d policies: %v", len(names), names)
	}
	for _, n := range names {
		if _, err := rpcvalet.ClusterPolicyByName(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := rpcvalet.ClusterPolicyByName("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// lastAvailable is a custom dispatch policy written against the facade
// alone: the highest-positioned available core.
type lastAvailable struct{}

func (lastAvailable) Pick(_ rpcvalet.DispatchMsg, v *rpcvalet.DispatchView) int {
	avail := v.Available()
	return avail.Nth(avail.Count() - 1)
}

func (lastAvailable) String() string { return "last-available" }

// TestCustomDispatchPolicy: a policy implemented outside the module runs
// every dispatch of a 1x16 machine, so the last core is the busiest.
func TestCustomDispatchPolicy(t *testing.T) {
	p := rpcvalet.DefaultParams()
	p.Plan = &rpcvalet.DispatchPlan{Groups: 1, Policy: rpcvalet.DispatchPolicySpec{
		Name: "last-available",
		New:  func(rpcvalet.DispatchGroup) rpcvalet.DispatchPolicy { return lastAvailable{} },
	}}
	res, err := rpcvalet.Run(rpcvalet.Config{
		Params: p, Workload: rpcvalet.HERD(),
		RateMRPS: 4, Warmup: 200, Measure: 3000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	busiest := 0
	for i, u := range res.CoreUtilization {
		if u > res.CoreUtilization[busiest] {
			busiest = i
		}
	}
	if last := len(res.CoreUtilization) - 1; busiest != last {
		t.Fatalf("busiest core %d, want %d under last-available", busiest, last)
	}
}

// TestDispatchPlanAPI exercises the root-level dispatch-plan surface: named
// policies, the plan grammar, JBSQ, and per-node cluster plans.
func TestDispatchPlanAPI(t *testing.T) {
	names := rpcvalet.DispatchPolicies()
	if len(names) != 6 {
		t.Fatalf("policies = %v", names)
	}
	for _, name := range names {
		spec, err := rpcvalet.DispatchPolicyByName(name)
		if err != nil || spec.New == nil {
			t.Fatalf("%s: %+v, %v", name, spec, err)
		}
	}
	if _, err := rpcvalet.DispatchPolicyByName("bogus"); err == nil {
		t.Fatal("unknown policy accepted")
	}

	p := rpcvalet.DefaultParams()
	p.Plan = rpcvalet.JBSQ(2)
	res, err := rpcvalet.Run(rpcvalet.Config{
		Params: p, Workload: rpcvalet.HERD(),
		RateMRPS: 8, Warmup: 200, Measure: 3000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dispatch != "jbsq2" || res.Latency.Count == 0 {
		t.Fatalf("jbsq2 run: dispatch=%q count=%d", res.Dispatch, res.Latency.Count)
	}

	if _, err := rpcvalet.ParseDispatchPlan("nope"); err == nil {
		t.Fatal("bad plan spec accepted")
	}
	pl, err := rpcvalet.ParseDispatchPlan("2x8:random2")
	if err != nil {
		t.Fatal(err)
	}
	pol, err := rpcvalet.ClusterPolicyByName("jsq2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rpcvalet.DefaultCluster(2, rpcvalet.HERD(), pol)
	cfg.NodePlans = []*rpcvalet.DispatchPlan{pl, nil}
	cfg.Warmup, cfg.Measure = 200, 3000
	cres, err := rpcvalet.RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cres.NodeDispatch) != 2 || cres.NodeDispatch[0] != "2x8:random2" {
		t.Fatalf("NodeDispatch = %v", cres.NodeDispatch)
	}
}

// ExampleRun demonstrates the minimal API path. Determinism of the seeded
// simulation makes the output stable.
func ExampleRun() {
	cfg := rpcvalet.Config{
		Params:   rpcvalet.DefaultParams(),
		Workload: rpcvalet.HERD(),
		RateMRPS: 5,
		Warmup:   500,
		Measure:  5000,
		Seed:     42,
	}
	res, err := rpcvalet.Run(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("mode=%s meets SLO=%v\n", res.Dispatch, res.MeetsSLO)
	// Output: mode=rpcvalet-1x16 meets SLO=true
}

// TestTransientAPI exercises the transient-telemetry surface end to end
// through the public facade: modulated arrivals, fault injection, duration
// parsing, and the Timeline every Result carries.
func TestTransientAPI(t *testing.T) {
	env, err := rpcvalet.ParseEnvelope("pulse@200us+100us:x2")
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := rpcvalet.ParseDuration("25us")
	if err != nil || epoch != 25*rpcvalet.Microsecond {
		t.Fatalf("ParseDuration: %v %v", epoch, err)
	}
	fault, err := rpcvalet.ParseFault("x1.3,pause@350us+50us")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rpcvalet.Config{
		Params:   rpcvalet.DefaultParams(),
		Workload: rpcvalet.HERD(),
		RateMRPS: 8,
		Arrival:  rpcvalet.ArrivalModulated(rpcvalet.ArrivalPoisson(8), env),
		Warmup:   300,
		Measure:  6000,
		Seed:     3,
		Epoch:    epoch,
		Fault:    fault,
	}
	res, err := rpcvalet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline()
	if tl.EpochNanos != 25000 || len(tl.Epochs) == 0 {
		t.Fatalf("timeline not populated: %+v", tl)
	}
	total := 0
	for _, e := range tl.Epochs {
		total += e.Completions
	}
	if total != res.Completed {
		t.Fatalf("timeline completions %d != %d", total, res.Completed)
	}

	faults, err := rpcvalet.ParseNodeFaults("0:x1.5")
	if err != nil {
		t.Fatal(err)
	}
	pol, err := rpcvalet.ClusterPolicyByName("jsq2")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := rpcvalet.Synthetic("exp")
	if err != nil {
		t.Fatal(err)
	}
	ccfg := rpcvalet.DefaultCluster(2, wl, pol)
	ccfg.Faults = faults
	ccfg.Warmup, ccfg.Measure = 300, 4000
	ccfg.Epoch = epoch
	cres, err := rpcvalet.RunCluster(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if agg, nodes := cres.Timeline(), cres.NodeTimelines(); len(agg.Epochs) == 0 || len(nodes) != 2 {
		t.Fatalf("cluster timelines missing: %d agg epochs, %d nodes",
			len(agg.Epochs), len(nodes))
	}
	if cres.NodeFaults[0] != "x1.5" || cres.NodeFaults[1] != "healthy" {
		t.Fatalf("node fault labels = %v", cres.NodeFaults)
	}
	found := false
	for _, id := range rpcvalet.FigureIDs() {
		if id == "transient" {
			found = true
		}
	}
	if !found {
		t.Fatalf("transient figure not in FigureIDs: %v", rpcvalet.FigureIDs())
	}
}

func TestRunLiveFacade(t *testing.T) {
	pl, err := rpcvalet.ParseDispatchPlan("jbsq2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rpcvalet.LiveConfig{
		Plan:      pl,
		Workload:  rpcvalet.HERD(),
		Workers:   4,
		Emulation: rpcvalet.LiveSleep,
		Duration:  80 * time.Millisecond,
		Seed:      3,
	}
	cfg.RateMRPS = 0.4 * rpcvalet.LiveCapacityMRPS(cfg)
	res, err := rpcvalet.RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.Completed+res.Dropped != res.Offered {
		t.Fatalf("live bookkeeping: %+v", res)
	}
	if res.Shape != "dispatch" || res.Workers != 4 {
		t.Fatalf("live shape/workers: %s/%d", res.Shape, res.Workers)
	}
	found := false
	for _, id := range rpcvalet.FigureIDs() {
		if id == "live" {
			found = true
		}
	}
	if !found {
		t.Fatalf("live figure not in FigureIDs: %v", rpcvalet.FigureIDs())
	}
}
