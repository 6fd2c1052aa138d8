package cluster

import (
	"reflect"
	"strings"
	"testing"

	"rpcvalet/internal/machine"
	"rpcvalet/internal/sim"
)

func TestParseFaults(t *testing.T) {
	fs, err := ParseFaults("0:x1.5")
	if err != nil || len(fs) != 1 || fs[0].Node != 0 || fs[0].Slowdown != 1.5 {
		t.Fatalf("0:x1.5 -> %+v, %v", fs, err)
	}
	fs, err = ParseFaults("1:x2,pause@1ms+200us; 3:pause@500us+100us")
	if err != nil || len(fs) != 2 {
		t.Fatalf("two entries -> %+v, %v", fs, err)
	}
	if fs[0].Node != 1 || fs[0].Slowdown != 2 || len(fs[0].Pauses) != 1 {
		t.Fatalf("entry 0 = %+v", fs[0])
	}
	if fs[1].Node != 3 || len(fs[1].Pauses) != 1 || fs[1].Pauses[0].Start != sim.FromMicros(500) {
		t.Fatalf("entry 1 = %+v", fs[1])
	}
	for _, bad := range []string{"x1.5", "a:x1.5", "-1:x2", "0:z9"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("ParseFaults(%q) accepted", bad)
		}
	}
}

// TestParseFaultsRack: the rack-scoped grammar "rackR:FAULT" parses into a
// NodeFault with Rack set, mixes freely with node-scoped entries, and
// round-trips through String.
func TestParseFaultsRack(t *testing.T) {
	fs, err := ParseFaults("rack0:pause@1ms+200us; 2:x1.5")
	if err != nil || len(fs) != 2 {
		t.Fatalf("rack+node entries -> %+v, %v", fs, err)
	}
	if !fs[0].Rack || fs[0].Node != 0 || len(fs[0].Pauses) != 1 || fs[0].Pauses[0].Start != sim.FromMicros(1000) {
		t.Fatalf("rack entry = %+v", fs[0])
	}
	if fs[1].Rack || fs[1].Node != 2 || fs[1].Slowdown != 1.5 {
		t.Fatalf("node entry = %+v", fs[1])
	}
	if got := fs[0].String(); got != "rack0:pause@1000us+200us" {
		t.Fatalf("rack fault String = %q", got)
	}
	fs, err = ParseFaults("rack3:x2,pause@500us+100us")
	if err != nil || len(fs) != 1 || !fs[0].Rack || fs[0].Node != 3 || fs[0].Slowdown != 2 {
		t.Fatalf("rack3 compound -> %+v, %v", fs, err)
	}
	for _, bad := range []string{"rack:x2", "rack-1:x2", "rackx:x2", "rack1.5:x2"} {
		_, err := ParseFaults(bad)
		if err == nil {
			t.Errorf("ParseFaults(%q) accepted", bad)
			continue
		}
		if !strings.Contains(err.Error(), "rack") {
			t.Errorf("ParseFaults(%q) error %q does not name the rack scope", bad, err)
		}
	}
}

// TestRackFaultValidation: rack-scoped faults are only legal on hierarchical
// configs and must name a rack that exists.
func TestRackFaultValidation(t *testing.T) {
	flat := baseConfig(4, Random{}, 0.5)
	flat.Faults = []NodeFault{{Node: 0, Rack: true, Fault: machine.Fault{Slowdown: 1.5}}}
	if _, err := Run(flat); err == nil {
		t.Error("rack-scoped fault accepted on a flat cluster")
	}

	hier := baseConfig(4, Random{}, 0.5)
	hier.Racks = 2
	hier.GlobalPolicy = Random{}
	hier.Faults = []NodeFault{{Node: 2, Rack: true, Fault: machine.Fault{Slowdown: 1.5}}}
	if _, err := Run(hier); err == nil {
		t.Error("out-of-range rack fault accepted")
	}
	hier.Faults = []NodeFault{{Node: -1, Rack: true, Fault: machine.Fault{Slowdown: 1.5}}}
	if _, err := Run(hier); err == nil {
		t.Error("negative rack fault accepted")
	}
}

func TestFaultValidation(t *testing.T) {
	good := baseConfig(2, Random{}, 0.5)
	for name, faults := range map[string][]NodeFault{
		"nodeOutOfRange": {{Node: 2, Fault: machine.Fault{Slowdown: 1.5}}},
		"negativeNode":   {{Node: -1, Fault: machine.Fault{Slowdown: 1.5}}},
		"negativeSlow":   {{Node: 0, Fault: machine.Fault{Slowdown: -2}}},
	} {
		cfg := good
		cfg.Faults = faults
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: invalid faults accepted", name)
		}
	}
}

// TestDegradedNodeShiftsLoadUnderJSQ: with one node slowed down, a
// queue-aware balancer routes around it — the degraded node completes less
// than its fair share — while blind random routing keeps feeding it and
// pays at the tail.
func TestDegradedNodeShiftsLoadUnderJSQ(t *testing.T) {
	jsq := baseConfig(4, JSQ{D: 2}, 0.6)
	jsq.Faults = []NodeFault{{Node: 0, Fault: machine.Fault{Slowdown: 1.5}}}
	jres := run(t, jsq)

	fair := float64(jres.Completed) / 4
	if got := float64(jres.NodeCompleted[0]); got > 0.95*fair {
		t.Fatalf("JSQ kept feeding the slow node: %v of fair %v", got, fair)
	}
	if jres.NodeFaults[0] != "x1.5" || jres.NodeFaults[1] != "healthy" {
		t.Fatalf("fault labels = %v", jres.NodeFaults)
	}

	rnd := baseConfig(4, Random{}, 0.6)
	rnd.Faults = jsq.Faults
	rres := run(t, rnd)
	if rres.Latency.P99 <= jres.Latency.P99 {
		t.Fatalf("random should pay more at the tail than JSQ under degradation: %v vs %v",
			rres.Latency.P99, jres.Latency.P99)
	}
}

// TestDegradedMarginWidens: the JSQ-over-random advantage must be wider with
// a degraded node than at uniform speed — the transient-figure claim at
// test scale.
func TestDegradedMarginWidens(t *testing.T) {
	margin := func(faults []NodeFault) float64 {
		r := baseConfig(4, Random{}, 0.65)
		r.Faults = faults
		j := baseConfig(4, JSQ{D: 2}, 0.65)
		j.Faults = faults
		rres, jres := run(t, r), run(t, j)
		return rres.Latency.P99 / jres.Latency.P99
	}
	uniform := margin(nil)
	degraded := margin([]NodeFault{{Node: 0, Fault: machine.Fault{Slowdown: 1.5}}})
	if degraded <= uniform {
		t.Fatalf("degraded margin %.2f not wider than uniform %.2f", degraded, uniform)
	}
}

// TestClusterTimelines: the aggregate and per-node timelines are populated,
// aligned, and account for every completion.
func TestClusterTimelines(t *testing.T) {
	cfg := baseConfig(3, &RoundRobin{}, 0.5)
	cfg.Epoch = 20 * sim.Microsecond
	res := run(t, cfg)

	if len(res.Timeline.Epochs) == 0 {
		t.Fatal("aggregate timeline empty")
	}
	total := 0
	for _, e := range res.Timeline.Epochs {
		total += e.Completions
	}
	if total != res.Completed {
		t.Fatalf("aggregate timeline completions %d != %d", total, res.Completed)
	}
	if len(res.NodeTimelines) != 3 {
		t.Fatalf("node timelines = %d", len(res.NodeTimelines))
	}
	nodeTotal := 0
	for i, tl := range res.NodeTimelines {
		if len(tl.Epochs) == 0 {
			t.Fatalf("node %d timeline empty", i)
		}
		for _, e := range tl.Epochs {
			nodeTotal += e.Completions
		}
	}
	if nodeTotal != res.Completed {
		t.Fatalf("node timeline completions %d != %d", nodeTotal, res.Completed)
	}
}

// TestPausedNodeVisibleInNodeTimeline: a long pause on one node shows up as
// a throughput hole in that node's timeline and nowhere else.
func TestPausedNodeVisibleInNodeTimeline(t *testing.T) {
	cfg := baseConfig(2, &RoundRobin{}, 0.4)
	cfg.Epoch = 50 * sim.Microsecond
	pause := machine.Pause{Start: 200 * sim.Microsecond, Dur: 150 * sim.Microsecond}
	cfg.Faults = []NodeFault{{Node: 1, Fault: machine.Fault{Pauses: []machine.Pause{pause}}}}
	res := run(t, cfg)

	mid := pause.Start + pause.Dur/2
	healthy, paused := res.NodeTimelines[0], res.NodeTimelines[1]
	hIdx, pIdx := healthy.EpochIndex(mid.Nanos()), paused.EpochIndex(mid.Nanos())
	if hIdx < 0 || pIdx < 0 {
		t.Fatal("pause window outside both timelines")
	}
	hThr, pThr := healthy.Epochs[hIdx].ThroughputMRPS, paused.Epochs[pIdx].ThroughputMRPS
	if pThr > 0.5*hThr {
		t.Fatalf("paused node throughput %.2f not depressed vs healthy %.2f", pThr, hThr)
	}
}

// FuzzParseFaults checks that no spec panics the -degrade parser and that
// every accepted spec's entries, written back with String() and joined by
// ";", parse back to equal faults (slowdown 0 and 1 both mean full speed,
// so String writes neither).
func FuzzParseFaults(f *testing.F) {
	for _, seed := range []string{
		"", ";", "0:x1.5", "0:x2,pause@1ms+200us;3:pause@500us+100us",
		"rack0:pause@1ms+500us", "rack-1:x2", "+3:x1", "2:healthy", "0:x1",
		"0", "x:x2", "0:xNaN", "1:pause@1000s+1ms", "0:x2:x3",
	} {
		f.Add(seed)
	}
	write := func(fs []NodeFault) string {
		parts := make([]string, len(fs))
		for i, nf := range fs {
			parts[i] = nf.String()
		}
		return strings.Join(parts, ";")
	}
	norm := func(fs []NodeFault) []NodeFault {
		for i := range fs {
			if fs[i].Slowdown == 1 {
				fs[i].Slowdown = 0
			}
		}
		return fs
	}
	f.Fuzz(func(t *testing.T, spec string) {
		got, err := ParseFaults(spec)
		if err != nil {
			return
		}
		back, err := ParseFaults(write(got))
		if err != nil {
			t.Fatalf("ParseFaults(%q) = %v, which does not parse back: %v", spec, got, err)
		}
		if !reflect.DeepEqual(norm(back), norm(got)) {
			t.Fatalf("ParseFaults(%q) = %+v, %q parses back to %+v", spec, got, write(got), back)
		}
	})
}
