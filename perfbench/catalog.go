package main

import "rpcvalet/internal/trace"

// metricDef is one metric as BENCHMARK.json lists it. Bound, on end-to-end
// metrics only, is the share of the parent's median by which the metric
// may worsen before a change counts as a regression.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEnd are the metrics a user of the simulator sees, printed with
// --trace 0. Host metrics are host time; model_* are simulated time.
// The host-time metrics are scaled to a reference host speed (calib.go) and
// get the widest bound the format allows: the 2-core development host's
// speed drifts by up to 2x over minutes, and the scaling cancels most but
// not all of that (README.md). Counts, bytes and simulated latencies repeat
// to within a few percent and get tighter bounds.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", bound(0.25)},
	{"setup_s", "s", "lower", bound(0.25)},
	{"sim_mrps", "M/s", "higher", bound(0.25)},
	{"setup_mb", "MB", "lower", bound(0.10)},
	// figures-quick's peak follows the garbage collector's timing under two
	// concurrent sweeps; its ten-run spread reached 0.14 when the host drifted.
	{"peak_rss_mb", "MB", "lower", bound(0.25)},
	{"allocs_per_req", "count", "lower", bound(0.10)},
	{"model_p50_ns", "ns", "lower", bound(0.10)},
	{"model_p99_ns", "ns", "lower", bound(0.10)},
	{"model_p999_ns", "ns", "lower", bound(0.10)},
}

// perLayer are the single-layer metrics, printed with --trace 1. Counts and
// simulated values a workload does not exercise read 0 (no picks on
// node-herd, no pdes rounds off dc-1000-sharded, no figure times off
// figures-quick, no NI view through cluster.Result).
var perLayer = func() []metricDef {
	ms := []metricDef{
		{Name: "sim.event_ns.depth64", Unit: "ns", Better: "lower"},
		{Name: "sim.event_ns.depth64k", Unit: "ns", Better: "lower"},
		{Name: "arrival.draw_ns", Unit: "ns", Better: "lower"},
		{Name: "fifo.push_pop_ns", Unit: "ns", Better: "lower"},
		{Name: "sonuma.packet_ns", Unit: "ns", Better: "lower"},
		{Name: "ni.dispatch_ns", Unit: "ns", Better: "lower"},
		{Name: "metrics.complete_ns", Unit: "ns", Better: "lower"},
		{Name: "trace.record_ns", Unit: "ns", Better: "lower"},
		{Name: "pdes.round_us", Unit: "us", Better: "lower"},
		{Name: "stats.summarize_ms", Unit: "ms", Better: "lower"},
		{Name: "sim.event_allocs.depth64", Unit: "count", Better: "lower"},
		{Name: "sim.event_allocs.depth64k", Unit: "count", Better: "lower"},
		{Name: "arrival.draw_allocs", Unit: "count", Better: "lower"},
		{Name: "fifo.push_pop_allocs", Unit: "count", Better: "lower"},
		{Name: "sonuma.packet_allocs", Unit: "count", Better: "lower"},
		{Name: "ni.dispatch_allocs", Unit: "count", Better: "lower"},
		{Name: "metrics.complete_allocs", Unit: "count", Better: "lower"},
		{Name: "trace.record_allocs", Unit: "count", Better: "lower"},
		{Name: "pdes.round_allocs", Unit: "count", Better: "lower"},
		{Name: "stats.summarize_allocs", Unit: "count", Better: "lower"},
		{Name: "machine.setup_us_per_node", Unit: "us", Better: "lower"},
		{Name: "machine.setup_kb_per_node", Unit: "KB", Better: "lower"},
		{Name: "sonuma.setup_kb_per_node", Unit: "KB", Better: "lower"},
		{Name: "cluster.pick_ns", Unit: "ns", Better: "lower"},
		{Name: "cluster.picks_per_req", Unit: "count", Better: "lower"},
		{Name: "machine.wait_p99_ns", Unit: "ns", Better: "lower"},
		{Name: "ni.max_queue_depth", Unit: "count", Better: "lower"},
		{Name: "pdes.rounds", Unit: "count", Better: "lower"},
		{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
		{Name: "core.fig_wall_s.7a", Unit: "s", Better: "lower"},
		{Name: "core.fig_wall_s.cluster", Unit: "s", Better: "lower"},
	}
	for _, ph := range tracedPhases {
		ms = append(ms, metricDef{Name: eventsPerReqName(ph), Unit: "count", Better: "lower"})
	}
	return ms
}()

func eventsPerReqName(ph trace.Phase) string { return "trace.events_per_req." + ph.String() }

// manifest is BENCHMARK.json, generated from the definitions above by
// -manifest so the file and the code cannot drift apart.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []manifestWkl `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type manifestWkl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one run keeps repeating its workload: long enough
// for 5 to 40 repeats, whose scaled medians spread far less than a few
// repeats' would (README.md). Every workload makes at least three repeats.
const runSeconds = 30

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWkl{w.name, w.why})
	}
	return m
}
