// Package rpcvalet is a library-scale reproduction of "RPCValet: NI-Driven
// Tail-Aware Balancing of µs-Scale RPCs" (Daglis, Sutherland, Falsafi —
// ASPLOS 2019).
//
// The paper proposes dispatching incoming RPCs to the cores of a manycore
// server from an on-chip integrated network interface (NI), using real-time
// per-core occupancy to emulate the theoretically optimal single-queue
// system without software synchronization. This package exposes the
// reproduction's full pipeline:
//
//   - a deterministic discrete-event model of the 16-core soNUMA server with
//     Manycore NIs (the paper's evaluation platform), including the native
//     messaging protocol extension (send/replenish), NI dispatchers, the
//     RSS-style partitioned baseline, and the MCS-locked software single
//     queue;
//   - the paper's workload profiles (synthetic fixed/uniform/exponential/GEV,
//     HERD-like, Masstree-like);
//   - the §2.2 queueing-theory models and closed-form validation;
//   - the experiment harness that regenerates every evaluation figure.
//
// # Quick start
//
//	cfg := rpcvalet.Config{
//	    Params:   rpcvalet.DefaultParams(),
//	    Workload: rpcvalet.HERD(),
//	    RateMRPS: 10,
//	    Warmup:   1000,
//	    Measure:  20000,
//	    Seed:     1,
//	}
//	res, err := rpcvalet.Run(cfg)
//	// res.Latency.P99 is the 99th-percentile RPC latency in nanoseconds.
//
// All simulated latencies are virtual-time measurements: the Go runtime
// never contaminates them. Identical seeds produce identical results.
//
// # Arrival processes
//
// The machine (Config) and the cluster (Cluster) accept an optional Arrival
// field selecting the traffic model: Poisson (the default), MMPP2 (bursty),
// Deterministic (fixed-gap), or LognormalGap (heavy-tailed gaps). A nil
// Arrival means Poisson at the configured rate and reproduces byte-identical
// result streams for existing seeds; setting Arrival changes only the shape
// of the traffic, with the mean rate still taken from RateMRPS. The queueing
// models (QueueModel) and the live runtime (LiveConfig) are always Poisson.
// Build processes with ArrivalByName, ArrivalPoisson, ArrivalMMPP2 or
// ArrivalModulated.
//
// # Dispatch plans
//
// The NI dispatch stage is a policy point (§4.3): the paper's four
// evaluated configurations are canned instances of a declarative
// DispatchPlan — core grouping × dispatch policy × outstanding threshold ×
// hardware-vs-software queue placement. Set Params.Plan to go beyond the
// legacy Mode enum: JBSQ(n) bounded-outstanding dispatch (rpcvalet.JBSQ),
// alternate groupings ("2x8"), and per-dispatcher policies
// ("least-outstanding", "random2", "local", ...). A nil Plan means the
// canned plan for Params.Mode, byte-for-byte reproducing historical result
// streams. Build plans with ParseDispatchPlan or the machine constructors;
// Cluster.NodePlans assigns plans node by node for heterogeneous racks.
//
// # Transients & faults
//
// Every Result has a Timeline method: the run sliced into fixed
// virtual-time epochs, each with its own throughput, latency percentiles,
// queue depth, and utilization — the time-resolved view that makes
// transients visible. It is summarized when called, not when the run ends.
// Two scenario axes drive them: ArrivalModulated wraps any arrival process
// with a rate Envelope (step, pulse, ramp or square wave), and degraded-node
// injection (Config.Fault on a machine, Cluster.Faults per node or rack)
// models slow or stalling servers. The "transient" figure checks that
// single-queue NI dispatch recovers from a 2× load pulse in fewer epochs
// than the partitioned baseline, and that queue-aware cluster balancing
// widens its advantage when a node degrades.
//
// # Sharded simulation
//
// Cluster runs can execute on parallel engine shards: Cluster.Shards > 1
// partitions the node set into per-shard event wheels, each on its own
// goroutine, plus a balancer shard, all advanced in conservative lockstep
// rounds exactly one Hop wide — the network hop is the lookahead bound, so
// no cross-shard event can take effect inside the round that emitted it.
// Shards ≤ 1 (the zero value) runs the historical single-clock engine,
// byte-identical to every pinned result; sharded runs are themselves
// deterministic for a fixed (Seed, Shards) pair and partition-independent
// across shard counts ≥ 2. Core Options.Shards and the CLIs' -shards flag
// thread the knob through every cluster sweep, with worker budgeting that
// keeps Workers the cap on total goroutines. See DESIGN.md §8.
//
// # Observability
//
// Every runtime can explain its tail request by request. Each streams every
// lifecycle event to the one TraceRecorder on its Config.Trace (Cluster.Trace,
// LiveConfig.Trace). NewCapture(k, n, collect) builds the capture the CLIs
// use: its Recorder keeps the K slowest requests as Spans (TailSpans) —
// per-request latency decomposed into balancer hop, queue wait, dispatch, and
// service legs, with core/node attribution and the queue depth each request
// arrived into — beside, when collect is set, the spans of one request in N
// for offline analysis (WriteJSONL, WriteJSONLFile: one JSON object per
// line). Tracing is passive, costs zero allocations when disabled, and never
// perturbs the simulated schedule — traced and untraced runs are
// byte-identical. The obs exports serve live runs' counters and latency
// histograms in Prometheus text format (ServeObs: /metrics, /healthz,
// /debug/pprof). See DESIGN.md §7.
package rpcvalet

import (
	"fmt"

	"rpcvalet/internal/arrival"
	"rpcvalet/internal/cluster"
	"rpcvalet/internal/core"
	"rpcvalet/internal/live"
	"rpcvalet/internal/machine"
	"rpcvalet/internal/metrics"
	"rpcvalet/internal/ni"
	"rpcvalet/internal/obs"
	"rpcvalet/internal/queueing"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/trace"
	"rpcvalet/internal/workload"
)

// Mode selects the load-balancing configuration under test (§6 of the
// paper). See the constants below.
type Mode = machine.Mode

// The four evaluated configurations.
const (
	// ModeSingleQueue is RPCValet: NI-driven dispatch of all cores from
	// one queue (Model 1×16).
	ModeSingleQueue = machine.ModeSingleQueue
	// ModeGrouped restricts each NI backend to its mesh row (Model 4×4).
	ModeGrouped = machine.ModeGrouped
	// ModePartitioned is the RSS-style static baseline (Model 16×1).
	ModePartitioned = machine.ModePartitioned
	// ModeSoftware is the MCS-locked software single queue.
	ModeSoftware = machine.ModeSoftware
)

// Params are the values of the modeled server a run varies: core and
// backend counts, messaging domain, dispatch plan and threshold, and the
// network round trip. The chip's calibrated costs are fixed (DESIGN.md §2).
type Params = machine.Params

// DispatchPlan declaratively describes the NI dispatch architecture: core
// grouping × policy × outstanding threshold × hardware-vs-software queue
// placement. Set it on Params.Plan (it overrides Mode) or per node via
// Cluster.NodePlans. The four legacy modes are canned plans; JBSQ and
// ParseDispatchPlan build the rest.
type DispatchPlan = machine.Plan

// DispatchPolicy selects which available core a dispatcher hands the head
// message to — the paper's "sophisticated, even microcoded, policies" hook.
// Implement it directly, or name a built-in via DispatchPolicyByName.
//
// Pick(msg, view) returns a position in the dispatcher's group, not a core
// ID, and reads occupancy through the DispatchView: bitmap sets of the
// available and least-loaded positions over the dispatcher's depth index.
// This replaced Pick(msg, available, outstanding []int), a breaking change
// for custom policies: the position of the k-th available core is
// view.Available().Nth(k), and its core ID view.Core(position).
type DispatchPolicy = ni.Policy

// DispatchView is what a DispatchPolicy decides over: one dispatcher's
// per-core outstanding counts, indexed by depth.
type DispatchView = ni.View

// DispatchMsg is the message-completion token a dispatcher hands a core.
type DispatchMsg = ni.Msg

// DispatchGroup describes the dispatcher a policy instance serves, for
// DispatchPolicySpec.New.
type DispatchGroup = ni.Group

// DispatchPolicySpec names a dispatch policy and builds a fresh,
// deterministically seeded instance per dispatcher.
type DispatchPolicySpec = ni.Spec

// DispatchPolicies lists the built-in dispatch-policy names in report
// order: first-available, round-robin, least-outstanding,
// least-outstanding-rr, random2 (randomN for any N ≥ 2), local.
func DispatchPolicies() []string { return append([]string(nil), ni.PolicyNames...) }

// DispatchPolicyByName resolves a built-in dispatch-policy name.
func DispatchPolicyByName(name string) (DispatchPolicySpec, error) { return ni.SpecByName(name) }

// ParseDispatchPlan builds a plan from the compact spec grammar shared with
// the CLIs' -dispatch flags: "1x16" | "4x4" | "16x1" | "sw" | "jbsqN" |
// "GxM", optionally suffixed ":policy" (e.g. "1x16:least-outstanding",
// "2x8:random2").
func ParseDispatchPlan(spec string) (*DispatchPlan, error) { return machine.ParsePlan(spec) }

// PlanForMode returns the canned plan reproducing a legacy Mode,
// byte-for-byte.
func PlanForMode(m Mode) (*DispatchPlan, error) { return machine.PlanForMode(m) }

// JBSQ returns the nanoPU-style JBSQ(n) plan: one shared queue, at most n
// outstanding requests per core, shortest-bounded-queue arbitration. JBSQ(1)
// is the strict single-queue ideal (with the dispatch round-trip bubble);
// n=2 matches the paper's default threshold.
func JBSQ(n int) *DispatchPlan { return machine.PlanJBSQ(n) }

// DefaultParams returns the paper's server: 16 cores, 4 NI backends, a
// 200-node messaging domain, RPCValet 1×16 at threshold 2.
func DefaultParams() Params { return machine.Defaults() }

// Config describes one machine simulation.
type Config = machine.Config

// Result is the measured outcome of one simulation.
type Result = machine.Result

// Run simulates one configuration and returns its measurements.
func Run(cfg Config) (Result, error) { return machine.Run(cfg) }

// Profile describes a workload: request classes, sizes, and SLO.
type Profile = workload.Profile

// HERD returns the HERD-like key-value-store profile (Fig 6b; mean 330 ns).
func HERD() Profile { return workload.HERD() }

// Masstree returns the Masstree-like profile: 99% gets (mean 1.25 µs) and 1%
// scans (60–120 µs), with a 12.5 µs SLO on gets (Fig 6c, §6.1).
func Masstree() Profile { return workload.Masstree() }

// Synthetic returns one of the §5 synthetic profiles: "fixed", "uniform",
// "exp", or "gev" — a 300 ns base plus a 300 ns (mean) distributed extra.
func Synthetic(kind string) (Profile, error) { return workload.Synthetic(kind) }

// ArrivalProcess generates the interarrival gaps of an open-loop traffic
// stream. Set it on Config.Arrival or Cluster.Arrival to replace the default
// Poisson stream; the process's shape is preserved while its mean rate
// follows the configuration's RateMRPS.
type ArrivalProcess = arrival.Process

// ArrivalKinds lists the built-in arrival process names in report order:
// "poisson", "det", "mmpp2", "lognormal".
func ArrivalKinds() []string { return append([]string(nil), arrival.Names...) }

// ArrivalByName builds a named arrival process at the given mean rate with
// default shape parameters. See ArrivalKinds.
func ArrivalByName(name string, rateMRPS float64) (ArrivalProcess, error) {
	return arrival.ByName(name, rateMRPS)
}

// ArrivalPoisson returns the memoryless default arrival process at rateMRPS.
func ArrivalPoisson(rateMRPS float64) ArrivalProcess { return arrival.PoissonAtMRPS(rateMRPS) }

// ArrivalMMPP2 returns a two-state Markov-modulated Poisson process with
// overall mean rate rateMRPS, burst rate burstRatio times the calm rate, and
// the given mean state dwells in nanoseconds.
func ArrivalMMPP2(rateMRPS, burstRatio, calmDwellNanos, burstDwellNanos float64) ArrivalProcess {
	return arrival.NewMMPP2(rateMRPS, burstRatio, calmDwellNanos, burstDwellNanos)
}

// Duration is a span of virtual time in integer picoseconds — the type of
// every duration-valued config field (Epoch, MaxSimTime, Cluster.Hop,
// Pause windows).
type Duration = sim.Duration

// Virtual-time units for duration-valued config fields.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// ParseDuration parses a virtual-time span with an optional unit suffix:
// "500ns", "50us", "1.5ms", "2s", or a bare nanosecond count, up to 1000 s.
func ParseDuration(s string) (Duration, error) { return sim.ParseDuration(s) }

// Envelope is a deterministic rate-modulation profile over virtual time — a
// factor multiplying a base arrival process's instantaneous rate. Build one
// with ParseEnvelope (or EnvelopePulse), then wrap any arrival process with
// ArrivalModulated.
type Envelope = arrival.Envelope

// ArrivalModulated wraps base with a rate envelope: the traffic's shape (gap
// CV, burst structure) is preserved while its instantaneous rate follows
// base-rate × envelope factor. Config.RateMRPS keeps meaning the factor-1
// rate, so sweeps re-rate the base as usual.
func ArrivalModulated(base ArrivalProcess, env Envelope) ArrivalProcess {
	return arrival.NewModulated(base, env)
}

// EnvelopePulse holds factor over [startNanos, startNanos+durNanos) — a
// bounded overload burst.
func EnvelopePulse(startNanos, durNanos, factor float64) Envelope {
	return arrival.NewPulse(startNanos, durNanos, factor)
}

// ParseEnvelope parses the CLI -modulate grammar: a load step
// ("step@400us:x2"), a bounded pulse ("pulse@400us+200us:x2"), a linear ramp
// held at its end ("ramp@100us+500us:x3"), or a square wave of period/high
// time ("square@200us/50us:x2.5").
func ParseEnvelope(spec string) (Envelope, error) { return arrival.ParseEnvelope(spec) }

// Timeline is the epoch-sliced, time-resolved view a Result's Timeline
// method summarizes: per-epoch throughput, latency and wait percentiles,
// queue depth, and utilization over the whole run.
type Timeline = metrics.Timeline

// EpochStats is one Timeline slice.
type EpochStats = metrics.EpochStats

// Pause is a stall window: a core beginning work inside it stalls until the
// window ends (a GC pause or power event). Set in a Fault on Config.Fault or a
// cluster NodeFault.
type Pause = machine.Pause

// Fault bundles one machine's degradation (service slowdown + pauses);
// ParseFault reads the "-degrade" grammar ("x1.5", "pause@200us+100us").
type Fault = machine.Fault

// ParseFault parses the single-machine -degrade grammar.
func ParseFault(spec string) (Fault, error) { return machine.ParseFault(spec) }

// NodeFault assigns one cluster node a fault. Set on Cluster.Faults.
type NodeFault = cluster.NodeFault

// ParseNodeFaults parses the cluster -degrade grammar: semicolon-separated
// "SCOPE:FAULT" entries where a scope is a node index or "rackR" for a whole
// rack (hierarchical runs), e.g. "0:x1.5;3:pause@500us+100us" or
// "rack0:pause@1ms+500us".
func ParseNodeFaults(spec string) ([]NodeFault, error) { return cluster.ParseFaults(spec) }

// Curve is a measured latency-throughput series for one configuration.
type Curve = core.Curve

// CurvePoint is one point of a Curve.
type CurvePoint = core.Point

// Sweep runs cfg at each offered rate (in MRPS) and returns the curve.
// Points run concurrently on up to NumCPU workers; results are deterministic
// for a given seed regardless of the worker count.
func Sweep(cfg Config, ratesMRPS []float64, label string) (Curve, error) {
	return core.MachineSweep(cfg, ratesMRPS, label, 0)
}

// CapacityMRPS estimates the configuration's saturation throughput.
func CapacityMRPS(p Params, wl Profile) float64 { return core.CapacityMRPS(p, wl) }

// RateGrid builds n offered-load points spanning lo..hi fractions of a
// capacity estimate, for use with Sweep.
func RateGrid(capacity, lo, hi float64, n int) []float64 {
	return core.RateGrid(capacity, lo, hi, n)
}

// Cluster describes a rack-scale simulation: N independent server models
// sharing one virtual clock behind a front-end balancer that routes an
// aggregate Poisson arrival stream node by node, charging each RPC a network
// hop. Set Shards > 1 to run the node set on parallel per-shard engines
// synchronized conservatively at the hop (see "Sharded simulation" above).
// Set Racks >= 1 (with GlobalPolicy and GlobalHop) to stack a second
// dispatch tier: a global balancer routing over per-rack balancers by rack
// aggregate queue depth — the two-tier datacenter topology. One rack with a
// zero global hop reproduces the flat cluster byte-for-byte. See
// DefaultCluster for a ready-made starting point.
type Cluster = cluster.Config

// ClusterResult is the measured outcome of one cluster run.
type ClusterResult = cluster.Result

// ClusterPolicy routes RPCs to nodes at the cluster front end. Built-ins
// (random, round-robin, JSQ(d), bounded-load) come from ClusterPolicyByName;
// custom policies implement the interface directly.
type ClusterPolicy = cluster.Policy

// ClusterPolicyByName builds a fresh balancing policy: "random", "rr",
// "jsqD" for any d ≥ 2 (e.g. "jsq2"), "jsqfull" (whole-cluster JSQ, served
// by the balancer's depth index at O(N/64) per decision), "bounded", or
// "boundedF" for a finite load factor F ≥ 1 (e.g. "bounded1.5").
func ClusterPolicyByName(name string) (ClusterPolicy, error) {
	return cluster.PolicyByName(name)
}

// ClusterPolicies lists the canonical policy names in report order.
func ClusterPolicies() []string { return append([]string(nil), cluster.PolicyNames...) }

// DefaultCluster builds a cluster of n paper-default servers serving wl
// behind policy, with a 500 ns balancer→node hop, 70% of the estimated
// aggregate capacity offered, and measurement sizing that matches the
// single-node quick start. Override fields as needed before RunCluster —
// in particular, set Arrival (e.g. via ArrivalByName) to drive the cluster
// with non-Poisson traffic at the same aggregate rate.
func DefaultCluster(n int, wl Profile, policy ClusterPolicy) Cluster {
	cfg := Cluster{
		Nodes:   n,
		Node:    machine.Config{Params: machine.Defaults(), Workload: wl},
		Policy:  policy,
		Hop:     500 * sim.Nanosecond,
		Warmup:  1000,
		Measure: 20000,
		Seed:    1,
	}
	cfg.RateMRPS = 0.7 * ClusterCapacityMRPS(cfg)
	return cfg
}

// RunCluster simulates one cluster configuration and returns its
// measurements. Identical configurations produce identical results.
func RunCluster(cfg Cluster) (ClusterResult, error) { return cluster.Run(cfg) }

// ClusterSweep runs cfg at each aggregate offered rate (in MRPS) and returns
// the curve. Points run concurrently on up to NumCPU workers; results are
// deterministic for a given seed regardless of the worker count.
func ClusterSweep(cfg Cluster, ratesMRPS []float64, label string) (Curve, error) {
	return core.ClusterSweep(cfg, ratesMRPS, label, 0)
}

// ClusterSweepWorkers is ClusterSweep with an explicit cap on concurrently
// running simulations (0 = NumCPU).
func ClusterSweepWorkers(cfg Cluster, ratesMRPS []float64, label string, workers int) (Curve, error) {
	return core.ClusterSweep(cfg, ratesMRPS, label, workers)
}

// ClusterCapacityMRPS estimates the cluster's aggregate saturation
// throughput: node count × single-node capacity.
func ClusterCapacityMRPS(cfg Cluster) float64 { return core.ClusterCapacityMRPS(cfg) }

// LiveConfig describes one run of the live goroutine runtime: the dispatch
// plan executed with real goroutines on wall-clock time (a shared channel
// for a plain 1x16, the plan's NI dispatchers for every other plan),
// serving calibrated spin-work (or timer-sleep, on oversubscribed hosts)
// service times synthesized from a workload Profile, under an open-loop load
// generator. See internal/live's package documentation and DESIGN.md §6 for
// what wall-clock measurements do and do not validate.
type LiveConfig = live.Config

// LiveResult is the measured outcome of one live run, in the same shapes the
// simulator results use (stats.Summary percentiles, a metrics.Timeline).
type LiveResult = live.Result

// LiveEmulation selects how a sampled service time occupies a live worker:
// calibrated spin-work or a timer sleep.
type LiveEmulation = live.Emulation

// The live service-emulation modes.
const (
	// LiveAuto picks spin when the host has two cores beyond the worker
	// count, else sleep.
	LiveAuto = live.EmulationAuto
	// LiveSpin burns calibrated busy-work: service genuinely occupies a CPU.
	LiveSpin = live.EmulationSpin
	// LiveSleep parks the goroutine on a timer: queueing stays wall-clock
	// real while service consumes no CPU (the only honest option when
	// workers outnumber cores).
	LiveSleep = live.EmulationSleep
)

// RunLive executes one live configuration — real goroutines, wall-clock
// time — and returns its measurements. The offered schedule (arrivals,
// classes, service draws) is deterministic in the seed; the measured
// latencies are not.
func RunLive(cfg LiveConfig) (LiveResult, error) { return live.Run(cfg) }

// LiveCapacityMRPS estimates the live configuration's saturation throughput:
// workers over the scaled mean service time.
func LiveCapacityMRPS(cfg LiveConfig) float64 { return live.CapacityMRPS(cfg) }

// Span is the end-to-end anatomy of one request: its lifecycle milestones
// (balancer receive, forward, arrival, dispatch, service start, completion)
// with derived legs (HopNs, QueueWaitNs, DispatchNs, ServiceNs, WaitShare)
// and attribution (node, core, queue depth at arrival). Unobserved
// milestones are TraceUnset; fields a runtime cannot measure stay that way
// (the live runtime has no dispatch timestamp, single-machine runs have no
// balancer phases).
type Span = trace.Span

// TraceEvent is one request-lifecycle milestone emitted by a simulator or
// reconstructed by the live runtime.
type TraceEvent = trace.Event

// TracePhase names a lifecycle milestone; phases order causally via Rank.
type TracePhase = trace.Phase

// The request-lifecycle phases, in causal order.
const (
	TraceBalancerRecv = trace.PhaseBalancerRecv
	TraceForward      = trace.PhaseForward
	TraceArrive       = trace.PhaseArrive
	TraceDispatch     = trace.PhaseDispatch
	TraceStart        = trace.PhaseStart
	TraceComplete     = trace.PhaseComplete
)

// TraceUnset marks a span milestone that was never observed.
const TraceUnset = trace.Unset

// TraceRecorder consumes lifecycle events. Set one on Config.Trace,
// Cluster.Trace, or LiveConfig.Trace — a Capture's Recorder, or your own.
type TraceRecorder = trace.Recorder

// Capture is one run's span capture: a tail of the slowest requests seeing
// every request, beside a 1-in-N span collection for JSON-lines export.
// Set its Recorder on a Config.Trace; after the run read TailSpans and write
// the collection with WriteJSONL or WriteJSONLFile.
type Capture = obs.Capture

// NewCapture keeps the tailK slowest requests (none when tailK ≤ 0) and,
// when collect is set, the spans of one request in sample (every request
// when sample ≤ 1). A capture keeping nothing has a nil Recorder.
func NewCapture(tailK, sample int, collect bool) *Capture {
	return obs.NewCapture(tailK, sample, collect)
}

// ObsRegistry holds named Prometheus-style instruments (counters, gauges,
// latency histograms) and writes them in text exposition format v0.0.4.
type ObsRegistry = obs.Registry

// NewObsRegistry builds an empty instrument registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// ObsLabels are the label set attached to an instrument.
type ObsLabels = obs.Labels

// ObsRunMetrics bundles the standard per-run instruments (offered /
// completed / dropped counters, inflight gauge, latency and wait
// histograms). Set it on LiveConfig.Obs to have a live run feed them while
// serving.
type ObsRunMetrics = obs.RunMetrics

// NewObsRunMetrics registers the standard run instruments under the given
// labels (e.g. the dispatch plan).
func NewObsRunMetrics(reg *ObsRegistry, labels ObsLabels) *ObsRunMetrics {
	return obs.NewRunMetrics(reg, labels)
}

// ObsServer is a live observability HTTP server.
type ObsServer = obs.Server

// ServeObs serves /metrics (Prometheus text format), /healthz, and
// /debug/pprof on addr. A nil healthz reports healthy; a non-nil one turns
// errors into 503s. Close the returned server when done.
func ServeObs(addr string, reg *ObsRegistry, healthz func() error) (*ObsServer, error) {
	return obs.Serve(addr, reg, healthz)
}

// QueueModel describes a theoretical Q×U queueing simulation (§2.2).
type QueueModel = queueing.Config

// QueueResult is the outcome of a QueueModel run.
type QueueResult = queueing.Result

// RunQueueModel simulates a theoretical queueing system.
func RunQueueModel(cfg QueueModel) (QueueResult, error) { return queueing.Run(cfg) }

// Figure is the regenerated data for one paper figure or table.
type Figure = core.Figure

// Options scales figure regeneration.
type Options = core.Options

// QuickOptions sizes runs for fast, noisier regeneration.
func QuickOptions() Options { return core.QuickOptions() }

// FigureIDs lists the regenerable figures in presentation order.
func FigureIDs() []string { return append([]string(nil), core.FigureIDs...) }

// RegenerateFigure reproduces one paper figure ("2a", "7c", "table1", ...)
// at the given scale.
func RegenerateFigure(id string, opts Options) (Figure, error) {
	gen, ok := core.Figures[id]
	if !ok {
		return Figure{}, fmt.Errorf("rpcvalet: unknown figure %q", id)
	}
	return gen(opts)
}
