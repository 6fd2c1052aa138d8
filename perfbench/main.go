// Command perfbench is the simulator's benchmark: it runs one workload,
// checks the simulated outputs, and prints every metric by name and unit,
// ending with one JSON line.
//
//	bash perfbench/run.sh --workload node-herd --seed 42 --seconds 20 --trace 0
//
// With --trace 0 it repeats the workload for --seconds and reports the
// end-to-end metrics as medians over the repeats. With --trace 1 it runs
// the layer microbenchmarks (layers.go) and one traced run beside one untraced run,
// and reports the per-layer metrics. Every simulated run, and every setup
// probe, runs in a fresh child process, so peak RSS and the allocation
// counters belong to that run alone. -manifest prints BENCHMARK.json.
//
// The exit status is 0 only when every check passed: each run completed
// warmup + measure requests without timing out, every repeat of a seed
// gave the same simulated latencies, the traced run's equal the untraced
// run's, and figures-quick's paper claims all hold.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// stderr carries progress and diagnostics; stdout carries only metrics.
var stderr io.Writer = os.Stderr

// defaultSeed is the seed when --seed is absent, the figures' own default.
const defaultSeed = 42

// minReps is the fewest repeats a --trace 0 run takes, whatever --seconds
// says, so every reported host metric is a median. Tiny runs take two, the
// fewest that still compare repeats.
func minReps(sc scale) int {
	if sc == scaleTiny {
		return 2
	}
	return 3
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: node-herd, dc-1000-sharded or figures-quick")
	seed := fs.Uint64("seed", defaultSeed, "workload seed: the same seed gives the same simulated inputs and results")
	seconds := fs.Float64("seconds", runSeconds, "host seconds to keep repeating the workload")
	traced := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the layer microbenchmarks and a traced run and reports per-layer metrics")
	scaleFlag := fs.String("scale", string(scaleFull), "full, or tiny for the tests")
	child := fs.String("child", "", "internal: run one setup, run or traced measurement in this process and print it as JSON")
	man := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *man {
		b, _ := json.MarshalIndent(buildManifest(), "", "  ")
		fmt.Fprintf(stdout, "%s\n", b)
		return 0
	}
	sc := scale(*scaleFlag)
	if sc != scaleFull && sc != scaleTiny {
		fmt.Fprintf(stderr, "perfbench: unknown -scale %q\n", *scaleFlag)
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if *child != "" {
		return runChild(*child, w, sc, *seed, stdout)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	h := harness{exe: exe, w: w, sc: sc, seed: *seed}
	fmt.Fprintf(stdout, "workload %s seed %d scale %s gomaxprocs %d\n", w.name, *seed, sc, runtime.GOMAXPROCS(0))
	var res result
	switch *traced {
	case 0:
		res = h.endToEnd(time.Duration(*seconds * float64(time.Second)))
	case 1:
		res = h.perLayer()
	default:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	res.print(stdout)
	if !res.Correct {
		return 1
	}
	return 0
}

// childReport is one child process's measurement, sent to the parent as JSON.
type childReport struct {
	WallS      float64 `json:"wall_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
	PeakRSSKB  int64   `json:"peak_rss_kb"`
	Outcome    outcome `json:"outcome"`
	Err        string  `json:"err,omitempty"`

	// Traced runs only.
	Phases map[string]uint64 `json:"phases,omitempty"`
	SpanNs float64           `json:"span_ns,omitempty"`
	Picks  int64             `json:"picks,omitempty"`
	PickNs int64             `json:"pick_ns,omitempty"`
	// TimerNs is what timing one pick adds, measured in the same process.
	TimerNs float64 `json:"timer_ns,omitempty"`
}

func runChild(kind string, w workloadDef, sc scale, seed uint64, stdout io.Writer) int {
	var rep childReport
	var p *probes
	var ms0, ms1 runtime.MemStats
	var err error
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	switch kind {
	case "setup":
		err = w.setup(sc, seed)
	case "run":
		rep.Outcome, err = w.run(sc, seed, nil)
	case "ref":
		rep.Outcome, err = w.ref(sc, seed, nil)
	case "traced":
		p = newProbes()
		if w.ref != nil {
			rep.Outcome, err = w.ref(sc, seed, p)
		} else {
			rep.Outcome, err = w.run(sc, seed, p)
		}
	default:
		err = fmt.Errorf("unknown -child %q", kind)
	}
	rep.WallS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	rep.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	rep.Mallocs = ms1.Mallocs - ms0.Mallocs
	if hwm, herr := peakRSSKB(); herr != nil {
		err = errors.Join(err, herr)
	} else {
		rep.PeakRSSKB = hwm
	}
	if p != nil {
		rep.Phases = map[string]uint64{}
		for _, ph := range tracedPhases {
			rep.Phases[ph.String()] = p.rec.n[ph]
		}
		rep.SpanNs = float64(p.rec.last) / 1e3 // sim.Time is in ps
		rep.Picks, rep.PickNs = p.pickTotals()
		rep.TimerNs = timerCostNs()
	}
	if err != nil {
		rep.Err = err.Error()
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// peakRSSKB reads the process's resident-set high-water mark.
func peakRSSKB() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// harness runs a workload's measurements in child processes.
type harness struct {
	exe  string
	w    workloadDef
	sc   scale
	seed uint64
}

func (h harness) spawn(kind string) (childReport, error) {
	cmd := exec.Command(h.exe, "-child", kind, "-workload", h.w.name,
		"-scale", string(h.sc), "-seed", strconv.FormatUint(h.seed, 10))
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return childReport{}, fmt.Errorf("%s child: %w", kind, err)
	}
	var rep childReport
	if err := json.Unmarshal(bytes.TrimSpace(out), &rep); err != nil {
		return childReport{}, fmt.Errorf("%s child: bad report: %w", kind, err)
	}
	if rep.Err != "" {
		return rep, fmt.Errorf("%s child: %s", kind, rep.Err)
	}
	return rep, nil
}

// result is what the benchmark prints: the contract's last JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes    []string // printed before the metrics, not part of the JSON line
	problems []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fail records a failed check as one failed operation.
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.Attempted++
	r.Failed++
}

// count adds one run's requests (and claims) to the totals.
func (r *result) count(o outcome) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	if o.Failed > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d of %d requests or claims failed", o.Failed, o.Attempted))
	}
}

func (r *result) print(w io.Writer) {
	r.Correct = r.Failed == 0
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-34s %14.6g ratio (%d of %d)\n", "failed_frac", frac, r.Failed, r.Attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
	if r.Attempted == 0 {
		r.Attempted = 1 // the contract wants at least one; a run that got nowhere failed it
		r.Failed = 1
		r.Correct = false
	}
	b, _ := json.Marshal(r)
	fmt.Fprintf(w, "%s\n", b)
}

// set stores a metric under its catalogue unit.
func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("perfbench: metric not in catalogue: " + name)
}

// refsPerRepeat is how many reference runs a repeat makes, on a workload
// that has one: a reference run is short, and sim_mrps needs samples.
const refsPerRepeat = 2

// scaled is one child's report with the host slowdown it ran at.
type scaled struct {
	childReport
	slow float64 // the kernel's mean slowdown just before and after it
	// setupS is, on a run, the median host time of its repeat's setup
	// probes. sim_mrps subtracts it from the run: probe and run are scaled
	// by the same slowdown, so the scaling error stays a share of the
	// difference instead of growing with the setup's share of the run.
	setupS float64
}

// scale converts a host time the child measured to the reference host
// speed (calib.go).
func (s scaled) scale(t float64) float64 { return t / math.Pow(s.slow, kernelExponent) }

// endToEnd repeats (setup probes, run, reference runs if any) until the
// window has passed and reports medians. The calibration kernel runs after
// each run and each reference run, and each one's host times are scaled to
// the reference host speed by the mean slowdown of the kernels before and
// after it (calib.go). Setup probes take their run's slowdown.
func (h harness) endToEnd(window time.Duration) result {
	res := result{Metrics: map[string]metric{}}
	var setups, runs, refs []scaled
	start := time.Now()
	slow0 := kernelSlowdown()
	// measure spawns one child and scales it by the kernels around it.
	measure := func(kind string) (scaled, error) {
		c, err := h.spawn(kind)
		if err != nil {
			return scaled{}, err
		}
		res.count(c.Outcome)
		slow1 := kernelSlowdown()
		sc := scaled{c, (slow0 + slow1) / 2, 0}
		slow0 = slow1
		return sc, nil
	}
	// addRef keeps a run that sim_mrps, allocs_per_req and model_* are
	// taken over; every one of a seed must simulate the same thing.
	addRef := func(f scaled) {
		if len(refs) > 0 && f.Outcome.Model != refs[0].Outcome.Model {
			res.fail("run %d of seed %d gave model %+v, the first gave %+v", len(refs), h.seed, f.Outcome.Model, refs[0].Outcome.Model)
		}
		refs = append(refs, f)
	}
	for len(runs) < minReps(h.sc) || time.Since(start) < window {
		var probed []childReport
		for range h.w.setupProbes {
			c, err := h.spawn("setup")
			if err != nil {
				res.fail("%v", err)
				return res
			}
			probed = append(probed, c)
		}
		r, err := measure("run")
		if err != nil {
			res.fail("%v", err)
			return res
		}
		var probeS []float64
		for _, c := range probed {
			setups = append(setups, scaled{c, r.slow, 0})
			probeS = append(probeS, c.WallS)
		}
		r.setupS = median(probeS)
		runs = append(runs, r)
		if h.w.ref == nil {
			addRef(r)
		}
		for i := 0; h.w.ref != nil && i < refsPerRepeat; i++ {
			f, err := measure("ref")
			if err != nil {
				res.fail("%v", err)
				return res
			}
			addRef(f)
		}
		fmt.Fprintf(stderr, "%s rep %d: setup %.3fs run %.3fs host slowdown %.3f\n", h.w.name, len(runs), probed[len(probed)-1].WallS, r.WallS, r.slow)
	}
	var setup, setupMB, setupMallocs []float64
	for _, s := range setups {
		setup = append(setup, s.scale(s.WallS))
		setupMB = append(setupMB, float64(s.AllocBytes)/1e6)
		setupMallocs = append(setupMallocs, float64(s.Mallocs))
	}
	setupS, setupM := median(setup), median(setupMallocs)
	var wall, rawWall, slows, rss, mrps, allocs []float64
	for _, r := range runs {
		rawWall = append(rawWall, r.WallS)
		slows = append(slows, r.slow)
		wall = append(wall, r.scale(r.WallS))
		rss = append(rss, float64(r.PeakRSSKB)*1024/1e6)
	}
	for _, f := range refs {
		o := f.Outcome
		if o.SimWallS > 0 {
			mrps = append(mrps, float64(o.Completions)/f.scale(o.SimWallS)/1e6)
			allocs = append(allocs, float64(o.SimMallocs)/float64(o.Completions))
		} else {
			mrps = append(mrps, float64(o.Completions)/f.scale(f.WallS-f.setupS)/1e6)
			allocs = append(allocs, (float64(f.Mallocs)-setupM)/float64(o.Completions))
		}
	}
	res.notes = append(res.notes,
		fmt.Sprintf("host slowdown %.4f (calibration kernel time / %g s, median of %d runs)", median(slows), kernelRefS, len(runs)),
		fmt.Sprintf("wall_s unscaled %.6g s", median(rawWall)))
	m := refs[0].Outcome.Model
	for name, v := range map[string]float64{
		"wall_s":         median(wall),
		"setup_s":        setupS,
		"sim_mrps":       median(mrps),
		"setup_mb":       median(setupMB),
		"peak_rss_mb":    median(rss),
		"allocs_per_req": median(allocs),
		"model_p50_ns":   m.P50,
		"model_p99_ns":   m.P99,
		"model_p999_ns":  m.P999,
	} {
		res.set(endToEnd, name, v)
	}
	return res
}

// perLayer runs the layer microbenchmarks, then one untraced run of the
// workload and one untraced and one traced run of its reference run (the
// run itself where it has none), and checks the last two simulated the
// same thing.
func (h harness) perLayer() result {
	res := result{Metrics: map[string]metric{}}
	layers, err := layerMetrics(h.w, h.sc)
	if err != nil {
		res.fail("layer microbenchmarks: %v", err)
		return res
	}
	for name, v := range layers {
		res.set(perLayer, name, v)
	}
	plain, err := h.spawn("run")
	if err != nil {
		res.fail("%v", err)
		return res
	}
	res.count(plain.Outcome)
	ref := plain
	if h.w.ref != nil {
		if ref, err = h.spawn("ref"); err != nil {
			res.fail("%v", err)
			return res
		}
		res.count(ref.Outcome)
	}
	tr, err := h.spawn("traced")
	if err != nil {
		res.fail("%v", err)
		return res
	}
	res.count(tr.Outcome)
	if tr.Outcome.Model != ref.Outcome.Model || tr.Outcome.Completions != ref.Outcome.Completions {
		res.fail("traced run gave model %+v over %d completions, untraced %+v over %d",
			tr.Outcome.Model, tr.Outcome.Completions, ref.Outcome.Model, ref.Outcome.Completions)
	}
	n := float64(tr.Outcome.Completions)
	pickNs, picksPerReq := 0.0, 0.0
	if tr.Picks > 0 {
		pickNs = float64(tr.PickNs)/float64(tr.Picks) - tr.TimerNs
		picksPerReq = float64(tr.Picks) / n
	}
	rounds := 0.0
	if h.w.window > 0 {
		rounds = tr.SpanNs / h.w.window.Nanos()
	}
	res.set(perLayer, "cluster.pick_ns", pickNs)
	res.set(perLayer, "cluster.picks_per_req", picksPerReq)
	res.set(perLayer, "machine.wait_p99_ns", ref.Outcome.WaitP99Ns)
	res.set(perLayer, "ni.max_queue_depth", float64(ref.Outcome.MaxQueueDepth))
	res.set(perLayer, "pdes.rounds", rounds)
	res.set(perLayer, "trace.overhead_frac", tr.WallS/ref.WallS-1)
	for _, id := range figureIDs {
		res.set(perLayer, "core.fig_wall_s."+id, plain.Outcome.FigWallS[id])
	}
	for _, ph := range tracedPhases {
		res.set(perLayer, eventsPerReqName(ph), float64(tr.Phases[ph.String()])/n)
	}
	return res
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
