package core

import (
	"fmt"

	"rpcvalet/internal/machine"
	"rpcvalet/internal/report"
	"rpcvalet/internal/trace"
	"rpcvalet/internal/workload"
)

// anatomyPlans are the dispatch plans whose tails the figure dissects: the
// partitioned baseline, the paper's bounded single queue, and the ideal
// single queue.
var anatomyPlans = []string{"16x1", "jbsq2", "1x16"}

// anatomyTailK is how many slowest requests each run retains with full span
// breakdowns. At DefaultOptions' 50k measured completions the set is the
// slowest ~0.13% — the p99.9 request and everything above it.
const anatomyTailK = 64

// anatomyLoad is the offered-load fraction of estimated capacity. 0.75 is
// past the partitioned knee for the GEV workload (its tail is already
// queueing-dominated) while the single queue still runs comfortably.
const anatomyLoad = 0.75

// tailAnatomy aggregates a tail-sample set into its wait/service split.
type tailAnatomy struct {
	res       machine.Result
	tail      []trace.Span // the run's anatomyTailK slowest, slowest first
	waitShare float64      // Σ queue-wait / Σ (arrive→complete) over the tail set
	svcShare  float64
}

func tailShares(spans []trace.Span) (wait, svc float64) {
	var w, s, tot float64
	for _, sp := range spans {
		w += sp.QueueWaitNs()
		s += sp.ServiceNs()
		tot += sp.TotalNs()
	}
	if tot == 0 {
		return 0, 0
	}
	return w / tot, s / tot
}

// figAnatomy reproduces the paper's core argument at the level of individual
// requests (§2.2, §3): under partitioned dispatch the slowest requests are
// slow because they *waited* behind someone else's long request; a single
// queue (ideal or JBSQ-bounded) removes the wait, leaving the tail dominated
// by the requests' own service time. The figure runs the heavy-tailed GEV
// workload at the same offered rate under each plan with tail capture on,
// then decomposes the retained p99.9-and-above spans into queue-wait vs
// service legs.
func figAnatomy(o Options) (Figure, error) {
	wl := workload.SyntheticGEV()
	rate := anatomyLoad * CapacityMRPS(machine.Defaults(), wl)

	runs, err := runPoints(len(anatomyPlans), o.Workers, func(i int) (tailAnatomy, error) {
		cfg := machineBase(o, wl, anatomyPlans[i])
		cfg.RateMRPS = rate
		sampler := trace.NewTailSampler(anatomyTailK)
		cfg.Trace = sampler
		cfg.MaxSimTime = machineCapSimTime(cfg, rate)
		res, err := machine.Run(cfg)
		if err != nil {
			return tailAnatomy{}, fmt.Errorf("anatomy %s: %w", anatomyPlans[i], err)
		}
		tail := sampler.Spans()
		w, s := tailShares(tail)
		return tailAnatomy{res: res, tail: tail, waitShare: w, svcShare: s}, nil
	})
	if err != nil {
		return Figure{}, err
	}
	byPlan := make(map[string]tailAnatomy, len(runs))
	for i, r := range runs {
		byPlan[anatomyPlans[i]] = r
	}

	summary := report.NewTable("anatomy-summary",
		"plan", "rate_mrps", "thr_mrps", "p99_ns", "p999_ns",
		"tail_k", "tail_wait_share", "tail_service_share", "slowest_total_ns", "slowest_wait_ns")
	tables := []*report.Table{summary}
	for i, spec := range anatomyPlans {
		r := runs[i]
		slowest := trace.Span{}
		if len(r.tail) > 0 {
			slowest = r.tail[0]
		}
		summary.AddRow(spec,
			fmt.Sprintf("%.3f", rate),
			fmt.Sprintf("%.3f", r.res.ThroughputMRPS),
			fmt.Sprintf("%.0f", r.res.Latency.P99),
			fmt.Sprintf("%.0f", r.res.Latency.P999),
			fmt.Sprint(len(r.tail)),
			fmt.Sprintf("%.3f", r.waitShare),
			fmt.Sprintf("%.3f", r.svcShare),
			fmt.Sprintf("%.0f", slowest.TotalNs()),
			fmt.Sprintf("%.0f", slowest.QueueWaitNs()),
		)
		top := r.tail
		if len(top) > 8 {
			top = top[:8]
		}
		tables = append(tables, report.SpanTable("anatomy-tail-"+spec, top))
	}

	part, jbsq, single := byPlan["16x1"], byPlan["jbsq2"], byPlan["1x16"]
	claims := []Claim{
		statement{"16x1 tail is queue-wait dominated", "partitioned tails come from waiting behind long requests (§2.2)"}.
			judge(above(part.waitShare, 0.5), "tail wait share %.2f", part.waitShare),
		statement{"1x16 collapses the tail's wait share", "single-queue tail latency is the request's own service time (§3)"}.
			judge(below(single.waitShare, 0.5*part.waitShare), "wait share %.2f vs 16x1's %.2f", single.waitShare, part.waitShare),
		statement{"JBSQ(2) matches the single-queue anatomy", "bounded queues approach the single-queue ideal (§4.3)"}.
			judge(below(jbsq.waitShare, 0.5*part.waitShare), "wait share %.2f vs 16x1's %.2f", jbsq.waitShare, part.waitShare),
	}

	return Figure{
		ID:     "anatomy",
		Title:  fmt.Sprintf("Tail anatomy: wait vs service in the %d slowest requests (GEV @ %.0f%% load)", anatomyTailK, anatomyLoad*100),
		Tables: tables,
		Claims: claims,
	}, nil
}
