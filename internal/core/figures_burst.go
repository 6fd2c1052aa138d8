package core

import (
	"fmt"
	"slices"

	"rpcvalet/internal/arrival"
	"rpcvalet/internal/machine"
	"rpcvalet/internal/report"
	"rpcvalet/internal/workload"
)

// BurstLoadFraction is the fixed mean load (fraction of estimated capacity)
// the burst study offers under every arrival process. With the default
// MMPP2 shape (short-term rate 1.67× the mean) bursts then run right at
// chip capacity: the single queue rides them out while partitioned per-core
// queues, each fed a random share, transiently overload — the regime that
// separates the designs. Higher mean loads push the bursts into sustained
// whole-chip overload, where every design drowns alike and the comparison
// flattens.
const BurstLoadFraction = 0.6

// figBurst is the arrival-process study the paper does not run: every NI
// dispatch mode × every traffic model at the same mean load, on the
// synthetic-exponential workload. Poisson is the baseline; MMPP2 offers the
// same mean rate in bursts that transiently exceed capacity; deterministic
// arrivals remove all arrival variance; lognormal gaps clump arrivals.
//
// The point of the figure is that the single-queue advantage is not a
// Poisson artifact — burstiness *widens* the gap between the 1x16 single
// queue and the 16x1 partitioned baseline, because a shared queue absorbs a
// burst with the whole chip while a partitioned system drains it core by
// core.
func figBurst(o Options) (Figure, error) {
	wl := workload.SyntheticExp()
	rate := BurstLoadFraction * CapacityMRPS(machine.Defaults(), wl)

	// A p99 under MMPP2 only converges once the run spans many modulation
	// cycles (one cycle ≈ 60 µs ≈ 720 completions at this study's rate), so
	// clamp the sample to the quick-options floor even when the caller asks
	// for a faster, smaller run.
	if o.Measure < 10000 {
		o.Warmup, o.Measure = 1000, 10000
	}

	// Every (plan, arrival) cell is a one-point series, so each runs at its
	// base seed: the comparison is paired — each cell sees statistically
	// identical draws.
	kinds := arrival.Names
	var ss []series
	for _, plan := range hwPlans {
		for _, kind := range kinds {
			cfg := machineBase(o, wl, plan)
			arr, err := arrival.ByName(kind, rate)
			if err != nil {
				return Figure{}, err
			}
			cfg.Arrival = arr
			ss = append(ss, machineSeries(cfg, []float64{rate}, plan+"/"+kind))
		}
	}
	curves, err := sweep(o.Workers, 0, ss...)
	if err != nil {
		return Figure{}, err
	}
	// at returns the point of one (plan, arrival kind) cell.
	at := func(plan string, kind string) Point {
		return curves[slices.Index(hwPlans, plan)*len(kinds)+slices.Index(kinds, kind)].Points[0]
	}
	p99 := func(plan, kind string) float64 { return at(plan, kind).P99 }

	fig := Figure{
		ID: "burst",
		Title: fmt.Sprintf("Burst study: arrival process × dispatch mode at %.0f%% load (%s, %.1f MRPS)",
			BurstLoadFraction*100, wl.Name, rate),
	}
	table := func(title, prefix string, cell func(plan, kind string) float64) *report.Table {
		return grid(title, "arrival", kinds, hwPlans, []string{prefix},
			func(i, k, _ int) any { return cell(hwPlans[k], kinds[i]) })
	}
	inflation := func(plan, kind string) float64 { return safeRatio(p99(plan, kind), p99(plan, "poisson")) }
	fig.Tables = append(fig.Tables,
		table("p99 latency (ns) by arrival process and mode", "p99ns_", p99),
		table("p99 inflation over Poisson by mode", "x_", inflation),
		table("mean latency (ns) by arrival process and mode", "meanns_",
			func(plan, kind string) float64 { return at(plan, kind).Mean }))

	// Claim (a): MMPP2 bursts hurt the partitioned system far more than the
	// single queue — its p99 inflation over Poisson must be well above
	// RPCValet's.
	sqInfl, ptInfl := inflation("1x16", "mmpp2"), inflation("16x1", "mmpp2")
	fig.Claims = append(fig.Claims,
		statement{"MMPP2 inflates 16x1 p99 far more than 1x16", "single queue absorbs bursts the partitioned system cannot (§2.2 intuition)"}.
			judge(and(above(ptInfl, 1.25*sqInfl), above(ptInfl, 1.5)), "16x1 ×%.2f vs 1x16 ×%.2f over Poisson", ptInfl, sqInfl))

	// Claim (b): removing arrival variance tightens every mode's tail below
	// its Poisson run — latency tails need variance somewhere to exist.
	allTighter := true
	detail := ""
	for _, plan := range hwPlans {
		d, p := p99(plan, "det"), p99(plan, "poisson")
		if d >= p {
			allTighter = false
		}
		detail += fmt.Sprintf("%s %.0f/%.0f ", plan, d, p)
	}
	fig.Claims = append(fig.Claims,
		statement{"deterministic arrivals tighten every mode's p99 below Poisson", "D/·/· waits below M/·/· at equal load (queueing theory)"}.
			judge(fact(allTighter), "det/poisson ns: %s", detail))
	return fig, nil
}
