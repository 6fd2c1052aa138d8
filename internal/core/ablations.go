package core

import (
	"rpcvalet/internal/machine"
	"rpcvalet/internal/report"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/workload"
)

// Ablations quantify the design choices the paper discusses qualitatively:
// the outstanding-requests threshold (§4.3), the sensitivity to dispatcher
// indirection latency (the argument for on-chip NI integration, §3.2), the
// RSS keying granularity, and the dispatch policy hook.

// ablationOutstanding sweeps the per-core outstanding threshold K. The paper
// sets K=2 to hide the dispatch round trip; K=1 is the strict single-queue
// system with an execution bubble.
func ablationOutstanding(o Options) (Figure, error) {
	wl := workload.HERD() // sub-µs service: the case where the bubble shows
	cap := CapacityMRPS(machine.Defaults(), wl)
	rate := cap * 0.9
	tbl := report.NewTable("Ablation: outstanding threshold K (HERD @90% load)",
		"K", "thr_mrps", "p99_ns", "mean_ns")
	var thr []float64
	for _, k := range []int{1, 2, 3, 4} {
		cfg := machineBase(o, wl, "1x16")
		cfg.Params.Threshold = k
		cfg.RateMRPS = rate
		res, err := machine.Run(cfg)
		if err != nil {
			return Figure{}, err
		}
		tbl.AddRowf(k, res.ThroughputMRPS, res.Latency.P99, res.Latency.Mean)
		thr = append(thr, res.ThroughputMRPS)
	}
	return Figure{
		ID:     "ablation-outstanding",
		Title:  "Outstanding-requests threshold",
		Tables: []*report.Table{tbl},
		Claims: []Claim{
			statement{"K=2 recovers the K=1 bubble", "K=2 offsets the bubble; marginal gains for sub-µs RPCs (§4.3)"}.
				judge(atLeast(thr[1], thr[0]*0.995), "thr K1=%.2f K2=%.2f MRPS", thr[0], thr[1]),
		},
	}, nil
}

// ablationDispatcher injects extra backend→dispatcher latency to test the
// integration argument: ns-scale indirection is free, µs-scale (I/O-attached
// NI, ~1.5µs PCIe round trip) destroys the benefit.
func ablationDispatcher(o Options) (Figure, error) {
	wl := workload.HERD()
	cap := CapacityMRPS(machine.Defaults(), wl)
	rate := cap * 0.75
	tbl := report.NewTable("Ablation: dispatcher indirection latency (HERD @75% load)",
		"extra_ns", "thr_mrps", "p99_ns", "mean_ns")
	var p99s []float64
	extras := []sim.Duration{0, 10 * sim.Nanosecond, 50 * sim.Nanosecond,
		200 * sim.Nanosecond, sim.FromNanos(1500)}
	for _, extra := range extras {
		cfg := machineBase(o, wl, "1x16")
		cfg.Params.DispatchExtra = extra
		cfg.RateMRPS = rate
		res, err := machine.Run(cfg)
		if err != nil {
			return Figure{}, err
		}
		tbl.AddRowf(extra.Nanos(), res.ThroughputMRPS, res.Latency.P99, res.Latency.Mean)
		p99s = append(p99s, res.Latency.P99)
	}
	return Figure{
		ID:     "ablation-dispatcher",
		Title:  "Dispatcher indirection latency",
		Tables: []*report.Table{tbl},
		Claims: []Claim{
			statement{"few-ns indirection is negligible", "adds just a few ns end to end (§4.3)"}.
				judge(atMost(p99s[2], p99s[0]*1.15), "p99 +%.0fns at +50ns indirection", p99s[2]-p99s[0]),
			statement{"PCIe-scale indirection hurts", "I/O-attached NIs are too far for µs-scale balancing (§3.2)"}.
				judge(above(p99s[len(p99s)-1], p99s[0]*1.5), "p99 %.0f→%.0fns at +1.5µs", p99s[0], p99s[len(p99s)-1]),
		},
	}, nil
}

// ablationRSS compares per-flow RSS hashing (static skew across 200 flows)
// with per-message uniform assignment for the 16×1 baseline.
func ablationRSS(o Options) (Figure, error) {
	wl := workload.SyntheticExp()
	cap := CapacityMRPS(machine.Defaults(), wl)
	rate := cap * 0.6
	tbl := report.NewTable("Ablation: 16x1 RSS keying (synthetic-exp @60% load)",
		"keying", "thr_mrps", "p99_ns")
	var p99s []float64
	for _, byFlow := range []bool{false, true} {
		cfg := machineBase(o, wl, "16x1")
		cfg.Params.RSSByFlow = byFlow
		cfg.RateMRPS = rate
		res, err := machine.Run(cfg)
		if err != nil {
			return Figure{}, err
		}
		name := "uniform-per-message"
		if byFlow {
			name = "hash-per-flow"
		}
		tbl.AddRowf(name, res.ThroughputMRPS, res.Latency.P99)
		p99s = append(p99s, res.Latency.P99)
	}
	return Figure{
		ID:     "ablation-rss",
		Title:  "RSS keying granularity",
		Tables: []*report.Table{tbl},
		Claims: []Claim{
			statement{"flow-hash skew does not beat uniform splitting", "RSS spreads blindly; imbalance is inherent (§2.3)"}.
				judge(atLeast(p99s[1], p99s[0]*0.9), "p99 uniform=%.0f flow=%.0f ns", p99s[0], p99s[1]),
		},
	}, nil
}

// ablationPolicy compares dispatch policies on the single-queue design.
// With the outstanding threshold above 1, the arbiter is not quite
// immaterial: a blind policy can queue a request behind a long-running RPC
// while another core is idle, so occupancy-aware dispatch (the paper's
// "occupancy feedback", §6.1) trims the tail under heavy-tailed service.
func ablationPolicy(o Options) (Figure, error) {
	wl := workload.SyntheticGEV()
	cap := CapacityMRPS(machine.Defaults(), wl)
	rate := cap * 0.8
	tbl := report.NewTable("Ablation: dispatch policy (synthetic-gev @80% load)",
		"policy", "thr_mrps", "p99_ns")
	var p99s []float64
	for _, name := range []string{"first-available", "round-robin", "least-outstanding-rr"} {
		cfg := machineBase(o, wl, "1x16:"+name)
		cfg.RateMRPS = rate
		res, err := machine.Run(cfg)
		if err != nil {
			return Figure{}, err
		}
		tbl.AddRowf(name, res.ThroughputMRPS, res.Latency.P99)
		p99s = append(p99s, res.Latency.P99)
	}
	blindBest := p99s[0]
	if p99s[1] < blindBest {
		blindBest = p99s[1]
	}
	aware := p99s[2]
	return Figure{
		ID:     "ablation-policy",
		Title:  "Dispatch policy",
		Tables: []*report.Table{tbl},
		Claims: []Claim{
			statement{"occupancy-aware dispatch never loses to blind arbitration", "occupancy feedback eliminates excess queueing (§6.1)"}.
				judge(atMost(aware, blindBest*1.05), "p99 aware=%.0f vs best blind=%.0f ns", aware, blindBest),
		},
	}, nil
}
