// Command qtheory explores the §2.2 queueing models directly: it simulates a
// Q×U system at one load or across a load sweep, and — where closed forms
// exist — prints the analytic expectation next to the simulation so the two
// can be compared.
//
// Usage:
//
//	qtheory -q 1 -u 16 -dist exp -load 0.8
//	qtheory -q 16 -u 1 -dist gev -sweep -points 10
package main

import (
	"flag"
	"fmt"
	"os"

	"rpcvalet/internal/core"
	"rpcvalet/internal/queueing"
	"rpcvalet/internal/report"
	"rpcvalet/internal/workload"
)

func main() {
	var (
		q       = flag.Int("q", 1, "number of FIFO queues")
		u       = flag.Int("u", 16, "serving units per queue")
		distStr = flag.String("dist", "exp", "service distribution: fixed, uniform, exp, gev")
		load    = flag.Float64("load", 0.8, "offered load in (0,1)")
		sweep   = flag.Bool("sweep", false, "sweep loads instead of a single point")
		points  = flag.Int("points", 10, "sweep points")
		measure = flag.Int("measure", 100000, "requests measured per point")
		seed    = flag.Uint64("seed", 1, "simulation seed")
	)
	flag.Parse()

	service, err := workload.Unit(*distStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qtheory: %v\n", err)
		os.Exit(2)
	}

	cfg := queueing.Config{
		Queues:          *q,
		ServersPerQueue: *u,
		Service:         service,
		Warmup:          *measure / 10,
		Measure:         *measure,
		Seed:            *seed,
	}

	if *sweep {
		loads := make([]float64, *points)
		for i := range loads {
			loads[i] = 0.05 + 0.90*float64(i)/float64(*points-1)
		}
		label := fmt.Sprintf("%dx%d-%s", *q, *u, *distStr)
		curve, err := core.QueueingSweep(cfg, loads, 10, label, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qtheory: %v\n", err)
			os.Exit(1)
		}
		tbl := report.NewTable(fmt.Sprintf("Model %dx%d, %s service (latency in ×S̄)", *q, *u, *distStr),
			"load", "throughput", "mean", "p50", "p99")
		for _, p := range curve.Points {
			tbl.AddRowf(p.RateMRPS, p.ThroughputMRPS/1000, p.Mean, p.P50, p.P99)
		}
		if err := tbl.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nthroughput under 10×S̄ SLO: %.3f servers' worth\n",
			curve.ThroughputUnderSLO()/1000)
		return
	}

	cfg.Load = *load
	res, err := queueing.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qtheory: %v\n", err)
		os.Exit(1)
	}
	tbl := report.NewTable(fmt.Sprintf("Model %dx%d at load %.2f, %s service", *q, *u, *load, *distStr),
		"metric", "simulated", "analytic")
	c := *u
	lambda := *load * float64(c) // per-queue arrival rate, E[S]=1
	analyticMean := "-"
	analyticWait := "-"
	if *distStr == "exp" {
		analyticMean = fmt.Sprintf("%.4g", queueing.MMcMeanSojourn(c, lambda, 1))
		analyticWait = fmt.Sprintf("%.4g", queueing.MMcMeanWait(c, lambda, 1))
	}
	if *distStr == "fixed" && c == 1 {
		analyticWait = fmt.Sprintf("%.4g", queueing.MD1MeanWait(lambda, 1))
	}
	tbl.AddRow("mean sojourn (×S̄)", fmt.Sprintf("%.4g", res.Latency.Mean), analyticMean)
	tbl.AddRow("mean wait (×S̄)", fmt.Sprintf("%.4g", res.Wait.Mean), analyticWait)
	tbl.AddRow("p99 sojourn (×S̄)", fmt.Sprintf("%.4g", res.Latency.P99), "-")
	tbl.AddRow("throughput", fmt.Sprintf("%.4g", res.Throughput), "-")
	if err := tbl.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
