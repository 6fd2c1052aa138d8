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
	"bytes"
	"fmt"
	"io"
	"os"

	"rpcvalet/internal/cli"
	"rpcvalet/internal/core"
	"rpcvalet/internal/queueing"
	"rpcvalet/internal/report"
	"rpcvalet/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.New("qtheory", stderr)
	q := fs.Count("q", 1, 1, "number of FIFO queues")
	u := fs.Count("u", 16, 1, "serving units per queue")
	distStr := fs.String("dist", "exp", "service distribution: fixed, uniform, exp, gev")
	load := fs.Float64("load", 0.8, "offered load in (0,1)")
	sweep := fs.Bool("sweep", false, "sweep loads instead of a single point")
	points := fs.Count("points", 10, 2, "sweep points")
	measure := fs.Count("measure", 100000, 1, "requests measured per point")
	seed := fs.Uint64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return fs.Bad(err)
	}
	service, err := workload.Unit(*distStr)
	if err != nil {
		return fs.Bad(err)
	}

	cfg := queueing.Config{
		Queues:          *q,
		ServersPerQueue: *u,
		Service:         service,
		Warmup:          *measure / 10,
		Measure:         *measure,
		Seed:            *seed,
		Load:            *load,
	}
	if err := cfg.Validate(); err != nil {
		return fs.Bad(err)
	}

	var out bytes.Buffer // writes to it cannot fail
	if *sweep {
		// Not core.RateGrid: 0.95-0.05 is not 0.90 in float64, and this
		// grid's loads are the ones the printed tables were made with.
		loads := make([]float64, *points)
		for i := range loads {
			loads[i] = 0.05 + 0.90*float64(i)/float64(*points-1)
		}
		label := fmt.Sprintf("%dx%d-%s", *q, *u, *distStr)
		curve, err := core.QueueingSweep(cfg, loads, 10, label, 0)
		if err != nil {
			return fs.Fail(err)
		}
		tbl := report.NewTable(fmt.Sprintf("Model %dx%d, %s service (latency in ×S̄)", *q, *u, *distStr),
			"load", "throughput", "mean", "p50", "p99")
		for _, p := range curve.Points {
			tbl.AddRowf(p.RateMRPS, p.ThroughputMRPS/1000, p.Mean, p.P50, p.P99)
		}
		tbl.WriteText(&out)
		fmt.Fprintf(&out, "\nthroughput under 10×S̄ SLO: %.3f servers' worth\n", curve.ThroughputUnderSLO()/1000)
		return fs.Write(stdout, out.Bytes(), nil)
	}

	res, err := queueing.Run(cfg)
	if err != nil {
		return fs.Fail(err)
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
	tbl.WriteText(&out)
	return fs.Write(stdout, out.Bytes(), nil)
}
