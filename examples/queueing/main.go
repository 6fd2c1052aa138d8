// Queueing-theory explorer: reproduce the paper's §2.2 analysis (Fig 2)
// directly from the theoretical models — no machine simulation involved —
// and validate the simulator against closed-form results on the way.
//
//	go run ./examples/queueing
package main

import (
	"fmt"
	"log"

	"rpcvalet"
	"rpcvalet/internal/dist"
	"rpcvalet/internal/queueing"
	"rpcvalet/internal/workload"
)

func main() {
	// Part 1: pooling. Five ways to organize 16 serving units, exponential
	// service, same total capacity — only the queue structure differs.
	fmt.Println("Fig 2a: p99 sojourn (×S̄) vs load — Q×U organizations, exp service")
	shapes := []struct{ q, u int }{{1, 16}, {2, 8}, {4, 4}, {8, 2}, {16, 1}}
	loads := []float64{0.3, 0.5, 0.7, 0.9}
	fmt.Printf("%8s", "load")
	for _, s := range shapes {
		fmt.Printf("%8s", fmt.Sprintf("%dx%d", s.q, s.u))
	}
	fmt.Println()
	for _, load := range loads {
		fmt.Printf("%8.2f", load)
		for _, s := range shapes {
			res, err := rpcvalet.RunQueueModel(rpcvalet.QueueModel{
				Queues: s.q, ServersPerQueue: s.u,
				Service: dist.Exponential{MeanValue: 1},
				Load:    load, Warmup: 5000, Measure: 60000, Seed: 1,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%8.2f", res.Latency.P99)
		}
		fmt.Println()
	}

	// Part 2: service-time variance. The same 1×16 system under the four
	// paper distributions — variance drives the tail.
	fmt.Println("\nFig 2b: p99 (×S̄) at load 0.7, Model 1x16, by distribution")
	for _, name := range workload.SyntheticKinds {
		service, err := workload.Unit(name)
		if err != nil {
			log.Fatal(err)
		}
		res, err := rpcvalet.RunQueueModel(rpcvalet.QueueModel{
			Queues: 1, ServersPerQueue: 16,
			Service: service,
			Load:    0.7, Warmup: 5000, Measure: 60000, Seed: 2,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s %6.2f\n", name, res.Latency.P99)
	}

	// Part 3: trust, but verify. The discrete-event simulator against
	// closed-form queueing theory.
	fmt.Println("\nValidation: simulation vs closed form")
	res, err := rpcvalet.RunQueueModel(rpcvalet.QueueModel{
		Queues: 1, ServersPerQueue: 1,
		Service: dist.Exponential{MeanValue: 1},
		Load:    0.8, Warmup: 20000, Measure: 200000, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  M/M/1 ρ=0.8 mean sojourn: sim %.3f, analytic %.3f\n",
		res.Latency.Mean, queueing.MM1MeanSojourn(0.8, 1))
	fmt.Printf("  M/M/1 ρ=0.8 p99 sojourn:  sim %.3f, analytic %.3f\n",
		res.Latency.P99, queueing.MM1SojournQuantile(0.8, 1, 0.99))

	res16, err := rpcvalet.RunQueueModel(rpcvalet.QueueModel{
		Queues: 1, ServersPerQueue: 16,
		Service: dist.Exponential{MeanValue: 1},
		Load:    0.8, Warmup: 20000, Measure: 200000, Seed: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  M/M/16 ρ=0.8 mean wait:   sim %.4f, Erlang-C %.4f\n",
		res16.Wait.Mean, queueing.MMcMeanWait(16, 0.8*16, 1))
}
