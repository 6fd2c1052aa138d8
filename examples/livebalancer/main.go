// Live balancer: the paper's queueing argument demonstrated with *real*
// goroutines instead of the simulator — a single shared queue versus
// statically partitioned per-worker queues, plus a mutex-guarded shared
// queue that idle workers poll (the software single queue of §6.2).
//
// Caveat (and the reason the reproduction's measured results come from the
// discrete-event simulator instead): Go's scheduler, timer granularity, and
// GC add noise of the same magnitude as the effects under study, so the
// numbers printed here are illustrative, not calibrated. Service is emulated
// with time.Sleep so the demo works on any core count (including single-CPU
// machines, where busy-spinning workers would just starve each other). The
// *ordering* — single queue beating static partitioning on tail latency —
// shows through regardless.
//
//	go run ./examples/livebalancer
package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

const (
	workers     = 8
	requests    = 3000
	meanService = 1 * time.Millisecond // well above timer granularity
	load        = 0.7                  // fraction of aggregate capacity
)

// task is one synthetic RPC: an arrival stamp and a service duration.
type task struct {
	arrived time.Time
	service time.Duration
}

// p99 returns the 99th-percentile of the recorded latencies.
func p99(lat []time.Duration) time.Duration {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[(len(lat)*99)/100]
}

// generate produces the shared arrival/service schedule so every policy
// balances exactly the same work. Exponential interarrivals and services,
// as in the paper's M/M analysis.
func generate(rng *rand.Rand) ([]time.Duration, []time.Duration, []int) {
	mean := float64(meanService)
	interarrival := mean / (load * workers)
	gaps := make([]time.Duration, requests)
	svcs := make([]time.Duration, requests)
	assign := make([]int, requests)
	for i := range gaps {
		gaps[i] = time.Duration(rng.ExpFloat64() * interarrival)
		svcs[i] = time.Duration(rng.ExpFloat64() * mean)
		assign[i] = rng.Intn(workers)
	}
	return gaps, svcs, assign
}

// runSingleQueue pushes every task through one shared channel all workers
// pull from — the 1×N organization. A channel receive is Go's native
// "synchronized shared queue".
func runSingleQueue(gaps, svcs []time.Duration) []time.Duration {
	queue := make(chan task, requests)
	return run(gaps, svcs,
		func(i int, t task) { queue <- t },
		func(worker int) (task, bool) { t, ok := <-queue; return t, ok },
		func() { close(queue) },
	)
}

// runPartitioned statically assigns each task to a worker-private channel by
// a uniform random hash — the N×1 organization (RSS-style, no rebalancing).
// Random, not round-robin: RSS hashes headers, and hashing splits a Poisson
// stream into thinner Poisson streams, keeping per-queue burstiness.
func runPartitioned(assign []int) func(gaps, svcs []time.Duration) []time.Duration {
	return func(gaps, svcs []time.Duration) []time.Duration {
		queues := make([]chan task, workers)
		for i := range queues {
			queues[i] = make(chan task, requests)
		}
		return run(gaps, svcs,
			func(i int, t task) { queues[assign[i]] <- t },
			func(worker int) (task, bool) { t, ok := <-queues[worker]; return t, ok },
			func() {
				for _, q := range queues {
					close(q)
				}
			},
		)
	}
}

// runMutexQueue shares one slice-backed queue guarded by a mutex — the
// software single queue of the paper's §6.2, with idle workers polling.
func runMutexQueue(gaps, svcs []time.Duration) []time.Duration {
	var (
		mu   sync.Mutex
		q    []task
		done bool
	)
	push := func(_ int, t task) {
		mu.Lock()
		q = append(q, t)
		mu.Unlock()
	}
	pull := func(_ int) (task, bool) {
		for {
			mu.Lock()
			if len(q) > 0 {
				t := q[0]
				q = q[1:]
				mu.Unlock()
				return t, true
			}
			finished := done
			mu.Unlock()
			if finished {
				return task{}, false
			}
			runtime.Gosched()
		}
	}
	finish := func() {
		mu.Lock()
		done = true
		mu.Unlock()
	}
	return run(gaps, svcs, push, pull, finish)
}

// run drives one policy: the main goroutine paces arrivals, workers pull
// tasks and sleep for their service time; latency = completion − arrival.
func run(gaps, svcs []time.Duration,
	push func(int, task), pull func(int) (task, bool), finish func()) []time.Duration {

	var mu sync.Mutex
	latencies := make([]time.Duration, 0, requests)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t, ok := pull(w)
				if !ok {
					return
				}
				time.Sleep(t.service)
				lat := time.Since(t.arrived)
				mu.Lock()
				latencies = append(latencies, lat)
				mu.Unlock()
			}
		}()
	}

	for i := 0; i < requests; i++ {
		time.Sleep(gaps[i])
		push(i, task{arrived: time.Now(), service: svcs[i]})
	}
	finish()
	wg.Wait()
	return latencies
}

func main() {
	fmt.Printf("live demo: %d workers on %d CPU(s), %d requests, mean service %v, load %.0f%%\n",
		workers, runtime.NumCPU(), requests, meanService, load*100)
	fmt.Println("(real goroutines — scheduler/GC noise applies; see file comment)")
	fmt.Println()

	rngForAssign := rand.New(rand.NewSource(1))
	_, _, assign := generate(rngForAssign)
	policies := []struct {
		name string
		fn   func(gaps, svcs []time.Duration) []time.Duration
	}{
		{"single queue (1xN, channel)", runSingleQueue},
		{"partitioned (Nx1, RSS-style)", runPartitioned(assign)},
		{"single queue (mutex poll)", runMutexQueue},
	}
	for _, pol := range policies {
		rng := rand.New(rand.NewSource(1)) // same schedule for every policy
		gaps, svcs, _ := generate(rng)
		lat := pol.fn(gaps, svcs)
		fmt.Printf("  %-30s p99 = %8v   (n=%d)\n",
			pol.name, p99(lat).Round(100*time.Microsecond), len(lat))
	}

	fmt.Println("\nExpected ordering (paper §2.2): the single queue beats static")
	fmt.Println("partitioning on tail latency at equal load.")
}
