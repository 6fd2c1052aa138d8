package main

import (
	"fmt"
	"runtime"
	"time"

	"rpcvalet/internal/arrival"
	"rpcvalet/internal/fifo"
	"rpcvalet/internal/machine"
	"rpcvalet/internal/metrics"
	"rpcvalet/internal/ni"
	"rpcvalet/internal/rng"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/sim/pdes"
	"rpcvalet/internal/sonuma"
	"rpcvalet/internal/stats"
	"rpcvalet/internal/trace"
)

// The layer microbenchmarks time calls into one package's public functions at the
// sizes the simulator uses them. Each returns a loop running n operations;
// opCost times it in batches and takes the median, so one slow batch on a
// shared host does not move the figure.

// opResult is one microbenchmark's cost per operation.
type opResult struct {
	ns, allocs float64
}

const opBatches = 7

func opCost(n int, loop func(n int)) opResult {
	loop(n / 10) // warm caches and any lazy growth before timing
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var per []float64
	for range opBatches {
		t0 := time.Now()
		loop(n)
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	runtime.ReadMemStats(&ms1)
	return opResult{ns: median(per), allocs: float64(ms1.Mallocs-ms0.Mallocs) / float64(opBatches*n)}
}

// sink keeps the compiler from discarding microbenchmark results.
var sink int64

// table1Domain is the paper's Table 1 messaging domain, the one every
// simulated node provisions.
func table1Domain() sonuma.DomainConfig { return machine.Defaults().Domain }

// eventLoop is one Schedule + Step pair on an engine holding depth other
// pending events, all far in the future, so each new event is the minimum
// and walks the whole heap height in and out.
func eventLoop(depth int) func(int) {
	eng := sim.New()
	r := rng.New(1)
	noop := func() {}
	for range depth {
		eng.Schedule(sim.Duration(1e15)+sim.Duration(r.IntN(1e15)), noop)
	}
	var delays [4096]sim.Duration
	for i := range delays {
		delays[i] = sim.Duration(r.IntN(1000)) * sim.Nanosecond
	}
	return func(n int) {
		for i := range n {
			eng.Schedule(delays[i&4095], noop)
			eng.Step()
		}
	}
}

func arrivalLoop() func(int) {
	b := arrival.NewBatch(arrival.PoissonAtMRPS(24), rng.New(1), 0)
	return func(n int) {
		var s sim.Duration
		for range n {
			s += b.Next()
		}
		sink += int64(s)
	}
}

func fifoLoop() func(int) {
	var q fifo.Queue[int]
	for i := range 16 {
		q.Push(i)
	}
	return func(n int) {
		for i := range n {
			q.Push(i)
			v, _ := q.Pop()
			sink += int64(v)
		}
	}
}

// packetLoop assembles one single-packet message per operation, cycling
// over every receive slot of the Table 1 domain: OnPacket, Message, Free.
func packetLoop(errp *error) func(int) {
	dom := table1Domain()
	rb, err := sonuma.NewReceiveBuffer(dom)
	if err != nil {
		*errp = err
		return func(int) {}
	}
	total := dom.TotalSlots()
	srcs := make([]sonuma.NodeID, total)
	for i := range srcs {
		srcs[i], _ = dom.SlotOwner(i)
	}
	return func(n int) {
		for i := range n {
			idx := i % total
			if _, err := rb.OnPacket(idx, srcs[idx], 64, 1); err != nil {
				*errp = err
				return
			}
			_, size, err := rb.Message(idx)
			if err != nil {
				*errp = err
				return
			}
			sink += int64(size)
			if err := rb.Free(idx); err != nil {
				*errp = err
				return
			}
		}
	}
}

// dispatchLoop drives a 16-core RPCValet dispatcher (threshold 2, the
// machine's default least-outstanding policy) with every core at its
// threshold and a backlog in the shared CQ: each operation completes one
// request, which dispatches a queued one, and enqueues a new arrival.
func dispatchLoop(errp *error) func(int) {
	cores := make([]int, 16)
	for i := range cores {
		cores[i] = i
	}
	d, err := ni.NewDispatcher(cores, 2, &ni.LeastOutstandingRR{})
	if err != nil {
		*errp = err
		return func(int) {}
	}
	var busy fifo.Queue[int] // cores in dispatch order, one entry per outstanding request
	busy.Grow(64)
	enqueue := func(tag uint64) {
		if dsp, ok := d.Enqueue(ni.Msg{Slot: int(tag % 6400), Size: 64, Tag: tag}); ok {
			busy.Push(dsp.Core)
		}
	}
	for i := range 48 {
		enqueue(uint64(i))
	}
	return func(n int) {
		for i := range n {
			c, _ := busy.Pop()
			if dsp, ok := d.Complete(c); ok {
				busy.Push(dsp.Core)
			}
			enqueue(uint64(i))
		}
	}
}

func completeLoop(total int) func(int) {
	r := metrics.NewRecorder(metrics.Config{Servers: 16, Expect: total})
	r.OpenWindow(0)
	src := rng.New(1)
	var lat [4096]float64
	for i := range lat {
		lat[i] = 500 + 300*src.ExpFloat64()
	}
	var t sim.Time
	return func(n int) {
		for i := range n {
			t += 40 * sim.Time(sim.Nanosecond)
			l := lat[i&4095]
			r.Complete(t, metrics.Completion{Measured: true, LatencyNs: l, WaitNs: l - 330, ServiceNs: 330, Depth: 3})
		}
	}
}

// recordLoop feeds a tail sampler the four-phase stream of single-machine
// requests, one event per operation.
func recordLoop() func(int) {
	ts := trace.NewTailSampler(64)
	src := rng.New(1)
	var lat [4096]sim.Duration
	for i := range lat {
		lat[i] = sim.FromNanos(500 + 300*src.ExpFloat64())
	}
	phases := [4]trace.Phase{trace.PhaseArrive, trace.PhaseDispatch, trace.PhaseStart, trace.PhaseComplete}
	var req uint64
	var t sim.Time
	return func(n int) {
		for i := range n {
			ph := i & 3
			if ph == 0 {
				req++
				t += sim.Time(40 * sim.Nanosecond)
			}
			at := t + sim.Time(lat[req&4095])*sim.Time(ph)/3
			ts.Record(trace.Event{ReqID: req, Phase: phases[ph], At: at, Core: int(req & 15), Depth: 1})
		}
	}
}

// roundLoop runs n empty pdes rounds over 9 shards, the dc-1000-sharded
// team (8 racks plus the global tier).
func roundLoop() func(int) {
	shards := make([]pdes.RoundFunc, 9)
	for i := range shards {
		shards[i] = func(sim.Time) {}
	}
	return func(n int) {
		rounds := 0
		pdes.Run(500*sim.Nanosecond, shards, func(sim.Time) bool {
			rounds++
			return rounds < n
		})
	}
}

// summarizeMs times stats.Sample.Summarize over count exponential values,
// a fresh sample each time, in host ms.
func summarizeMs(count int) opResult {
	src := rng.New(1)
	var per, allocs []float64
	for range 5 {
		var s stats.Sample
		s.Grow(count)
		for range count {
			s.Add(500 + 300*src.ExpFloat64())
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		sum := s.Summarize()
		per = append(per, float64(time.Since(t0).Nanoseconds())/1e6)
		runtime.ReadMemStats(&ms1)
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
		sink += int64(sum.Count)
	}
	return opResult{ns: median(per), allocs: median(allocs)}
}

// setupCost times building one node and the bytes it allocates:
// machine.NewShared on a fresh engine, and the soNUMA buffers alone.
type setupCost struct {
	machineUs, machineKB, sonumaKB float64
}

func nodeSetupCost(node machine.Config, reps int) (setupCost, error) {
	var us, kb, skb []float64
	var ms0, ms1 runtime.MemStats
	for range reps {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		m, err := machine.NewShared(node, sim.New())
		el := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return setupCost{}, fmt.Errorf("machine.NewShared: %w", err)
		}
		runtime.KeepAlive(m)
		us = append(us, float64(el.Nanoseconds())/1e3)
		kb = append(kb, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024)

		dom := node.Params.Domain
		runtime.ReadMemStats(&ms0)
		rb, err := sonuma.NewReceiveBuffer(dom)
		if err != nil {
			return setupCost{}, err
		}
		sb, err := sonuma.NewSendBuffer(dom)
		if err != nil {
			return setupCost{}, err
		}
		runtime.ReadMemStats(&ms1)
		runtime.KeepAlive(rb)
		runtime.KeepAlive(sb)
		skb = append(skb, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024)
	}
	return setupCost{machineUs: median(us), machineKB: median(kb), sonumaKB: median(skb)}, nil
}

// layerMetrics runs every microbenchmark and returns its per-layer
// metrics. ops sizes one batch of the fast ones.
func layerMetrics(w workloadDef, sc scale) (map[string]float64, error) {
	ops := 200_000
	reps := 9
	if sc == scaleTiny {
		ops, reps = 2_000, 2
	}
	var err error
	out := map[string]float64{}
	put := func(name, allocsName string, r opResult) {
		out[name] = r.ns
		out[allocsName] = r.allocs
	}
	put("sim.event_ns.depth64", "sim.event_allocs.depth64", opCost(ops, eventLoop(64)))
	put("sim.event_ns.depth64k", "sim.event_allocs.depth64k", opCost(ops, eventLoop(65536)))
	put("arrival.draw_ns", "arrival.draw_allocs", opCost(ops, arrivalLoop()))
	put("fifo.push_pop_ns", "fifo.push_pop_allocs", opCost(ops, fifoLoop()))
	put("sonuma.packet_ns", "sonuma.packet_allocs", opCost(ops, packetLoop(&err)))
	put("ni.dispatch_ns", "ni.dispatch_allocs", opCost(ops, dispatchLoop(&err)))
	put("metrics.complete_ns", "metrics.complete_allocs", opCost(ops, completeLoop(ops*(opBatches+1))))
	put("trace.record_ns", "trace.record_allocs", opCost(ops, recordLoop()))
	rounds := opCost(ops/100, roundLoop())
	out["pdes.round_us"] = rounds.ns / 1e3
	out["pdes.round_allocs"] = rounds.allocs
	put("stats.summarize_ms", "stats.summarize_allocs", summarizeMs(w.measure(sc)))
	if err != nil {
		return nil, err
	}
	setup, err := nodeSetupCost(w.node(), reps)
	if err != nil {
		return nil, err
	}
	out["machine.setup_us_per_node"] = setup.machineUs
	out["machine.setup_kb_per_node"] = setup.machineKB
	out["sonuma.setup_kb_per_node"] = setup.sonumaKB
	return out, nil
}
