package main

import (
	"sync"
	"time"

	"rpcvalet/internal/cluster"
	"rpcvalet/internal/rng"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/trace"
)

// probes is what a traced run installs from outside the simulator: a
// trace.Recorder that counts events per phase and a cluster.Policy wrapper
// that times every pick. Neither draws random numbers or reorders events,
// so the traced run's simulated results must equal the untraced run's.
type probes struct {
	rec *phaseCounter

	mu   sync.Mutex
	pols []*timedPolicy
}

func newProbes() *probes { return &probes{rec: &phaseCounter{}} }

// phaseCounter counts trace events by phase and keeps the latest simulated
// time seen. Every simulator path delivers Config.Trace events from one
// goroutine, so it needs no locking.
type phaseCounter struct {
	n    [256]uint64
	last sim.Time
}

func (c *phaseCounter) Record(e trace.Event) {
	c.n[e.Phase]++
	if e.At > c.last {
		c.last = e.At
	}
}

// tracedPhases are the phases trace.events_per_req reports, in causal order.
var tracedPhases = []trace.Phase{
	trace.PhaseGlobalRecv, trace.PhaseGlobalForward,
	trace.PhaseBalancerRecv, trace.PhaseForward,
	trace.PhaseArrive, trace.PhaseDispatch, trace.PhaseStart, trace.PhaseComplete,
}

// timedPolicy times each Pick of the policy it wraps. It hands the real
// view through untouched, so indexed policies keep their fast path. Each
// clone keeps its own totals: on the sharded path the rack balancers pick
// concurrently, one clone per rack.
type timedPolicy struct {
	inner cluster.Policy
	owner *probes
	picks int64
	ns    int64
}

// wrap returns pol wrapped in a timedPolicy registered with p.
func (p *probes) wrap(pol cluster.Policy) cluster.Policy {
	t := &timedPolicy{inner: pol, owner: p}
	p.mu.Lock()
	p.pols = append(p.pols, t)
	p.mu.Unlock()
	return t
}

func (t *timedPolicy) Pick(v cluster.View, r *rng.Source) int {
	t0 := time.Now()
	i := t.inner.Pick(v, r)
	t.ns += int64(time.Since(t0))
	t.picks++
	return i
}

func (t *timedPolicy) Clone() cluster.Policy { return t.owner.wrap(t.inner.Clone()) }
func (t *timedPolicy) String() string        { return t.inner.String() }

// pickTotals sums every registered policy's picks and timed ns. Call it
// only after the run has returned.
func (p *probes) pickTotals() (picks, ns int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, t := range p.pols {
		picks += t.picks
		ns += t.ns
	}
	return picks, ns
}

// timerCostNs is the median cost of one empty timed region, the bias each
// timed pick carries.
func timerCostNs() float64 {
	const batch = 1 << 14
	var costs []float64
	for range 9 {
		var total time.Duration
		for range batch {
			t0 := time.Now()
			total += time.Since(t0)
		}
		costs = append(costs, float64(total)/batch)
	}
	return median(costs)
}
