// Package arrival defines the open-loop traffic models that drive every
// simulator in this repository: the machine model (internal/machine) and the
// rack-scale cluster (internal/cluster) draw their interarrival gaps from any
// Process; the theoretical queueing models (internal/queueing) and the live
// runtime (internal/live) are Poisson.
//
// The paper evaluates RPCValet under Poisson arrivals, but tails are
// dominated by arrival burstiness, so the reproduction makes the arrival
// process a first-class axis: Poisson (the historical default), MMPP2 (a
// two-state Markov-modulated Poisson process with calm and bursty phases),
// Deterministic (fixed gaps, the queueing-theory D/·/· arrival), and
// LognormalGap (heavy-tailed gaps: long quiet spells punctuated by clumps).
//
// Every Process draws exclusively from the rng.Source passed to Next, so a
// process driven by a deterministic Source yields a deterministic gap
// sequence — the same reproducibility contract internal/dist follows.
// Poisson built by PoissonAtMRPS or PoissonAtPerNs performs bit-for-bit the
// same computation the simulators historically inlined, so configurations
// that predate this package reproduce their exact result streams.
package arrival

import (
	"fmt"
	"math"

	"rpcvalet/internal/rng"
	"rpcvalet/internal/sim"
)

// Process generates the gaps between consecutive request arrivals of an
// open-loop traffic stream.
type Process interface {
	// Next draws the gap to the next arrival using r. Implementations may
	// carry per-run state (MMPP2's current phase); obtain a private
	// instance with Fresh before driving a run.
	Next(r *rng.Source) sim.Duration
	// Name is the process's short registry name ("poisson", "mmpp2",
	// "det", "lognormal"), used by CLI flags and report labels.
	Name() string
	// String describes the process and its parameters for reports.
	String() string
}

// Rerater is implemented by processes that can re-target their mean arrival
// rate while preserving their shape (burst ratio, gap CV). All built-in
// processes implement it; the sweep harness uses it to vary offered load
// along a curve without changing the traffic's character.
type Rerater interface {
	Process
	// AtMRPS returns a process with the same shape whose mean rate is
	// rateMRPS (millions of requests per second).
	AtMRPS(rateMRPS float64) Process
}

// AtMRPS re-targets p to the given mean rate when p supports re-rating and
// rateMRPS is positive, and returns p unchanged otherwise.
func AtMRPS(p Process, rateMRPS float64) Process {
	if rr, ok := p.(Rerater); ok && rateMRPS > 0 {
		return rr.AtMRPS(rateMRPS)
	}
	return p
}

// Fresh returns an instance of p that is safe to drive one simulation run.
// Stateless processes are returned as-is; stateful ones (MMPP2) return a
// reset clone, so a Config holding a Process can be reused across
// concurrent runs without sharing mutable state.
func Fresh(p Process) Process {
	if f, ok := p.(interface{ fresh() Process }); ok {
		return f.fresh()
	}
	return p
}

// Resolve applies the compatibility rule every simulator shares: a nil
// process means Poisson at rateMRPS (nil when the rate is unset too), and a
// non-nil process is re-rated to rateMRPS and cloned for private run state.
func Resolve(p Process, rateMRPS float64) Process {
	if p == nil {
		if rateMRPS > 0 {
			return PoissonAtMRPS(rateMRPS)
		}
		return nil
	}
	return Fresh(AtMRPS(p, rateMRPS))
}

// checkRate rejects rates that would produce a degenerate process — a zero
// or negative rate yields infinite or NaN gaps, which would spin the
// simulation forever at virtual time zero.
func checkRate(what string, rate float64) {
	if !(rate > 0) {
		panic(fmt.Sprintf("arrival: %s rate %g must be positive", what, rate))
	}
}

// --- Poisson --------------------------------------------------------------

// Poisson is the memoryless open-loop arrival process: exponential gaps with
// mean MeanGapNanos. It is the historical default of every simulator here.
type Poisson struct {
	MeanGapNanos float64
}

// PoissonAtMRPS returns a Poisson process offering rateMRPS millions of
// requests per second (mean gap 1000/rateMRPS ns). This is the single place
// the MRPS→interarrival conversion lives. It panics on a non-positive rate.
func PoissonAtMRPS(rateMRPS float64) Poisson {
	checkRate("poisson", rateMRPS)
	return Poisson{MeanGapNanos: 1000 / rateMRPS}
}

// PoissonAtPerNs returns a Poisson process with arrival rate lambdaPerNs
// requests per nanosecond (mean gap 1/lambdaPerNs ns), the parameterization
// the queueing models use. It panics on a non-positive rate.
func PoissonAtPerNs(lambdaPerNs float64) Poisson {
	checkRate("poisson", lambdaPerNs)
	return Poisson{MeanGapNanos: 1 / lambdaPerNs}
}

func (p Poisson) Next(r *rng.Source) sim.Duration {
	return sim.FromNanos(p.MeanGapNanos * r.ExpFloat64())
}

func (p Poisson) Name() string { return "poisson" }

func (p Poisson) String() string { return fmt.Sprintf("poisson(mean=%gns)", p.MeanGapNanos) }

func (p Poisson) AtMRPS(rateMRPS float64) Process { return PoissonAtMRPS(rateMRPS) }

// --- Deterministic --------------------------------------------------------

// Deterministic emits arrivals at fixed gaps of GapNanos — the D/·/· arrival
// of queueing theory, the lowest-variance traffic a rate can be offered at.
type Deterministic struct {
	GapNanos float64
}

// DeterministicAtMRPS returns fixed-gap arrivals at rateMRPS millions of
// requests per second. It panics on a non-positive rate.
func DeterministicAtMRPS(rateMRPS float64) Deterministic {
	checkRate("det", rateMRPS)
	return Deterministic{GapNanos: 1000 / rateMRPS}
}

func (p Deterministic) Next(*rng.Source) sim.Duration { return sim.FromNanos(p.GapNanos) }

func (p Deterministic) Name() string { return "det" }

func (p Deterministic) String() string { return fmt.Sprintf("det(gap=%gns)", p.GapNanos) }

func (p Deterministic) AtMRPS(rateMRPS float64) Process { return DeterministicAtMRPS(rateMRPS) }

// --- LognormalGap ---------------------------------------------------------

// LognormalGap draws gaps from a lognormal: exp(N(Mu, Sigma²)) nanoseconds.
// With Sigma well above 1 the gap distribution is heavy-tailed — most gaps
// are much shorter than the mean (clumps of arrivals) with occasional very
// long quiet spells, a crude model of on/off client behavior.
type LognormalGap struct {
	Mu, Sigma float64
}

// LognormalAtMRPS returns lognormal gaps with mean 1000/rateMRPS ns and the
// given sigma (gap CV = sqrt(e^sigma² − 1)). It panics on a non-positive
// rate.
func LognormalAtMRPS(rateMRPS, sigma float64) LognormalGap {
	checkRate("lognormal", rateMRPS)
	mean := 1000 / rateMRPS
	return LognormalGap{Mu: math.Log(mean) - sigma*sigma/2, Sigma: sigma}
}

func (p LognormalGap) Next(r *rng.Source) sim.Duration {
	return sim.FromNanos(math.Exp(p.Mu + p.Sigma*r.NormFloat64()))
}

// MeanGapNanos returns the analytic mean gap, exp(Mu + Sigma²/2).
func (p LognormalGap) MeanGapNanos() float64 { return math.Exp(p.Mu + p.Sigma*p.Sigma/2) }

func (p LognormalGap) Name() string { return "lognormal" }

func (p LognormalGap) String() string {
	return fmt.Sprintf("lognormal(mean=%.3gns,sigma=%g)", p.MeanGapNanos(), p.Sigma)
}

func (p LognormalGap) AtMRPS(rateMRPS float64) Process {
	return LognormalAtMRPS(rateMRPS, p.Sigma)
}

// --- MMPP2 ----------------------------------------------------------------

// MMPP2 is a two-state Markov-modulated Poisson process: arrivals are
// Poisson at CalmRate while the process is calm and at BurstRate while it
// bursts, with exponentially distributed dwell times in each state. It is
// the standard model of bursty traffic whose short-term rate exceeds the
// long-term mean — the regime where partitioned queueing systems fall apart
// at the tail while a single queue absorbs the burst.
//
// MMPP2 carries run state (current phase, residual dwell); use NewMMPP2 (or
// Fresh on an existing instance) to obtain an independent process per run.
type MMPP2 struct {
	CalmRate, BurstRate             float64 // arrivals per ns in each state
	CalmDwellNanos, BurstDwellNanos float64 // mean dwell per state, ns

	// Run state: current phase and the remaining dwell in it.
	burst          bool
	dwellLeftNanos float64
	dwellSet       bool
}

// NewMMPP2 builds a two-state MMPP with overall mean rate rateMRPS, burst
// rate burstRatio times the calm rate, and mean dwells of calmDwellNanos and
// burstDwellNanos in the two states. burstRatio must be ≥ 1 and the dwells
// positive; rateMRPS is apportioned so the long-run mean rate is exact:
// rate = (CalmRate·CalmDwell + BurstRate·BurstDwell)/(CalmDwell+BurstDwell).
func NewMMPP2(rateMRPS, burstRatio, calmDwellNanos, burstDwellNanos float64) *MMPP2 {
	if !(rateMRPS > 0) || burstRatio < 1 || !(calmDwellNanos > 0) || !(burstDwellNanos > 0) {
		panic(fmt.Sprintf("arrival: invalid MMPP2(rate=%g, ratio=%g, dwells=%g/%g)",
			rateMRPS, burstRatio, calmDwellNanos, burstDwellNanos))
	}
	mean := rateMRPS / 1000 // per ns
	calm := mean * (calmDwellNanos + burstDwellNanos) / (calmDwellNanos + burstRatio*burstDwellNanos)
	return &MMPP2{
		CalmRate:        calm,
		BurstRate:       burstRatio * calm,
		CalmDwellNanos:  calmDwellNanos,
		BurstDwellNanos: burstDwellNanos,
	}
}

// MeanRatePerNs returns the long-run mean arrival rate in requests per ns.
func (p *MMPP2) MeanRatePerNs() float64 {
	return (p.CalmRate*p.CalmDwellNanos + p.BurstRate*p.BurstDwellNanos) /
		(p.CalmDwellNanos + p.BurstDwellNanos)
}

// BurstRatio returns BurstRate/CalmRate.
func (p *MMPP2) BurstRatio() float64 { return p.BurstRate / p.CalmRate }

// Next advances the modulating chain and the arrival clock together: within
// a state both the next arrival and the state's remaining dwell are
// exponential, so the competing-clocks construction is exact.
func (p *MMPP2) Next(r *rng.Source) sim.Duration {
	gap := 0.0
	for {
		if !p.dwellSet {
			d := p.CalmDwellNanos
			if p.burst {
				d = p.BurstDwellNanos
			}
			p.dwellLeftNanos = d * r.ExpFloat64()
			p.dwellSet = true
		}
		rate := p.CalmRate
		if p.burst {
			rate = p.BurstRate
		}
		a := r.ExpFloat64() / rate
		if a <= p.dwellLeftNanos {
			p.dwellLeftNanos -= a
			return sim.FromNanos(gap + a)
		}
		gap += p.dwellLeftNanos
		p.burst = !p.burst
		p.dwellSet = false
	}
}

func (p *MMPP2) Name() string { return "mmpp2" }

func (p *MMPP2) String() string {
	return fmt.Sprintf("mmpp2(mean=%.3g/ns,ratio=%.3g,dwell=%gns/%gns)",
		p.MeanRatePerNs(), p.BurstRatio(), p.CalmDwellNanos, p.BurstDwellNanos)
}

// AtMRPS re-targets the mean rate, scaling the dwell times inversely so the
// mean number of arrivals per phase — the burst structure as the queues see
// it — is preserved along with the burst ratio. Without this, re-rating a
// process to a much faster system would leave phases spanning so many
// arrivals that a finite run never sees a state change.
func (p *MMPP2) AtMRPS(rateMRPS float64) Process {
	f := (rateMRPS / 1000) / p.MeanRatePerNs()
	return &MMPP2{
		CalmRate:        p.CalmRate * f,
		BurstRate:       p.BurstRate * f,
		CalmDwellNanos:  p.CalmDwellNanos / f,
		BurstDwellNanos: p.BurstDwellNanos / f,
	}
}

func (p *MMPP2) fresh() Process {
	q := *p
	q.burst, q.dwellLeftNanos, q.dwellSet = false, 0, false
	return &q
}

// --- Registry -------------------------------------------------------------

// Default shape parameters for ByName's processes. MMPP2 defaults spend a
// third of the time in bursts at 2.5× the calm rate, putting the short-term
// rate at 1.67× the long-run mean — bursty enough that a system at moderate
// mean load is driven to its capacity during bursts, without tipping the
// whole chip into sustained overload. The lognormal's sigma of 1.5 gives a
// gap CV ≈ 2.9 (Poisson's is 1).
const (
	DefaultBurstRatio      = 2.5
	DefaultCalmDwellNanos  = 40000.0
	DefaultBurstDwellNanos = 20000.0
	DefaultLognormalSigma  = 1.5
)

// Names lists the built-in process names in report order.
var Names = []string{"poisson", "det", "mmpp2", "lognormal"}

// ByName builds a named arrival process at the given mean rate (MRPS) with
// the package's default shape parameters: "poisson", "det" (or
// "deterministic"), "mmpp2", "lognormal".
func ByName(name string, rateMRPS float64) (Process, error) {
	if !(rateMRPS > 0) || math.IsInf(rateMRPS, 1) {
		return nil, fmt.Errorf("arrival: rate %g MRPS must be positive and finite", rateMRPS)
	}
	switch name {
	case "poisson":
		return PoissonAtMRPS(rateMRPS), nil
	case "det", "deterministic":
		return DeterministicAtMRPS(rateMRPS), nil
	case "mmpp2":
		return NewMMPP2(rateMRPS, DefaultBurstRatio, DefaultCalmDwellNanos, DefaultBurstDwellNanos), nil
	case "lognormal":
		return LognormalAtMRPS(rateMRPS, DefaultLognormalSigma), nil
	}
	return nil, fmt.Errorf("arrival: unknown process %q (have %v)", name, Names)
}
