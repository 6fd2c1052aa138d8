// Package workload defines the RPC service-time profiles of the paper's
// evaluation (§5, Fig 6): the four synthetic distributions (fixed, uniform,
// exponential, GEV — 300 ns base plus 300 ns average distributed extra), an
// HERD-like key-value-store profile, and a Masstree-like profile mixing
// latency-critical gets with long-running scans.
//
// The HERD and Masstree profiles are substitutions: the authors measured
// real binaries on a Xeon and replayed the recorded distributions into their
// simulator, and we do not have those traces. We instead synthesize
// right-skewed distributions calibrated to the published statistics (HERD:
// mean 330 ns, mode ≈300 ns, tail to ≈1 µs; Masstree gets: mean 1.25 µs,
// spread to ≈4 µs; scans: 60–120 µs, 1% of requests). What the load-balancing
// experiments exercise is the shape of these distributions, not the identity
// of the software that produced them; DESIGN.md discusses the substitution.
package workload

import (
	"fmt"
	"math"

	"rpcvalet/internal/dist"
	"rpcvalet/internal/rng"
)

// Class is one request class within a profile.
type Class struct {
	Name    string
	Weight  float64      // relative frequency
	Service dist.Sampler // processing-time distribution, ns
	// Measured marks classes whose latency counts toward the reported
	// tail. Masstree's scans run on the same cores but are not
	// latency-critical (§6.1), so they are excluded there.
	Measured bool
}

// Profile is a complete workload description for the machine model.
type Profile struct {
	Name    string
	Classes []Class

	RequestBytes int // inbound RPC payload size
	ReplyBytes   int // outbound RPC reply size (512 B in the paper's microbenchmark)

	// SLOFactor expresses the tail SLO as a multiple of the measured mean
	// service time (the paper uses 10×). If SLONanos is nonzero it takes
	// precedence (Masstree uses an absolute 12.5 µs SLO on gets).
	SLOFactor float64
	SLONanos  float64
}

// Validate reports whether the profile is well formed.
func (p Profile) Validate() error {
	if len(p.Classes) == 0 {
		return fmt.Errorf("workload %q: no classes", p.Name)
	}
	anyMeasured := false
	for _, c := range p.Classes {
		if c.Weight <= 0 {
			return fmt.Errorf("workload %q: class %q has non-positive weight", p.Name, c.Name)
		}
		if c.Service == nil {
			return fmt.Errorf("workload %q: class %q has nil service distribution", p.Name, c.Name)
		}
		m := c.Service.Mean()
		if !(m > 0) || math.IsInf(m, 1) {
			return fmt.Errorf("workload %q: class %q has unusable mean %g", p.Name, c.Name, m)
		}
		anyMeasured = anyMeasured || c.Measured
	}
	if !anyMeasured {
		return fmt.Errorf("workload %q: no measured class", p.Name)
	}
	if p.RequestBytes <= 0 || p.ReplyBytes <= 0 {
		return fmt.Errorf("workload %q: request/reply sizes must be positive", p.Name)
	}
	if p.SLOFactor <= 0 && p.SLONanos <= 0 {
		return fmt.Errorf("workload %q: no SLO specified", p.Name)
	}
	return nil
}

// MeanService returns the weighted mean processing time over all classes —
// the E[S] that determines the machine's saturation throughput.
func (p Profile) MeanService() float64 {
	total, sum := 0.0, 0.0
	for _, c := range p.Classes {
		total += c.Weight
		sum += c.Weight * c.Service.Mean()
	}
	return sum / total
}

// PickClass samples a class index according to the weights.
func (p Profile) PickClass(r *rng.Source) int {
	return p.PickClassAt(r.Float64() * p.TotalWeight())
}

// TotalWeight sums the class weights — the scale factor PickClassAt expects.
func (p Profile) TotalWeight() float64 {
	total := 0.0
	for _, c := range p.Classes {
		total += c.Weight
	}
	return total
}

// PickClassAt maps a pre-drawn uniform u ∈ [0, TotalWeight()) to a class
// index with exactly PickClass's weight walk, so callers batching their
// Float64 draws (rng.FloatBatch) select byte-identical classes.
func (p Profile) PickClassAt(u float64) int {
	for i, c := range p.Classes {
		if u < c.Weight {
			return i
		}
		u -= c.Weight
	}
	return len(p.Classes) - 1
}

// single builds a one-class profile with the paper's standard microbenchmark
// framing: small request, 512 B reply, 10× SLO.
func single(name string, d dist.Sampler) Profile {
	return Profile{
		Name:         name,
		Classes:      []Class{{Name: name, Weight: 1, Service: d, Measured: true}},
		RequestBytes: 64,
		ReplyBytes:   512,
		SLOFactor:    10,
	}
}

// SyntheticBase is the fixed component of the synthetic profiles: 300 ns.
const SyntheticBase = 300.0

// SyntheticExtra is the mean of the distributed component: 300 ns.
const SyntheticExtra = 300.0

// paperGEVCycles is §5's GEV(363, 100, 0.65), in 2 GHz cycles.
var paperGEVCycles = dist.GEV{Loc: 363, Scale: 100, Shape: 0.65}

// paperGEV is paperGEVCycles converted to ns (divide by 2), giving a mean of
// ≈300 ns.
var paperGEV = dist.GEV{Loc: paperGEVCycles.Loc / 2, Scale: paperGEVCycles.Scale / 2, Shape: paperGEVCycles.Shape}

// SyntheticKinds names the four §5 service shapes, in the paper's order of
// increasing variance; Synthetic and Unit accept each.
var SyntheticKinds = []string{"fixed", "uniform", "exp", "gev"}

// SyntheticFixed is the fixed 600 ns profile (ideal for balancing).
func SyntheticFixed() Profile {
	return single("synthetic-fixed", dist.Fixed{Value: SyntheticBase + SyntheticExtra})
}

// SyntheticUniform adds a uniform[0, 600) ns extra to the 300 ns base.
func SyntheticUniform() Profile {
	return single("synthetic-uniform",
		dist.Shifted{Base: SyntheticBase, Inner: dist.Uniform{Lo: 0, Hi: 2 * SyntheticExtra}})
}

// SyntheticExp adds an exponential extra with mean 300 ns.
func SyntheticExp() Profile {
	return single("synthetic-exp",
		dist.Shifted{Base: SyntheticBase, Inner: dist.Exponential{MeanValue: SyntheticExtra}})
}

// SyntheticGEV adds the paper's GEV extra (mean ≈300 ns, heavy tail).
func SyntheticGEV() Profile {
	return single("synthetic-gev", dist.Shifted{Base: SyntheticBase, Inner: paperGEV})
}

// Synthetic returns the named synthetic profile ("fixed", "uniform", "exp",
// "gev") or an error for anything else.
func Synthetic(kind string) (Profile, error) {
	switch kind {
	case "fixed":
		return SyntheticFixed(), nil
	case "uniform":
		return SyntheticUniform(), nil
	case "exp":
		return SyntheticExp(), nil
	case "gev":
		return SyntheticGEV(), nil
	default:
		return Profile{}, fmt.Errorf("workload: unknown synthetic kind %q", kind)
	}
}

// ByName resolves a workload name as the command-line tools spell it:
// "herd", "masstree", or one of SyntheticKinds.
func ByName(name string) (Profile, error) {
	switch name {
	case "herd":
		return HERD(), nil
	case "masstree":
		return Masstree(), nil
	}
	p, err := Synthetic(name)
	if err != nil {
		return Profile{}, fmt.Errorf("workload: unknown workload %q (want herd, masstree, fixed, uniform, exp, or gev)", name)
	}
	return p, nil
}

// Unit returns the distributed component of a synthetic kind scaled to mean
// 1 — the §2.2 service shapes the queueing models run in units of S̄.
func Unit(kind string) (dist.Sampler, error) {
	switch kind {
	case "fixed":
		return dist.Fixed{Value: 1}, nil
	case "uniform":
		return dist.Uniform{Lo: 0, Hi: 2}, nil
	case "exp":
		return dist.Exponential{MeanValue: 1}, nil
	case "gev":
		return dist.Normalized(paperGEVCycles), nil
	default:
		return nil, fmt.Errorf("workload: unknown service shape %q (want fixed, uniform, exp, or gev)", kind)
	}
}

// HERD models the HERD key-value store's RPC processing times (Fig 6b):
// a 150 ns floor plus a right-skewed lognormal body, calibrated to the
// published mean of 330 ns with a tail reaching ≈1 µs.
func HERD() Profile {
	// mean = 150 + exp(mu + sigma²/2) = 330  =>  lognormal mean 180.
	const sigma = 0.55
	mu := math.Log(180) - sigma*sigma/2
	return single("herd", dist.Shifted{Base: 150, Inner: dist.Lognormal{Mu: mu, Sigma: sigma}})
}

// MasstreeGets models Masstree get operations (Fig 6c): 400 ns floor plus a
// lognormal body, mean 1.25 µs, spreading to ≈4 µs.
func MasstreeGets() dist.Sampler {
	const sigma = 0.6
	mu := math.Log(850) - sigma*sigma/2
	return dist.Shifted{Base: 400, Inner: dist.Lognormal{Mu: mu, Sigma: sigma}}
}

// MasstreeScans models the 100-key ordered scans: 60–120 µs of continuous
// occupancy.
func MasstreeScans() dist.Sampler {
	return dist.Uniform{Lo: 60_000, Hi: 120_000}
}

// Masstree is the §6.1 interference workload: 99% latency-critical gets and
// 1% long scans sharing the same cores, with the paper's absolute 12.5 µs
// SLO applied to gets only.
func Masstree() Profile {
	return Profile{
		Name: "masstree",
		Classes: []Class{
			{Name: "get", Weight: 0.99, Service: MasstreeGets(), Measured: true},
			{Name: "scan", Weight: 0.01, Service: MasstreeScans(), Measured: false},
		},
		RequestBytes: 64,
		ReplyBytes:   512,
		SLONanos:     12_500,
	}
}
