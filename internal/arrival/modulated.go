package arrival

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"rpcvalet/internal/rng"
	"rpcvalet/internal/sim"
)

// Envelope is a deterministic rate-modulation profile: a dimensionless
// factor over virtual time that multiplies a base arrival process's
// instantaneous rate. Factor 1 is the base rate; a Step to 2 doubles it.
//
// Envelopes are consumed through Advance — the inverse of the factor's
// cumulative integral — which lets Modulated warp any base process exactly
// (piecewise closed form, no discretization), preserving the base's gap
// shape in "operational time" while the real-time rate follows the profile.
type Envelope interface {
	// FactorAt returns the rate factor at virtual time t (nanoseconds).
	FactorAt(tNanos float64) float64
	// Advance returns the real-time span dt ≥ 0 such that the factor's
	// integral over [t, t+dt] equals area (the gap drawn in operational
	// time). Implementations must be exact for their piecewise form.
	Advance(tNanos, area float64) float64
	// String describes the envelope and its parameters for reports.
	String() string
}

func checkFactor(what string, f float64) {
	if !sim.ValidFactor(f) {
		panic(fmt.Sprintf("arrival: %s factor %g must be positive and finite", what, f))
	}
}

// --- Step -------------------------------------------------------------------

// Step holds factor 1 until AtNanos, then Factor forever — the canonical
// load-step transient (a tenant arriving, a failover doubling a replica's
// share).
type Step struct {
	AtNanos float64
	Factor  float64
}

// NewStep builds a load step at atNanos jumping to factor× the base rate.
func NewStep(atNanos, factor float64) Step {
	checkFactor("step", factor)
	return Step{AtNanos: atNanos, Factor: factor}
}

func (e Step) FactorAt(t float64) float64 {
	if t < e.AtNanos {
		return 1
	}
	return e.Factor
}

func (e Step) Advance(t, area float64) float64 {
	if t >= e.AtNanos {
		return area / e.Factor
	}
	if pre := e.AtNanos - t; area <= pre {
		return area
	} else {
		return pre + (area-pre)/e.Factor
	}
}

func (e Step) String() string {
	return fmt.Sprintf("step@%s:x%g", sim.FormatSpan(e.AtNanos, "ns"), e.Factor)
}

// --- Pulse ------------------------------------------------------------------

// Pulse holds factor 1 except within [StartNanos, StartNanos+DurNanos),
// where the rate is Factor× — a bounded overload burst (flash crowd, retry
// storm) whose recovery the timeline can watch.
type Pulse struct {
	StartNanos, DurNanos float64
	Factor               float64
}

// NewPulse builds a factor× pulse covering [startNanos, startNanos+durNanos).
func NewPulse(startNanos, durNanos, factor float64) Pulse {
	checkFactor("pulse", factor)
	if durNanos <= 0 {
		panic(fmt.Sprintf("arrival: pulse duration %g must be positive", durNanos))
	}
	return Pulse{StartNanos: startNanos, DurNanos: durNanos, Factor: factor}
}

func (e Pulse) FactorAt(t float64) float64 {
	if t >= e.StartNanos && t < e.StartNanos+e.DurNanos {
		return e.Factor
	}
	return 1
}

func (e Pulse) Advance(t, area float64) float64 {
	dt := 0.0
	for area > 0 {
		f := e.FactorAt(t + dt)
		// Distance to the next factor boundary from the current position.
		var edge float64
		switch {
		case t+dt < e.StartNanos:
			edge = e.StartNanos - (t + dt)
		case t+dt < e.StartNanos+e.DurNanos:
			edge = e.StartNanos + e.DurNanos - (t + dt)
		default:
			return dt + area // constant 1 forever after
		}
		if span := area / f; span <= edge {
			return dt + span
		}
		dt += edge
		area -= edge * f
	}
	return dt
}

func (e Pulse) String() string {
	return fmt.Sprintf("pulse@%s+%s:x%g", sim.FormatSpan(e.StartNanos, "ns"), sim.FormatSpan(e.DurNanos, "ns"), e.Factor)
}

// --- Ramp -------------------------------------------------------------------

// Ramp interpolates the factor linearly from 1 to Factor over
// [StartNanos, StartNanos+DurNanos), holding Factor afterward — a gradual
// load shift rather than a discontinuity.
type Ramp struct {
	StartNanos, DurNanos float64
	Factor               float64
}

// NewRamp builds a linear ramp from 1× to factor× over durNanos starting at
// startNanos.
func NewRamp(startNanos, durNanos, factor float64) Ramp {
	checkFactor("ramp", factor)
	if durNanos <= 0 {
		panic(fmt.Sprintf("arrival: ramp duration %g must be positive", durNanos))
	}
	return Ramp{StartNanos: startNanos, DurNanos: durNanos, Factor: factor}
}

func (e Ramp) FactorAt(t float64) float64 {
	switch {
	case t < e.StartNanos:
		return 1
	case t >= e.StartNanos+e.DurNanos:
		return e.Factor
	default:
		return 1 + (e.Factor-1)*(t-e.StartNanos)/e.DurNanos
	}
}

func (e Ramp) Advance(t, area float64) float64 {
	dt := 0.0
	// Segment 1: flat 1 before the ramp.
	if t < e.StartNanos {
		pre := e.StartNanos - t
		if area <= pre {
			return area
		}
		dt += pre
		area -= pre
		t = e.StartNanos
	}
	// Segment 2: the linear ramp. With u the offset into the ramp and
	// k = (Factor−1)/Dur, ∫(1+k·u)du from u0 to u1 = area solves as a
	// quadratic in u1.
	if t < e.StartNanos+e.DurNanos {
		u0 := t - e.StartNanos
		k := (e.Factor - 1) / e.DurNanos
		var u1 float64
		if k == 0 {
			u1 = u0 + area
		} else {
			c := area + u0 + k*u0*u0/2
			u1 = (math.Sqrt(1+2*k*c) - 1) / k
		}
		if u1 <= e.DurNanos {
			return dt + (u1 - u0)
		}
		// Consume the rest of the ramp exactly, continue in the hold.
		rampArea := (e.DurNanos - u0) + k*(e.DurNanos*e.DurNanos-u0*u0)/2
		dt += e.DurNanos - u0
		area -= rampArea
	}
	// Segment 3: flat Factor after the ramp.
	return dt + area/e.Factor
}

func (e Ramp) String() string {
	return fmt.Sprintf("ramp@%s+%s:x%g", sim.FormatSpan(e.StartNanos, "ns"), sim.FormatSpan(e.DurNanos, "ns"), e.Factor)
}

// --- SquareWave ---------------------------------------------------------

// SquareWave alternates between Factor (for HighNanos at the start of each
// period) and 1 (the remainder) — sustained periodic bursting, the diurnal
// pattern scaled down to microseconds.
type SquareWave struct {
	PeriodNanos, HighNanos float64
	Factor                 float64
}

// NewSquareWave builds a square wave with the given period, high-phase
// length, and high-phase factor.
func NewSquareWave(periodNanos, highNanos, factor float64) SquareWave {
	checkFactor("square", factor)
	if !(periodNanos > 0) || !(highNanos > 0) || highNanos >= periodNanos {
		panic(fmt.Sprintf("arrival: square wave high %gns must lie inside period %gns", highNanos, periodNanos))
	}
	return SquareWave{PeriodNanos: periodNanos, HighNanos: highNanos, Factor: factor}
}

func (e SquareWave) FactorAt(t float64) float64 {
	if t < 0 {
		return 1
	}
	if mod(t, e.PeriodNanos) < e.HighNanos {
		return e.Factor
	}
	return 1
}

func (e SquareWave) Advance(t, area float64) float64 {
	// Fast-skip whole periods: each contributes a fixed area.
	perPeriod := e.HighNanos*e.Factor + (e.PeriodNanos - e.HighNanos)
	dt := 0.0
	for area > 0 {
		pos := mod(t+dt, e.PeriodNanos)
		var f, edge float64
		if pos < e.HighNanos {
			f, edge = e.Factor, e.HighNanos-pos
		} else {
			f, edge = 1, e.PeriodNanos-pos
		}
		if span := area / f; span <= edge {
			return dt + span
		}
		dt += edge
		area -= edge * f
		// At a period start with lots of area left, skip whole periods.
		if mod(t+dt, e.PeriodNanos) == 0 && area > perPeriod {
			n := float64(int(area / perPeriod))
			dt += n * e.PeriodNanos
			area -= n * perPeriod
		}
	}
	return dt
}

func (e SquareWave) String() string {
	return fmt.Sprintf("square@%s/%s:x%g", sim.FormatSpan(e.PeriodNanos, "ns"), sim.FormatSpan(e.HighNanos, "ns"), e.Factor)
}

// mod wraps math.Mod for positive operands.
func mod(a, b float64) float64 { return math.Mod(a, b) }

// --- Modulated --------------------------------------------------------------

// Modulated wraps any base Process with an Envelope: the base generates gaps
// in "operational time" at its own mean rate, and the envelope's inverse
// cumulative integral warps them into real time, so the instantaneous
// arrival rate is base-rate × FactorAt(t) while the base's gap shape (CV,
// burst structure) is preserved. Every built-in process composes — a
// modulated MMPP2 is a bursty stream riding a load step.
//
// Modulated carries run state (its position on the virtual clock, which the
// drivers advance implicitly by scheduling each gap after the previous
// arrival); Resolve/Fresh clone it per run like MMPP2. AtMRPS re-rates the
// base process, so Config.RateMRPS keeps meaning "the factor-1 rate".
type Modulated struct {
	Base Process
	Env  Envelope

	tNanos float64 // run state: the process's position in real time
}

// NewModulated wraps base with env. The base's configured rate is the
// factor-1 rate; simulators re-rate it through the usual AtMRPS path.
func NewModulated(base Process, env Envelope) *Modulated {
	if base == nil || env == nil {
		panic("arrival: NewModulated needs a base process and an envelope")
	}
	if _, nested := base.(*Modulated); nested {
		panic("arrival: nested Modulated envelopes are not supported")
	}
	return &Modulated{Base: base, Env: env}
}

func (p *Modulated) Next(r *rng.Source) sim.Duration {
	g := p.Base.Next(r).Nanos() // gap in operational time
	dt := p.Env.Advance(p.tNanos, g)
	p.tNanos += dt
	return sim.FromNanos(dt)
}

func (p *Modulated) String() string {
	return fmt.Sprintf("%s(%s)", p.Env, p.Base)
}

// AtMRPS re-rates the base process (the factor-1 rate), envelope unchanged.
func (p *Modulated) AtMRPS(rateMRPS float64) Process {
	return &Modulated{Base: AtMRPS(p.Base, rateMRPS), Env: p.Env}
}

func (p *Modulated) fresh() Process {
	return &Modulated{Base: Fresh(p.Base), Env: p.Env}
}

// ParseEnvelope parses the CLI -modulate grammar (durations follow
// sim.ParseDuration — "50us", "1.5ms", bare ns):
//
//	step@AT:xF          e.g. step@400us:x2
//	pulse@START+DUR:xF  e.g. pulse@400us+200us:x2
//	ramp@START+DUR:xF   e.g. ramp@100us+500us:x3
//	square@PERIOD/HIGH:xF e.g. square@200us/50us:x2.5
func ParseEnvelope(spec string) (Envelope, error) {
	kind, rest, ok := strings.Cut(strings.TrimSpace(spec), "@")
	if !ok {
		return nil, fmt.Errorf("arrival: bad envelope %q (want kind@params:xF)", spec)
	}
	params, factorStr, ok := strings.Cut(rest, ":")
	if !ok || !strings.HasPrefix(factorStr, "x") {
		return nil, fmt.Errorf("arrival: envelope %q missing \":x<factor>\"", spec)
	}
	factor, err := strconv.ParseFloat(factorStr[1:], 64)
	if err != nil || !sim.ValidFactor(factor) {
		return nil, fmt.Errorf("arrival: bad envelope factor %q", factorStr)
	}
	dur := func(s string) (float64, error) {
		d, err := sim.ParseDuration(s)
		return d.Nanos(), err
	}
	two := func(sep string) (float64, float64, error) {
		a, b, ok := strings.Cut(params, sep)
		if !ok {
			return 0, 0, fmt.Errorf("arrival: envelope %q wants two durations separated by %q", spec, sep)
		}
		av, err := dur(a)
		if err != nil {
			return 0, 0, err
		}
		bv, err := dur(b)
		if err != nil {
			return 0, 0, err
		}
		return av, bv, nil
	}
	switch kind {
	case "step":
		at, err := dur(params)
		if err != nil {
			return nil, err
		}
		return NewStep(at, factor), nil
	case "pulse":
		start, d, err := two("+")
		if err != nil {
			return nil, err
		}
		if d <= 0 {
			return nil, fmt.Errorf("arrival: pulse duration must be positive in %q", spec)
		}
		return NewPulse(start, d, factor), nil
	case "ramp":
		start, d, err := two("+")
		if err != nil {
			return nil, err
		}
		if d <= 0 {
			return nil, fmt.Errorf("arrival: ramp duration must be positive in %q", spec)
		}
		return NewRamp(start, d, factor), nil
	case "square":
		period, high, err := two("/")
		if err != nil {
			return nil, err
		}
		if !(period > 0) || !(high > 0) || high >= period {
			return nil, fmt.Errorf("arrival: square wave high must lie inside the period in %q", spec)
		}
		return NewSquareWave(period, high, factor), nil
	}
	return nil, fmt.Errorf("arrival: unknown envelope kind %q (want step, pulse, ramp, square)", kind)
}
