package machine

import (
	"fmt"
	"strconv"
	"strings"

	"rpcvalet/internal/sim"
)

// Pause is a stall window [Start, Start+Dur) in virtual time: any core that
// would begin work inside the window instead stalls until it ends — a
// first-order model of whole-node freezes (garbage collection, power
// capping, firmware SMIs). Work already in flight when the window opens is
// not interrupted.
type Pause struct {
	Start sim.Duration // offset from simulation start
	Dur   sim.Duration
}

func (p Pause) String() string {
	return "pause@" + sim.FormatSpan(p.Start.Micros(), "us") + "+" + sim.FormatSpan(p.Dur.Micros(), "us")
}

// PauseStall returns how long work beginning at time t must stall to clear
// every pause window containing t — the shared semantics for paused cores
// here and paused rack balancers in internal/cluster.
func PauseStall(pauses []Pause, t sim.Time) sim.Duration { return pauseStall(pauses, t) }

// pauseStall returns how long work beginning at time t must stall to clear
// every pause window containing t.
func pauseStall(pauses []Pause, t sim.Time) sim.Duration {
	var stall sim.Duration
	for _, p := range pauses {
		start := sim.Time(0).Add(p.Start)
		end := start.Add(p.Dur)
		if t >= start && t < end && end.Sub(t) > stall {
			stall = end.Sub(t)
		}
	}
	return stall
}

// Fault bundles one server's degradation: a service-time slowdown factor
// and/or stall windows. The zero value means a healthy server.
type Fault struct {
	// Slowdown multiplies every sampled handler service time. 0 and 1 both
	// mean full speed; 1.5 models a server running at 2/3 speed.
	Slowdown float64
	Pauses   []Pause
}

func (f Fault) validate() error {
	if f.Slowdown < 0 {
		return fmt.Errorf("machine: negative slowdown %g", f.Slowdown)
	}
	for _, p := range f.Pauses {
		if p.Start < 0 || p.Dur < 0 {
			return fmt.Errorf("machine: negative pause window %v", p)
		}
	}
	return nil
}

func (f Fault) String() string {
	var parts []string
	if f.Slowdown > 0 && f.Slowdown != 1 {
		parts = append(parts, fmt.Sprintf("x%g", f.Slowdown))
	}
	for _, p := range f.Pauses {
		parts = append(parts, p.String())
	}
	if len(parts) == 0 {
		return "healthy"
	}
	return strings.Join(parts, ",")
}

// ParseFault parses the degradation grammar shared by the CLIs' -degrade
// flags: a comma-separated list of terms, each either a slowdown factor
// "x1.5" or a stall window "pause@START+DUR" with durations in the
// sim.ParseDuration grammar (e.g. "pause@200us+100us"). "healthy", the
// String of the zero Fault, parses back to it.
func ParseFault(spec string) (Fault, error) {
	var f Fault
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		switch {
		case term == "" || term == "healthy":
			continue
		case strings.HasPrefix(term, "x"):
			v, err := strconv.ParseFloat(term[1:], 64)
			if err != nil || !sim.ValidFactor(v) {
				return Fault{}, fmt.Errorf("machine: bad slowdown %q (want e.g. x1.5)", term)
			}
			f.Slowdown = v
		case strings.HasPrefix(term, "pause@"):
			body := term[len("pause@"):]
			at, dur, ok := strings.Cut(body, "+")
			if !ok {
				return Fault{}, fmt.Errorf("machine: bad pause %q (want pause@START+DUR)", term)
			}
			start, err := sim.ParseDuration(at)
			if err != nil {
				return Fault{}, err
			}
			d, err := sim.ParseDuration(dur)
			if err != nil {
				return Fault{}, err
			}
			f.Pauses = append(f.Pauses, Pause{Start: start, Dur: d})
		default:
			return Fault{}, fmt.Errorf("machine: bad fault term %q (want x<factor> or pause@START+DUR)", term)
		}
	}
	return f, f.validate()
}
