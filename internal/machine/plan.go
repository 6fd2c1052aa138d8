package machine

import (
	"fmt"
	"strconv"
	"strings"

	"rpcvalet/internal/ni"
)

// A Plan declaratively describes the machine's dispatch architecture: how
// the serving cores are grouped under NI dispatchers, which policy each
// dispatcher runs, the per-core outstanding threshold, and whether dispatch
// happens in NI hardware at all or through the software (MCS-locked)
// in-memory queue. The grouping also fixes how NI backends route
// message-completion tokens to dispatchers: each backend forwards to the
// dispatcher of its own mesh slice (dispatcher = backend × groups /
// backends) while dispatchers are no more numerous than backends; past
// that, each message is assigned a dispatcher at arrival, RSS-style — a flow
// hash of the source node when Params.RSSByFlow is set, otherwise a uniform
// random draw.
//
// The four legacy Mode constants are now just canned plans (PlanForMode);
// every combination the Mode enum could not express — JBSQ(n)
// bounded-outstanding dispatch, 2×8 groupings, per-dispatcher policies,
// locality-aware arbitration — is an ordinary Plan value. Set Params.Plan to
// use one; when Plan is nil the machine builds the canned plan for
// Params.Mode, byte-for-byte reproducing the historical result streams
// (pinned in pin_test.go).
type Plan struct {
	// Name labels results and reports. Empty means a name is synthesized
	// from the resolved shape ("plan-2x8/random2").
	Name string

	// Groups is the number of NI dispatcher groups the cores are split
	// into, contiguously and evenly (it must divide Params.Cores). 1 is the
	// full single-queue machine; Params.Cores is per-core (partitioned)
	// dispatch. Two negative sentinels resolve against Params at build
	// time: GroupsPerBackend and GroupsPerCore. Zero means 1.
	Groups int

	// Threshold is the per-core outstanding limit the dispatchers enforce
	// (JBSQ(n)'s bound). Zero inherits Params.Threshold; ni.Unlimited
	// removes the bound, which turns each dispatcher into a static router.
	Threshold int

	// Policy selects the arbiter each dispatcher runs; every dispatcher
	// gets its own instance via Spec.New. The zero Spec selects the default
	// occupancy-feedback arbiter (ni.LeastOutstandingRR).
	Policy ni.Spec

	// Software replaces the NI dispatchers entirely: backends append to the
	// shared in-memory queue that cores drain under the MCS lock (§6.2's
	// baseline). Groups, Threshold, and Policy are ignored.
	Software bool

	// groupSize, when nonzero, records the per-group core count of a
	// literal GxM ParsePlan spec so validation can reject groupings that
	// don't match the machine. Programmatic plans express the same
	// constraint through Groups alone.
	groupSize int
}

// Sentinel Groups values, resolved against Params at build time so canned
// plans stay correct for any core/backend count.
const (
	// GroupsPerBackend gives each NI backend its own dispatcher over its
	// share of the cores (the legacy grouped mode).
	GroupsPerBackend = -1
	// GroupsPerCore gives every core a private dispatcher (the legacy
	// partitioned/RSS mode).
	GroupsPerCore = -2
)

// PlanSingleQueue is the canned RPCValet plan: one dispatcher balancing all
// cores from a single shared CQ (the legacy ModeSingleQueue).
func PlanSingleQueue() *Plan {
	return &Plan{Name: ModeSingleQueue.String(), Groups: 1}
}

// PlanGrouped restricts each NI backend to its own core group (the legacy
// ModeGrouped).
func PlanGrouped() *Plan {
	return &Plan{Name: ModeGrouped.String(), Groups: GroupsPerBackend}
}

// PlanPartitioned statically assigns each message to a core, RSS-style, with
// no outstanding limit and no rebalancing (the legacy ModePartitioned).
func PlanPartitioned() *Plan {
	return &Plan{
		Name:      ModePartitioned.String(),
		Groups:    GroupsPerCore,
		Threshold: ni.Unlimited,
	}
}

// PlanSoftware implements the single queue in software: NIs append to one
// in-memory queue drained under an MCS lock (the legacy ModeSoftware).
func PlanSoftware() *Plan {
	return &Plan{Name: ModeSoftware.String(), Software: true}
}

// PlanJBSQ is the nanoPU-style JBSQ(n) plan: one shared queue, at most n
// outstanding per core, shortest-(bounded-)queue arbitration. JBSQ(1) is the
// strict single-queue ideal (with the dispatch-round-trip bubble the paper's
// threshold-2 default exists to hide); larger n trades queueing imbalance
// for bubble-free handoff.
func PlanJBSQ(n int) *Plan {
	return &Plan{
		Name:      fmt.Sprintf("jbsq%d", n),
		Groups:    1,
		Threshold: n,
		Policy:    mustSpec("least-outstanding"),
	}
}

// PlanForMode returns the canned plan reproducing a legacy Mode.
func PlanForMode(m Mode) (*Plan, error) {
	switch m {
	case ModeSingleQueue:
		return PlanSingleQueue(), nil
	case ModeGrouped:
		return PlanGrouped(), nil
	case ModePartitioned:
		return PlanPartitioned(), nil
	case ModeSoftware:
		return PlanSoftware(), nil
	}
	return nil, fmt.Errorf("machine: no plan for mode %d", int(m))
}

func mustSpec(name string) ni.Spec {
	s, err := ni.SpecByName(name)
	if err != nil {
		panic(err)
	}
	return s
}

// ParsePlan builds a Plan from a compact spec string, the grammar behind the
// CLIs' -dispatch flags:
//
//	spec   := base [":" policy]
//	base   := "1x16" | "single"      (one dispatcher over all cores)
//	        | "4x4"  | "grouped"     (one dispatcher per NI backend)
//	        | "16x1" | "partitioned" (per-core static RSS dispatch)
//	        | "sw"   | "software"    (MCS-locked software queue)
//	        | "jbsq" N               (JBSQ(N): bounded-outstanding single queue)
//	        | G "x" M                (G dispatchers of M cores each)
//	policy := any ni.SpecByName name ("least-outstanding", "random2", "local", ...)
//
// The well-known names resolve to the canned plans (so they adapt to any
// core/backend count); a literal GxM grouping is validated against
// Params.Cores when the machine is built.
func ParsePlan(spec string) (*Plan, error) {
	base, polName, hasPol := strings.Cut(spec, ":")
	var pl *Plan
	switch base {
	case "1x16", "single":
		pl = PlanSingleQueue()
	case "4x4", "grouped":
		pl = PlanGrouped()
	case "16x1", "partitioned", "rss":
		pl = PlanPartitioned()
	case "sw", "software":
		pl = PlanSoftware()
	default:
		if ns, ok := strings.CutPrefix(base, "jbsq"); ok {
			// Plain decimal only, as ni.SpecByName reads randomN: the plan
			// is named jbsqN, so "jbsq02" would run as "jbsq2".
			n, err := strconv.Atoi(ns)
			if err != nil || n < 1 || strconv.Itoa(n) != ns {
				return nil, fmt.Errorf("machine: bad JBSQ plan %q (want jbsq1, jbsq2, ...)", base)
			}
			pl = PlanJBSQ(n)
			break
		}
		gs, ms, ok := strings.Cut(base, "x")
		if !ok {
			return nil, fmt.Errorf("machine: bad dispatch plan %q (want 1x16, 4x4, 16x1, sw, jbsqN, or GxM)", spec)
		}
		g, err1 := strconv.Atoi(gs)
		m, err2 := strconv.Atoi(ms)
		if err1 != nil || err2 != nil || g < 1 || m < 1 {
			return nil, fmt.Errorf("machine: bad dispatch grouping %q", base)
		}
		pl = &Plan{Name: base, Groups: g, groupSize: m}
	}
	if hasPol {
		if pl.Software {
			return nil, fmt.Errorf("machine: plan %q: the software queue takes no NI policy", spec)
		}
		s, err := ni.SpecByName(polName)
		if err != nil {
			return nil, err
		}
		pl.Policy = s
		pl.Name = spec
	}
	return pl, nil
}

// validate checks the plan against the machine's parameters.
func (pl *Plan) validate(p Params) error {
	if pl.Software {
		return nil
	}
	groups, err := pl.resolveGroups(p)
	if err != nil {
		return err
	}
	// resolveGroups guarantees groups divides Cores; comparing by division
	// cannot wrap the way groups*groupSize does for a huge literal M.
	if pl.groupSize != 0 && pl.groupSize != p.Cores/groups {
		return fmt.Errorf("machine: plan %s: %d groups × %d cores ≠ %d machine cores",
			pl.label(p), groups, pl.groupSize, p.Cores)
	}
	if t := pl.Threshold; t != 0 && t != ni.Unlimited && t < 1 {
		return fmt.Errorf("machine: plan %s: outstanding threshold %d must be >= 1", pl.label(p), t)
	}
	return nil
}

// resolveGroups maps the Groups field (including sentinels) to a concrete
// dispatcher count for this machine.
func (pl *Plan) resolveGroups(p Params) (int, error) {
	g := pl.Groups
	switch g {
	case 0:
		g = 1
	case GroupsPerBackend:
		g = p.Backends
	case GroupsPerCore:
		g = p.Cores
	}
	if g < 1 {
		return 0, fmt.Errorf("machine: plan group count %d invalid", pl.Groups)
	}
	if p.Cores%g != 0 {
		return 0, fmt.Errorf("machine: %d cores do not split into %d dispatcher groups", p.Cores, g)
	}
	return g, nil
}

// resolveThreshold maps the Threshold field to the concrete per-core bound.
func (pl *Plan) resolveThreshold(p Params) int {
	if pl.Threshold == 0 {
		return p.Threshold
	}
	return pl.Threshold
}

// execPlan is a Plan resolved against concrete Params: every sentinel and
// zero-means-inherit field replaced by its concrete value. The machine's
// construction and dispatch paths consult only this.
type execPlan struct {
	groups    int
	threshold int
	rss       bool // dispatchers outnumber backends: assign each at arrival
	software  bool
	policy    ni.Spec // zero Spec = the default arbiter
	label     string
}

// resolvePlan picks the effective plan for the parameters — the explicit
// Params.Plan when set, else the canned plan for the legacy Params.Mode —
// and resolves it.
func resolvePlan(p Params) (execPlan, error) {
	pl := p.Plan
	if pl == nil {
		var err error
		if pl, err = PlanForMode(p.Mode); err != nil {
			return execPlan{}, err
		}
	}
	if err := pl.validate(p); err != nil {
		return execPlan{}, err
	}
	if pl.Software {
		return execPlan{software: true, label: pl.label(p)}, nil
	}
	groups, err := pl.resolveGroups(p)
	if err != nil {
		return execPlan{}, err
	}
	return execPlan{
		groups:    groups,
		threshold: pl.resolveThreshold(p),
		rss:       groups > p.Backends,
		policy:    pl.Policy,
		label:     pl.label(p),
	}, nil
}

// label is the display name of the plan under the given parameters.
func (pl *Plan) label(p Params) string {
	if pl.Name != "" {
		return pl.Name
	}
	if pl.Software {
		return ModeSoftware.String()
	}
	groups, err := pl.resolveGroups(p)
	if err != nil {
		return "plan(invalid)"
	}
	name := fmt.Sprintf("plan-%dx%d", groups, p.Cores/groups)
	if pl.Policy.Name != "" {
		name += "/" + pl.Policy.Name
	}
	return name
}
