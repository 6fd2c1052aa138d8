package machine

import (
	"fmt"
	"math"

	"rpcvalet/internal/arrival"
	"rpcvalet/internal/fifo"
	"rpcvalet/internal/metrics"
	"rpcvalet/internal/ni"
	"rpcvalet/internal/noc"
	"rpcvalet/internal/rng"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/sonuma"
	"rpcvalet/internal/trace"
	"rpcvalet/internal/workload"
)

// request tracks one RPC through the machine. Requests are pooled: complete
// recycles them onto a free-list, its two flow-control credits deferred
// apart from it (see credit), so steady state allocates no request objects.
// The stage fields (backend, disp, core, svcStart) carry the state the hot
// path's arg-form events need, replacing per-event closures; every stage
// field is written before the stage that reads it.
type request struct {
	ref      int32 // index in Machine.reqs, fixed when first allocated
	id       uint64
	src      sonuma.NodeID
	pairSlot int // slot within the (src → us) slot set
	slot     int // global receive-buffer slot index while admitted, else -1
	class    int
	svcNanos float64  // handler time, sampled at admission for determinism
	arrive   sim.Time // message fully received at the NI (measurement start)
	// onDoneFn, when non-nil, fires at completion time as
	// onDoneFn(onDoneArg, class, measured). Externally injected requests
	// (multi-node simulations) carry their measurement callback here
	// instead of using the machine's internal counters.
	onDoneFn  func(arg any, class int, measured bool)
	onDoneArg any

	backend  int      // NI backend ingesting this request
	disp     int      // dispatcher routing the completion token
	core     *core    // serving core, set at dispatch/begin
	svcStart sim.Time // handler start (after poll detection and stalls)
}

// credit is one deferred flow-control credit (DESIGN.md §9): a receive-slot
// replenish returning pair slot slot to source src, or a reply send-slot
// credit returning send slot slot toward src. It is not an event: it waits
// in a sim.Deferred under the (at, seq) key its event would have had, and
// settleFree or settleReplies applies it once that key has passed, before
// the slot table it returns to is read. It becomes a wake event only while
// src has requests waiting on it.
type credit struct {
	src  int32
	slot int32
}

// waiters is one source's queue of requests blocked on flow control:
// arrivals parked on receive slots, or cores stalled on reply credits.
// woke is the wake mark: the source's credits of that kind with a seq
// below it already have wake events.
type waiters struct {
	fifo.Queue[*request]
	woke uint64
}

// unlimitedNotices presizes a deferred-notice list under an unlimited
// threshold. A list under a finite one gets its group's core count: on a
// 1x16 node it peaked at 15 under HERD at 0.8 of capacity, and at 12–17
// over HERD, synthetic-exp and Masstree at 0.5–0.95. Under an unlimited
// threshold a core's notices pile up between the route tokens that settle
// them: a 16x1 core's one-core list peaked at 8–28 over the same loads.
// It is presized to the smallest of those peaks, so a list at its largest
// regrows twice, not five times; presized to 32, a 16x1 node cost 12 KB
// more to build, and figures-quick's setup_mb rose 16%. Past its presize
// a list grows on demand.
const unlimitedNotices = 8

// Credit-list presizes, what the rings they replaced held (one replenish
// ring, four 12-slot reply rings). A 1x16 HERD node at 0.8 of capacity
// peaked at 31 and 38 over 220,000 completions; a list past its presize
// grows by append (DESIGN.md §10). Each entry is 24 bytes, paid at build.
const (
	replenishPresize   = 24
	replyCreditPresize = 48
)

// notices is one dispatcher's deferred completion notices (DESIGN.md §9).
// A core's notice to its dispatcher is deferred like a credit: it waits
// under the (at, seq) key its notifyWire event would have had, and
// settleNotices applies it once that key has passed, before the dispatch
// stage is next read. It becomes a notifyWire event at its key while its
// dispatcher is contended (notify).
type notices struct {
	sim.Deferred[*core]
	routeEnd sim.Time // stage end of the latest route token
}

// core is one serving core's state. Busy-time accounting lives in the
// machine's metrics.Recorder, keyed by core ID. Its wires are fixed at
// build: deliverWire carries a CQE from its dispatcher to its private CQ,
// notifyWire the replenish token back, and replyBackend is the NI backend
// serving its mesh rows.
type core struct {
	id           int
	busy         bool
	disp         int32 // dispatcher index (hardware plans)
	replyBackend int32
	deliverWire  sim.Duration
	notifyWire   sim.Duration
	// startBusy is the busy span of a folded start whose busy record waits
	// in Machine.starts (deliver); a core has at most one.
	startBusy sim.Duration
	// busyEnd ends the last recorded busy span, which may pass the stop.
	busyEnd sim.Time
	// cq is the private completion queue: dispatched messages awaiting
	// processing.
	cq fifo.Queue[*request]
}

// Machine is one instantiated simulation of the server. Create it with new
// state per run; it is not reusable.
type Machine struct {
	p    Params
	plan execPlan // the resolved dispatch plan driving every dispatch path
	wl   workload.Profile
	cfg  Config
	eng  *sim.Engine

	arrRNG, srcRNG, classRNG, svcRNG, rssRNG *rng.Source

	cores       []*core
	backends    []*sim.Server
	dispatchers []*ni.Dispatcher
	dispServer  []*sim.Server
	notices     []notices      // per dispatcher: its deferred completion notices
	toDisp      []sim.Duration // backend b → dispatcher g wire at [b*groups+g]
	// starts holds the busy records of folded starts (deliver), each under
	// the key of the delivered event it replaced, until settleStarts
	// applies them.
	starts sim.Deferred[*core]

	recvBuf  *sonuma.ReceiveBuffer
	replyBuf *sonuma.SendBuffer

	// Inflight tracking: every request allocated, indexed by its ref (the
	// ref travels to the dispatcher and back in ni.Msg.Tag), plus a plain
	// counter covering both admitted and flow-control-parked requests: the
	// depth-at-arrival signal arrive events carry.
	reqs          []*request
	inflightCount int
	pool          []*request // recycled request objects

	// Free per-pair slots, one FIFO ring per source node in one flat array:
	// source n's ring is freeSlots[n*S, (n+1)*S), its oldest entry at
	// freeHead[n], freeLen[n] entries long.
	freeSlots []uint16
	freeHead  []uint16
	freeLen   []int32

	// Arrivals blocked on slot flow control, per source node. Like
	// replyWaiters, nil until the machine's first park, and each source's
	// queue nil until that source's first park; most nodes never park.
	pendingBySrc []*waiters

	// Deferred credits: replenishes, due NetRTT/2 after their completions,
	// and reply credits, due a round trip after their backend's horizon.
	replenishes  sim.Deferred[credit]
	replyCredits sim.Deferred[credit]

	// Software single-queue state.
	swQueue    fifo.Queue[*request]
	swMaxDepth int
	idleCores  fifo.Queue[int]
	lock       *sim.Server

	replyWaiters []*waiters // indexed by requester node; see pendingBySrc

	arr    arrival.Process
	nextID uint64

	// Batched RNG draws (see internal/rng batch contract: each stream is
	// private to its consumer and values are handed out in draw order, so
	// batching is byte-identical to per-call draws).
	arrBatch   *arrival.Batch
	srcBatch   *rng.IntBatch
	classBatch *rng.FloatBatch
	rssBatch   *rng.IntBatch
	classTotal float64
	reqPkts    int // packets per request message (fixed per workload)
	replyPkts  int // packets per reply message

	// Hot-path event callbacks, bound once at build so steady-state
	// scheduling allocates no closures (sim.Engine.ScheduleArg).
	fnSelfArrival func(any)
	fnArrived     func(any)
	fnRouteWire   func(any)
	fnRouteSubmit func(any)
	fnDelivered   func(any)
	fnFinish      func(any)
	fnWakeArrival func(any)
	fnWakeStall   func(any)
	fnNotifyWire  func(any)
	fnNotifyDone  func(any)
	fnSWEnqueue   func(any)
	fnLockDone    func(any)

	// external marks a machine embedded in a larger simulation
	// (internal/cluster): arrivals are injected by the owner, and the
	// machine neither measures nor stops the shared engine itself.
	external bool

	// slow is the resolved service-slowdown factor (1 = healthy).
	slow float64

	// Measurement: all samples, the epoch timeline, and the measurement
	// window live in the recorder; the machine keeps only run control.
	rec             *metrics.Recorder
	completed       int
	target          int
	blockedArrivals uint64
	replyStalls     uint64
	timedOut        bool
}

// Config describes one machine run.
type Config struct {
	Params   Params
	Workload workload.Profile
	RateMRPS float64 // offered arrival rate, millions of requests per second
	// Arrival, when non-nil, selects the traffic model driving the open
	// loop. Nil means Poisson at RateMRPS — the historical behavior,
	// byte-for-byte identical result streams for existing seeds. When set
	// alongside a positive RateMRPS, the process is re-rated to RateMRPS
	// (its shape — burst ratio, gap CV — is preserved); with RateMRPS
	// zero it is used exactly as constructed.
	Arrival arrival.Process
	Warmup  int // completions discarded before measuring
	Measure int // completions measured
	Seed    uint64
	// MaxSimTime aborts the run after this much virtual time (0 = none),
	// a safety valve for overload points that crawl toward completion.
	MaxSimTime sim.Duration
	// Trace, when non-nil, receives every request's lifecycle events
	// (arrive/dispatch/start/complete). It runs inline on the simulation
	// path; compose tail capture and sampling with the trace package's
	// TailSampler, Sample and Tee. Passive: it never perturbs the run's RNG
	// streams or event order.
	Trace trace.Recorder
	// Fault degrades the server: a handler service-time slowdown (a
	// thermally throttled or misconfigured server) and/or stall windows in
	// which a core beginning work stalls until the window ends (GC pause,
	// power event). The zero value is a healthy server, byte-for-byte
	// reproducing historical result streams.
	Fault Fault
	// Epoch sets the Result timeline's initial epoch length; 0 uses the
	// metrics default (1 µs, doubling as the run outgrows it). MaxEpochs
	// bounds the timeline's slice count (0 = metrics default, 64);
	// experiments that compare timelines across runs pin both so a long
	// run cannot silently double its granularity.
	Epoch     sim.Duration
	MaxEpochs int
}

// CapacityMRPS estimates the machine's saturation throughput for a workload:
// cores / (mean handler time + fixed per-request core overhead).
func CapacityMRPS(p Params, wl workload.Profile) float64 {
	return float64(p.Cores) / (wl.MeanService() + CoreOverheadNanos) * 1000
}

// MaxLoadFactor bounds an offered rate at this multiple of the capacity
// estimate. Past capacity the open loop only piles up arrivals, so a rate
// far past it buys no information and a run that may never finish; the
// figures and examples offer at most about 1×.
const MaxLoadFactor = 10

// CheckRate rejects an offered rate that is not finite, lies past
// MaxLoadFactor × capacityMRPS, or is so slow that the run's completions,
// one mean arrival gap apart, overrun the picosecond clock, naming the layer
// (machine, cluster) that rejects it. Past the clock a gap no longer
// converts to a Duration and every arrival lands at time zero. A config
// without a positive capacity is left to the checks of its parameters.
func CheckRate(layer string, rateMRPS, capacityMRPS float64, completions int) error {
	// One arrival per 1/rate µs: the run's mean span in picoseconds.
	span := float64(completions) * float64(sim.Microsecond) / rateMRPS
	switch {
	case math.IsInf(rateMRPS, 0):
		return fmt.Errorf("%s: rate %v MRPS must be finite", layer, rateMRPS)
	case capacityMRPS > 0 && rateMRPS > MaxLoadFactor*capacityMRPS:
		return fmt.Errorf("%s: rate %v MRPS is past %d× the capacity estimate of %.4g MRPS",
			layer, rateMRPS, MaxLoadFactor, capacityMRPS)
	case rateMRPS > 0 && span >= math.MaxInt64:
		return fmt.Errorf("%s: rate %v MRPS spreads %d arrivals over %.3g s, past the clock's %.3g s",
			layer, rateMRPS, completions, span/float64(sim.Second), float64(math.MaxInt64)/float64(sim.Second))
	}
	return nil
}

// Validate reports whether Run would accept the config; the CLIs call it
// before their first run.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if err := CheckRate("machine", c.RateMRPS, CapacityMRPS(c.Params, c.Workload), c.Warmup+c.Measure); err != nil {
		return err
	}
	switch {
	case !(c.RateMRPS > 0) && c.Arrival == nil:
		return fmt.Errorf("machine: rate %v MRPS must be positive", c.RateMRPS)
	case c.Measure <= 0:
		return fmt.Errorf("machine: Measure must be positive")
	case c.Warmup < 0:
		return fmt.Errorf("machine: negative warmup")
	case c.Epoch < 0:
		return fmt.Errorf("machine: negative epoch length")
	case c.MaxEpochs < 0:
		return fmt.Errorf("machine: negative epoch bound")
	default:
		return c.Fault.validate()
	}
}

// New wires up a machine for the given configuration.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return build(cfg, sim.New(), false)
}

// NewShared wires a machine onto an existing engine, for multi-node
// simulations (internal/cluster) that run several servers under one virtual
// clock. A shared machine generates no arrivals of its own — drive it with
// InjectArg — and never stops the engine; cfg.RateMRPS and MaxSimTime are
// ignored. cfg.Warmup+Measure is only a hint: the number of completions the
// owner expects this node to record, which presizes its run log (zero
// leaves the log growing on demand).
func NewShared(cfg Config, eng *sim.Engine) (*Machine, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Workload.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Fault.validate(); err != nil {
		return nil, err
	}
	return build(cfg, eng, true)
}

// build assembles the machine's components on the given engine.
func build(cfg Config, eng *sim.Engine, external bool) (*Machine, error) {
	p := cfg.Params
	plan, err := resolvePlan(p)
	if err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	m := &Machine{
		p:        p,
		plan:     plan,
		wl:       cfg.Workload,
		cfg:      cfg,
		eng:      eng,
		external: external,
		arrRNG:   root.Split(),
		srcRNG:   root.Split(),
		classRNG: root.Split(),
		svcRNG:   root.Split(),
		rssRNG:   root.Split(),
		target:   cfg.Warmup + cfg.Measure,
		slow:     1,
	}
	if cfg.Fault.Slowdown > 0 {
		m.slow = cfg.Fault.Slowdown
	}
	classes := make([]string, len(cfg.Workload.Classes))
	for i, cl := range cfg.Workload.Classes {
		classes[i] = cl.Name
	}
	m.rec = metrics.NewRecorder(metrics.Config{
		Classes:    classes,
		Servers:    p.Cores,
		EpochNanos: cfg.Epoch.Nanos(),
		MaxEpochs:  cfg.MaxEpochs,
		Expect:     cfg.Warmup + cfg.Measure,
	})
	m.arr = arrival.Resolve(cfg.Arrival, cfg.RateMRPS)

	// Batched draws and precomputed per-message constants for the hot path.
	m.srcBatch = rng.NewIntBatch(m.srcRNG, p.Domain.Nodes, 0)
	m.classBatch = rng.NewFloatBatch(m.classRNG, 0)
	m.classTotal = cfg.Workload.TotalWeight()
	m.reqPkts = p.Domain.Packets(cfg.Workload.RequestBytes)
	m.replyPkts = p.Domain.Packets(cfg.Workload.ReplyBytes)
	if !plan.software && plan.rss && !p.RSSByFlow {
		m.rssBatch = rng.NewIntBatch(m.rssRNG, plan.groups, 0)
	}

	m.bindCallbacks()

	// Pre-size the bounded queues to their bounds so they never grow: a
	// core's CQ holds at most threshold (and never more than N×S) requests.
	// An unlimited threshold bounds nothing (a partitioned core's CQ holds
	// what RSS steers to it), so that CQ grows by doubling to its peak, like
	// the dispatcher's shared CQ, instead of reserving N×S slots per core.
	cqDepth := 0
	if m.plan.threshold != ni.Unlimited {
		cqDepth = min(m.plan.threshold, p.Domain.TotalSlots())
	}
	for i := 0; i < p.Cores; i++ {
		c := &core{id: i, replyBackend: int32(i * p.Backends / p.Cores)}
		c.cq.Grow(cqDepth)
		m.cores = append(m.cores, c)
	}
	m.idleCores.Grow(p.Cores)
	for b := 0; b < p.Backends; b++ {
		m.backends = append(m.backends, sim.NewServer(m.eng))
	}
	m.replenishes.Grow(replenishPresize)
	m.replyCredits.Grow(replyCreditPresize)

	if m.recvBuf, err = sonuma.NewReceiveBuffer(p.Domain); err != nil {
		return nil, err
	}
	if m.replyBuf, err = sonuma.NewSendBuffer(p.Domain); err != nil {
		return nil, err
	}
	// Every ring starts full, in slot order. Domain.Validate caps Slots at
	// 1<<16, so slots and head positions fit uint16.
	m.freeSlots = make([]uint16, p.Domain.TotalSlots())
	m.freeHead = make([]uint16, p.Domain.Nodes)
	m.freeLen = make([]int32, p.Domain.Nodes)
	for n := range m.freeLen {
		ring := m.freeSlots[n*p.Domain.Slots : (n+1)*p.Domain.Slots]
		for s := range ring {
			ring[s] = uint16(s)
		}
		m.freeLen[n] = int32(p.Domain.Slots)
	}

	if err := m.wireDispatchers(); err != nil {
		return nil, err
	}
	m.lock = sim.NewServer(m.eng)
	if m.plan.software {
		// Every core starts out idle, spinning on the shared queue.
		for _, c := range m.cores {
			m.idleCores.Push(c.id)
		}
	}
	return m, nil
}

// bindCallbacks binds the hot path's event callbacks once, so every
// steady-state Schedule/Submit uses the arg-carrying form and allocates
// neither a closure nor an interface box (the args are pointers).
func (m *Machine) bindCallbacks() {
	m.fnSelfArrival = m.selfArrival
	m.fnArrived = m.arrived
	m.fnRouteWire = m.routeWire
	m.fnRouteSubmit = m.routeSubmit
	m.fnDelivered = m.delivered
	m.fnFinish = m.finishReq
	m.fnWakeArrival = m.wakeArrival
	m.fnWakeStall = m.wakeStall
	m.fnNotifyWire = m.notifyWire
	m.fnNotifyDone = m.notifyDone
	m.fnSWEnqueue = m.swEnqueueArg
	m.fnLockDone = m.lockDone
}

// getRequest pops a recycled request from the pool, or allocates one (and
// gives it the next ref) while the pool is still warming up. The caller
// overwrites every live field; a new request holds no slot.
func (m *Machine) getRequest() *request {
	if n := len(m.pool); n > 0 {
		req := m.pool[n-1]
		m.pool = m.pool[:n-1]
		return req
	}
	req := &request{ref: int32(len(m.reqs)), slot: -1}
	m.reqs = append(m.reqs, req)
	return req
}

// park appends req to the source's queue in *ws, allocating the per-source
// array on the machine's first park and the queue on the source's first.
// When the source starts waiting, each of its credits in the list without a
// wake event yet gets one at its reserved key, firing wake.
func (m *Machine) park(ws *[]*waiters, src sonuma.NodeID, req *request, list *sim.Deferred[credit], wake func(any)) {
	if *ws == nil {
		*ws = make([]*waiters, m.p.Domain.Nodes)
	}
	w := (*ws)[src]
	if w == nil {
		w = new(waiters)
		(*ws)[src] = w
	}
	w.Push(req)
	if w.Len() > 1 {
		return // every credit of a waiting source already has its wake
	}
	// Key order is not seq order, so every credit is tested against the
	// mark as it was before the scan.
	woke := w.woke
	for i := range list.Len() {
		if k := list.At(i); k.Val.src == int32(src) && k.Seq >= woke {
			m.eng.ScheduleArgAtSeq(k.At, k.Seq, wake, w)
			w.woke = max(w.woke, k.Seq+1)
		}
	}
}

// deferCredit queues a credit returning slot to src at the key an event
// scheduled now at time at would get. If src has requests waiting in ws,
// the credit is also scheduled as a wake event at that key.
func (m *Machine) deferCredit(list *sim.Deferred[credit], ws []*waiters, at sim.Time, src sonuma.NodeID, slot int, wake func(any)) {
	seq := m.eng.Reserve()
	list.Insert(at, seq, credit{src: int32(src), slot: int32(slot)})
	if ws != nil {
		if w := ws[src]; w != nil && w.Len() > 0 {
			m.eng.ScheduleArgAtSeq(at, seq, wake, w)
			w.woke = seq + 1
		}
	}
}

// settleFree applies every replenish whose key has passed, in key order,
// so the free-slot rings read as they would had every replenish been an
// event. Replenishes only touch the free-slot rings and reply credits only
// the send buffer, so each reader settles only its own list: the
// replenishes before an arrival claims a slot, the reply credits before a
// reply does (settleReplies).
func (m *Machine) settleFree() {
	for k, ok := m.replenishes.PopDue(m.eng); ok; k, ok = m.replenishes.PopDue(m.eng) {
		n, size := int(k.Val.src), m.p.Domain.Slots
		t := int(m.freeHead[n]) + int(m.freeLen[n])
		if t >= size {
			t -= size
		}
		m.freeSlots[n*size+t] = uint16(k.Val.slot)
		m.freeLen[n]++
	}
}

// settleReplies applies every reply credit whose key has passed, in order.
func (m *Machine) settleReplies() {
	for k, ok := m.replyCredits.PopDue(m.eng); ok; k, ok = m.replyCredits.PopDue(m.eng) {
		if err := m.replyBuf.Release(sonuma.NodeID(k.Val.src), int(k.Val.slot)); err != nil {
			panic(fmt.Sprintf("machine: reply credit return: %v", err))
		}
	}
}

// policySeed derives the deterministic stream seed for a dispatcher's policy
// instance. It is a pure function of the run seed and the group index —
// independent of the root RNG's split sequence, so adding randomized
// policies never perturbs the streams existing components draw from.
func policySeed(runSeed uint64, group int) uint64 {
	return (runSeed+1)*0x9e3779b97f4a7c15 ^ (uint64(group)+1)*0x94d049bb133111eb
}

// Dispatchers builds the NI dispatchers p's plan describes, one per group:
// the cores split contiguously into equal groups, each dispatcher running
// its own policy instance under the plan's outstanding threshold. A plan
// that names no policy gets ni.LeastOutstandingRR; a named one gets a fresh
// instance per group, seeded by policySeed from seed and the group index.
// The software plan has no dispatcher (nil). The machine and the live
// runtime both build their dispatchers here.
func Dispatchers(p Params, seed uint64) ([]*ni.Dispatcher, error) {
	plan, err := resolvePlan(p)
	if err != nil {
		return nil, err
	}
	return plan.dispatchers(p, seed)
}

// dispatchers builds the resolved plan's dispatchers, as Dispatchers says.
func (plan execPlan) dispatchers(p Params, seed uint64) ([]*ni.Dispatcher, error) {
	if plan.software {
		return nil, nil
	}
	ds := make([]*ni.Dispatcher, plan.groups)
	per := p.Cores / plan.groups
	for g := range ds {
		cores := make([]int, per)
		for i := range cores {
			cores[i] = g*per + i
		}
		var policy ni.Policy
		if plan.policy.New != nil {
			// Policies carry state (rotation counters, RNG streams) that
			// must not be entangled across groups.
			policy = plan.policy.New(ni.Group{
				Index:     g,
				Cores:     cores,
				Row:       p.groupTile(g, plan.groups).Y,
				MeshWidth: mesh.Width,
				Seed:      policySeed(seed, g),
			})
		} else {
			// Default to occupancy-feedback dispatch: idle cores first,
			// rotating among equals. With the outstanding threshold at 2
			// a blind arbiter would queue requests behind long-running
			// RPCs (Masstree scans) while other cores sit idle.
			policy = &ni.LeastOutstandingRR{}
		}
		var err error
		if ds[g], err = ni.NewDispatcher(cores, plan.threshold, policy); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// backendTile is NI backend b's tile: backends sit on the left mesh edge,
// one per group of rows.
func (p Params) backendTile(b int) noc.Coord {
	return noc.Coord{X: 0, Y: b * mesh.Height / p.Backends}
}

// groupTile is the tile of dispatcher g of groups: the NI backend serving
// its mesh slice.
func (p Params) groupTile(g, groups int) noc.Coord {
	return p.backendTile(g * p.Backends / groups)
}

// wireDispatchers builds the plan's dispatchers and fixes every mesh wire a
// completion token crosses, once: backend → dispatcher, dispatcher → core
// and core → dispatcher.
func (m *Machine) wireDispatchers() error {
	p := m.p
	ds, err := m.plan.dispatchers(p, m.cfg.Seed)
	if err != nil || len(ds) == 0 {
		return err
	}
	m.dispatchers = ds
	groups := len(ds)
	m.toDisp = make([]sim.Duration, p.Backends*groups)
	m.notices = make([]notices, groups)
	m.starts.Grow(p.Cores)
	per := p.Cores / groups
	noticeCap := per
	if m.plan.threshold == ni.Unlimited {
		noticeCap = max(per, unlimitedNotices)
	}
	for g := range ds {
		tile := p.groupTile(g, groups)
		m.dispServer = append(m.dispServer, sim.NewServer(m.eng))
		m.notices[g].Grow(noticeCap)
		for b := range p.Backends {
			m.toDisp[b*groups+g] = mesh.Latency(p.backendTile(b), tile, ctrlBytes) + p.DispatchExtra
		}
		for id := g * per; id < (g+1)*per; id++ {
			c, ct := m.cores[id], mesh.TileCoord(id)
			c.disp = int32(g)
			c.deliverWire = mesh.Latency(tile, ct, ctrlBytes) + cqeDeliver
			c.notifyWire = wqeRead + mesh.Latency(ct, tile, ctrlBytes) + p.DispatchExtra
		}
	}
	return nil
}

// record emits a lifecycle event at time at to cfg.Trace: now, or for a
// folded stage the time its event would have run. depth carries the queue-depth
// signal for arrive events (-1 elsewhere). With tracing off it returns
// without constructing the event — zero allocations, zero side effects.
func (m *Machine) record(at sim.Time, id uint64, phase trace.Phase, core, depth int) {
	if m.cfg.Trace == nil {
		return
	}
	m.cfg.Trace.Record(trace.Event{ReqID: id, Phase: phase, At: at, Core: core, Depth: depth})
}

// ctrlBytes is the size of control messages (completion tokens, CQEs,
// replenishes) crossing the mesh.
const ctrlBytes = 16

// Run executes the simulation until the target completion count (or
// MaxSimTime) is reached and returns the measured Result.
func (m *Machine) Run() (Result, error) {
	if m.external {
		return Result{}, fmt.Errorf("machine: Run on a shared machine; the owning simulation drives the engine")
	}
	if m.cfg.MaxSimTime > 0 {
		m.eng.Schedule(m.cfg.MaxSimTime, func() {
			m.timedOut = true
			m.eng.Stop()
		})
	}
	m.arrBatch = arrival.NewBatch(m.arr, m.arrRNG, 0)
	m.scheduleArrival()
	m.eng.Run()
	return m.result(), nil
}

func (m *Machine) scheduleArrival() {
	m.eng.ScheduleArg(m.arrBatch.Next(), m.fnSelfArrival, nil)
}

// selfArrival is the open-loop generator's event: inject one RPC, schedule
// the next gap.
func (m *Machine) selfArrival(any) {
	m.inject(nil, nil)
	m.scheduleArrival()
}

// InjectArg admits one externally generated RPC as if it had just arrived
// from the cluster network. fn, if non-nil, fires at the RPC's completion as
// fn(arg, class, measured), with the RPC's class index and whether that
// class is latency-measured. This is the entry point multi-node simulations
// drive in place of the machine's own Poisson process. fn should be a
// long-lived function value bound once by the owning simulation; arg carries
// the per-request state (a pointer boxes into the interface without
// allocating).
func (m *Machine) InjectArg(fn func(arg any, class int, measured bool), arg any) {
	m.inject(fn, arg)
}

func (m *Machine) inject(onDoneFn func(arg any, class int, measured bool), onDoneArg any) {
	src := sonuma.NodeID(m.srcBatch.Next())
	class := m.wl.PickClassAt(m.classBatch.Next() * m.classTotal)
	req := m.getRequest()
	req.id = m.nextID
	req.src = src
	req.class = class
	req.svcNanos = m.wl.Classes[class].Service.Sample(m.svcRNG)
	req.onDoneFn = onDoneFn
	req.onDoneArg = onDoneArg
	if m.slow != 1 {
		// Degraded-node injection: the handler runs slower, the sampled
		// distribution's shape intact. Guarded so healthy machines keep
		// bit-identical service streams.
		req.svcNanos *= m.slow
	}
	m.nextID++
	m.inflightCount++
	m.settleFree()
	if m.freeLen[src] == 0 {
		m.blockedArrivals++
		m.park(&m.pendingBySrc, src, req, &m.replenishes, m.fnWakeArrival)
		return
	}
	m.admit(req)
}

// DispatchLabel names the resolved dispatch plan driving this machine
// ("rpcvalet-1x16", "jbsq2", "plan-2x8/random2", ...).
func (m *Machine) DispatchLabel() string { return m.plan.label }

// MeanCoreUtilization reports the average busy fraction across the serving
// cores, measured against the engine's current clock.
func (m *Machine) MeanCoreUtilization() float64 {
	m.settleStarts()
	now := m.eng.Now()
	if now == 0 {
		return 0
	}
	var busy sim.Duration
	for _, c := range m.cores {
		busy += m.busy(c, now)
	}
	return float64(busy) / float64(now) / float64(len(m.cores))
}

// busy reports core c's busy time up to now: the recorder records a span
// whole when it starts, so the part of the last one past now is cut.
func (m *Machine) busy(c *core, now sim.Time) sim.Duration {
	return m.rec.BusyTotal(c.id) - max(0, c.busyEnd.Sub(now))
}

// Recorder returns the machine's metrics recorder as of the engine's
// current clock, every due folded start applied: the per-node view an
// owning simulation (internal/cluster) keeps for its Result once the run
// has stopped.
func (m *Machine) Recorder() *metrics.Recorder {
	m.settleStarts()
	return m.rec
}

// admit claims a receive slot and runs the message through an NI backend.
// Slots are consumed FIFO, matching the ring the sender's send buffer keeps
// (§4.2's per-destination head/tail pointers); this also spreads messages
// evenly over the address-interleaved NI backends.
func (m *Machine) admit(req *request) {
	n, size := int(req.src), m.p.Domain.Slots
	if m.freeLen[n] == 0 {
		panic(fmt.Sprintf("machine: admit from node %d with no free slot", req.src))
	}
	h := int(m.freeHead[n])
	req.pairSlot = int(m.freeSlots[n*size+h])
	h++
	if h == size {
		h = 0
	}
	m.freeHead[n] = uint16(h)
	m.freeLen[n]--
	req.slot = m.p.Domain.RecvSlotIndex(req.src, req.pairSlot)

	b := req.slot % len(m.backends)
	switch m.p.Domain.Classify(m.wl.RequestBytes) {
	case sonuma.DeliveryInline:
		// The backend writes the packets, then the memory write lands.
		// Nothing reads the slot's receive counter before arrived fires,
		// so arrived counts the packets and the backend's completion needs
		// no event of its own (DESIGN.md §9, folding).
		req.backend = b
		end := m.backends[b].Occupy(sim.Duration(m.reqPkts) * packetProc)
		m.eng.ScheduleArgAt(end.Add(memWrite), m.fnArrived, req)
	case sonuma.DeliveryRendezvous:
		// Descriptor lands first — that is when the message is
		// "received" and the latency clock starts. The NI then pulls
		// the payload with a one-sided read costing a network round
		// trip plus the payload's backend occupancy (§4.2). This path
		// keeps its closures: large-payload workloads are not the
		// allocation-sensitive steady state, and every event here fires
		// before completion, so pooling stays safe.
		m.backends[b].Submit(packetProc, func() {
			// The descriptor is a single-packet message occupying the
			// receive slot; the pulled payload lands in an app buffer.
			if done, err := m.recvBuf.OnPacket(req.slot, req.src, m.wl.RequestBytes, 1); err != nil || !done {
				panic(fmt.Sprintf("machine: rendezvous descriptor: done=%v err=%v", done, err))
			}
			req.arrive = m.eng.Now()
			m.record(req.arrive, req.id, trace.PhaseArrive, -1, m.inflightCount-1)
			m.eng.Schedule(m.p.NetRTT, func() {
				pkts := m.p.Domain.RendezvousReadPackets(m.wl.RequestBytes)
				m.backends[b].Submit(sim.Duration(pkts)*packetProc, func() {
					m.eng.Schedule(memWrite, func() {
						m.routeCompletion(req, b)
					})
				})
			})
		})
	}
}

// arrived runs once the NI backend has written the request's packets and
// the memory write has landed: mark the message received, stamp the
// measurement start and route the completion token.
func (m *Machine) arrived(arg any) {
	req := arg.(*request)
	pkts := m.reqPkts
	for i := 0; i < pkts; i++ {
		done, err := m.recvBuf.OnPacket(req.slot, req.src, m.wl.RequestBytes, pkts)
		if err != nil {
			panic(fmt.Sprintf("machine: receive protocol violation: %v", err))
		}
		if done != (i == pkts-1) {
			panic("machine: receive counter out of sync")
		}
	}
	req.arrive = m.eng.Now()
	m.record(req.arrive, req.id, trace.PhaseArrive, -1, m.inflightCount-1)
	m.routeCompletion(req, req.backend)
}

// routeCompletion forwards a message-completion token from backend b to the
// dispatch mechanism the plan selects.
func (m *Machine) routeCompletion(req *request, b int) {
	if m.plan.software {
		// The NI appends directly to the shared in-memory queue.
		m.eng.ScheduleArg(swEnqueueWire, m.fnSWEnqueue, req)
		return
	}
	di := m.dispatcherFor(req, b)
	req.disp = di
	m.eng.ScheduleArg(m.toDisp[b*m.plan.groups+di], m.fnRouteWire, req)
}

// routeWire runs when the completion token reaches its dispatcher tile. The
// notices that arrived first take the dispatch stage ahead of it, and every
// notice arriving before the token leaves the stage becomes an event: the
// token may find the CQ non-empty, and then those notices may dispatch.
//
// An uncontended token, one that finds the stage idle (Server.Idle: its
// last job ended before now, so no stage completion is pending) and the CQ
// empty, is enqueued here as of its stage end, without a routeSubmit
// event: nothing else reaches the dispatcher before then (DESIGN.md §9,
// folding). A dispatcher's first token takes the event path, so a run
// stopped inside its stage cycle still reports no queue depth.
func (m *Machine) routeWire(arg any) {
	req := arg.(*request)
	m.settleNotices(req.disp)
	q := &m.notices[req.disp]
	stage, disp := m.dispServer[req.disp], m.dispatchers[req.disp]
	if !stage.Idle() || disp.QueueDepth() > 0 || disp.MaxQueueDepth() == 0 {
		q.routeEnd = stage.SubmitArg(dispatchCycle, m.fnRouteSubmit, req)
		m.promote(q, q.routeEnd)
		return
	}
	q.routeEnd = stage.Occupy(dispatchCycle)
	m.promote(q, q.routeEnd)
	m.enqueue(req, q.routeEnd)
}

// routeSubmit runs when the dispatch stage has cycled a contended token.
func (m *Machine) routeSubmit(arg any) { m.enqueue(arg.(*request), m.eng.Now()) }

// enqueue puts a token leaving the dispatch stage at time at on its shared
// CQ and delivers any dispatch it triggers. A token left waiting makes
// every deferred notice an event, since each may now dispatch it.
func (m *Machine) enqueue(req *request, at sim.Time) {
	msg := ni.Msg{Slot: req.slot, Src: req.src, Size: m.wl.RequestBytes, Tag: uint64(req.ref)}
	disp := m.dispatchers[req.disp]
	if d, ok := disp.Enqueue(msg); ok {
		m.deliver(d, at)
	}
	if disp.QueueDepth() > 0 {
		m.promote(&m.notices[req.disp], math.MaxInt64)
	}
}

// dispatcherFor picks the dispatcher index for a completion token, per the
// plan's routing: RSS statically assigns the message (flow hash or uniform
// draw); local routing forwards to the dispatcher co-located with the
// receiving backend's mesh slice.
func (m *Machine) dispatcherFor(req *request, b int) int {
	if m.plan.rss {
		if m.p.RSSByFlow {
			return ni.RSSQueue(uint64(req.src), m.plan.groups)
		}
		return m.rssBatch.Next()
	}
	return b * m.plan.groups / m.p.Backends
}

// deliver carries a dispatch decision made at time at to the chosen core's
// private CQ. The message's Tag is the request's ref, and that request must
// still hold the message's receive slot (unique among admitted requests —
// §4.2's N×S flow control never reuses a slot before its replenish), so any
// slot-identity violation fails loudly.
//
// A core with nothing else outstanding is idle with an empty CQ, and
// nothing can reach it before this CQE lands, so it begins as of the
// landing here, without a delivered event (DESIGN.md §9, folding). Its busy
// record cannot go to the recorder ahead of time; it waits in m.starts
// under the key the delivered event would have had.
func (m *Machine) deliver(d ni.Dispatch, at sim.Time) {
	if d.Msg.Tag >= uint64(len(m.reqs)) || m.reqs[d.Msg.Tag].slot != d.Msg.Slot {
		panic(fmt.Sprintf("machine: dispatch of unknown request %d (slot %d)", d.Msg.Tag, d.Msg.Slot))
	}
	req := m.reqs[d.Msg.Tag]
	c := m.cores[d.Core]
	m.record(at, req.id, trace.PhaseDispatch, d.Core, -1)
	req.core = c
	at = at.Add(c.deliverWire)
	if m.dispatchers[c.disp].Outstanding(c.id) > 1 {
		m.eng.ScheduleArgAt(at, m.fnDelivered, req)
		return
	}
	seq := m.eng.Reserve()
	c.startBusy = m.start(c, req, at, pollDetect)
	m.starts.Insert(at, seq, c)
}

// delivered lands a dispatched message in its core's private CQ; an idle
// core notices after a fraction of a poll iteration.
func (m *Machine) delivered(arg any) {
	req := arg.(*request)
	c := req.core
	c.cq.Push(req)
	if !c.busy {
		m.begin(c, pollDetect)
	}
}

// begin starts processing the head of the core's private CQ now.
func (m *Machine) begin(c *core, pollDelay sim.Duration) {
	req, ok := c.cq.Pop()
	if !ok {
		panic(fmt.Sprintf("machine: core %d began with empty CQ", c.id))
	}
	now := m.eng.Now()
	occupied := m.start(c, req, now, pollDelay)
	m.settleStarts()
	m.rec.Busy(now, c.id, occupied)
	c.busyEnd = now.Add(occupied)
}

// start begins req on core c at time at and schedules its finish, returning
// the span the core is busy. pollDelay is the CQ-detection cost: nonzero
// when the core was idle-polling, zero when it rolls directly from the
// previous request (the threshold-2 case that eliminates the execution
// bubble, §4.3). Work beginning inside a configured pause window stalls
// (still occupying the core) until the window ends.
func (m *Machine) start(c *core, req *request, at sim.Time, pollDelay sim.Duration) sim.Duration {
	c.busy = true
	stall := pauseStall(m.cfg.Fault.Pauses, at)
	req.core = c
	req.svcStart = at.Add(pollDelay + stall)
	m.record(at, req.id, trace.PhaseStart, c.id, -1)
	occupied := pollDelay + stall + coreOverhead + sim.FromNanos(req.svcNanos)
	m.eng.ScheduleArgAt(at.Add(occupied), m.fnFinish, req)
	return occupied
}

// settleStarts applies the busy record of every folded start whose
// delivered key has passed, in key order, before the recorder is next
// written or read: it then holds what it would had each delivered been an
// event, and never sees a time go backwards.
func (m *Machine) settleStarts() {
	for k, ok := m.starts.PopDue(m.eng); ok; k, ok = m.starts.PopDue(m.eng) {
		m.rec.Busy(k.At, k.Val.id, k.Val.startBusy)
		k.Val.busyEnd = k.At.Add(k.Val.startBusy)
	}
}

// finishReq unwraps the finish event's argument.
func (m *Machine) finishReq(arg any) { m.finish(arg.(*request)) }

// finish runs when the core has executed the handler and posted the reply
// send and replenish. The reply consumes a send slot toward the requester;
// if none is free the core stalls (flow control) until a credit returns.
func (m *Machine) finish(req *request) {
	m.settleReplies()
	slot, ok := m.replyBuf.Acquire(req.src, m.wl.ReplyBytes)
	if !ok {
		m.replyStalls++
		m.park(&m.replyWaiters, req.src, req, &m.replyCredits, m.fnWakeStall)
		return
	}
	m.complete(req, slot)
}

// complete finalizes a request: measurement, reply transmission, replenish
// propagation, and moving the core onto its next unit of work. Its two
// credits, the reply's send slot and the replenished receive slot, are
// deferred (deferCredit), and the request returns to the pool at once.
func (m *Machine) complete(req *request, replySlot int) {
	c := req.core
	now := m.eng.Now()
	m.record(now, req.id, trace.PhaseComplete, c.id, -1)
	m.settleStarts()

	m.completed++
	if req.onDoneFn != nil {
		req.onDoneFn(req.onDoneArg, req.class, m.wl.Classes[req.class].Measured)
	}
	if !m.external && m.completed == m.cfg.Warmup+1 {
		m.rec.OpenWindow(now)
	}
	// The recorder always slices the completion into its epoch timeline
	// (shared machines included — the owning cluster reads the per-node
	// view); the summary collectors only see it while the window is open,
	// the historical gating.
	m.rec.Complete(now, metrics.Completion{
		Class:     req.class,
		Measured:  m.wl.Classes[req.class].Measured,
		LatencyNs: now.Sub(req.arrive).Nanos(),
		WaitNs:    req.svcStart.Sub(req.arrive).Nanos(),
		ServiceNs: now.Sub(req.svcStart).Nanos(),
		Depth:     m.inflightCount - 1, // admitted-but-incomplete, this one excluded
	})
	if !m.external && m.completed >= m.target {
		m.rec.CloseWindow(now)
		m.eng.Stop()
		return
	}

	// Reply transmission through this core's row backend; the remote node
	// consumes it and returns the send-slot credit a round trip after the
	// packets leave the backend.
	end := m.backends[c.replyBackend].Occupy(sim.Duration(m.replyPkts) * packetProc)
	m.deferCredit(&m.replyCredits, m.replyWaiters, end.Add(m.p.NetRTT), req.src, replySlot, m.fnWakeStall)

	// Replenish: free the receive slot now; the sender regains the credit
	// after the replenish message crosses the network.
	if err := m.recvBuf.Free(req.slot); err != nil {
		panic(fmt.Sprintf("machine: replenish: %v", err))
	}
	req.slot = -1
	m.inflightCount--
	m.deferCredit(&m.replenishes, m.pendingBySrc, now.Add(m.p.NetRTT/2), req.src, req.pairSlot, m.fnWakeArrival)

	// Pointer-shaped fields are cleared so a pooled request never pins its
	// old callback or core.
	req.onDoneFn = nil
	req.onDoneArg = nil
	req.core = nil
	m.pool = append(m.pool, req)

	// Tell the dispatcher this core finished one request.
	if !m.plan.software {
		m.notify(c, now)
	}

	// The core rolls onto queued work, or goes idle.
	c.busy = false
	if c.cq.Len() > 0 {
		m.begin(c, 0)
	} else if m.plan.software {
		m.swIdle(c)
	}
}

// wakeStall fires at a reply credit's key while its source has cores
// stalled on reply flow control: the credit settles and the oldest stalled
// core, if one is left, completes on the freed send slot.
func (m *Machine) wakeStall(arg any) {
	m.settleReplies()
	if w, ok := arg.(*waiters).Pop(); ok {
		s, ok := m.replyBuf.Acquire(w.src, m.wl.ReplyBytes)
		if !ok {
			panic("machine: freed reply slot immediately unavailable")
		}
		m.complete(w, s)
	}
}

// wakeArrival fires at a replenish's key while its source has parked
// arrivals: the credit settles and the oldest parked arrival, if one is
// left, is admitted on the freed slot.
func (m *Machine) wakeArrival(arg any) {
	m.settleFree()
	if next, ok := arg.(*waiters).Pop(); ok {
		m.admit(next)
	}
}

// notify sends core c's completion notice, posted at now, toward its
// dispatcher. The notice is deferred (DESIGN.md §9) unless the dispatcher is
// contended: a request waits in its CQ, or the latest route token leaves
// the stage at or after the notice arrives and may find one. A contended
// notice is a notifyWire event at its key, its argument the core, not the
// request, which is recycled by the time it fires.
func (m *Machine) notify(c *core, now sim.Time) {
	at, seq := now.Add(c.notifyWire), m.eng.Reserve()
	q := &m.notices[c.disp]
	if m.dispatchers[c.disp].QueueDepth() > 0 || q.routeEnd >= at {
		m.eng.ScheduleArgAtSeq(at, seq, m.fnNotifyWire, c)
		return
	}
	// Settling it ahead of an equal-time notice instead of behind would
	// change nothing: decrements commute, and OccupyAt at one arrival time
	// reaches one horizon in either order.
	q.Insert(at, seq, c)
}

// promote makes every pending notice of q arriving at or before until a
// notifyWire event at its reserved key.
func (m *Machine) promote(q *notices, until sim.Time) {
	for n, ok := q.PopThrough(until); ok; n, ok = q.PopThrough(until) {
		m.eng.ScheduleArgAtSeq(n.At, n.Seq, m.fnNotifyWire, n.Val)
	}
}

// settleNotices applies every deferred notice of dispatcher g whose key has
// passed, in key order: it takes the dispatch stage as its notifyWire event
// would have, so the stage's busy horizon reads as if it had, and lowers
// its core's outstanding count at once, ahead of its stage end. Only a pick
// reads the counts, while the CQ holds a request, and none can fall in
// between: a route token leaving the stage first is ahead of the notice and
// left before it arrived, or the notice would have been made an event, and
// the CQ stays empty while a notice is deferred. So its decrement never
// dispatches either (DESIGN.md §9).
func (m *Machine) settleNotices(g int) {
	q := &m.notices[g]
	for n, ok := q.PopDue(m.eng); ok; n, ok = q.PopDue(m.eng) {
		m.dispServer[g].OccupyAt(n.At, dispatchCycle)
		if _, ok := m.dispatchers[g].Complete(n.Val.id); ok {
			panic(fmt.Sprintf("machine: deferred notice of core %d dispatched", n.Val.id))
		}
	}
}

// notifyWire runs when a contended notice reaches its dispatcher tile,
// behind the deferred notices that arrived first.
func (m *Machine) notifyWire(arg any) {
	c := arg.(*core)
	m.settleNotices(int(c.disp))
	m.dispServer[c.disp].SubmitArg(dispatchCycle, m.fnNotifyDone, c)
}

// notifyDone records the core's completion at its dispatcher and delivers
// any follow-on dispatch.
func (m *Machine) notifyDone(arg any) {
	c := arg.(*core)
	if d, ok := m.dispatchers[c.disp].Complete(c.id); ok {
		m.deliver(d, m.eng.Now())
	}
}

// --- Software single-queue (MCS) path -----------------------------------

// swEnqueueArg unwraps the NI-append event's argument.
func (m *Machine) swEnqueueArg(arg any) { m.swEnqueue(arg.(*request)) }

// swEnqueue appends a message to the shared in-memory queue and pairs it
// with an idle core if one is waiting.
func (m *Machine) swEnqueue(req *request) {
	m.swQueue.Push(req)
	if d := m.swQueue.Len(); d > m.swMaxDepth {
		m.swMaxDepth = d
	}
	m.swTryPair()
}

// swIdle registers a core as idle and hungry for work.
func (m *Machine) swIdle(c *core) {
	m.idleCores.Push(c.id)
	m.swTryPair()
}

// swTryPair matches queued messages with idle cores. Each dequeue acquires
// the MCS lock: lock acquisitions serialize through a single FIFO resource,
// costing the uncontended latency when the lock is free and a cache-line
// handoff when it is not — the contention that caps the software design's
// throughput (§6.2).
func (m *Machine) swTryPair() {
	for m.swQueue.Len() > 0 && m.idleCores.Len() > 0 {
		req, _ := m.swQueue.Pop()
		coreID, _ := m.idleCores.Pop()
		c := m.cores[coreID]
		c.busy = true // waiting on the lock counts as unavailable
		cost := lockCrit
		if m.lock.Delay() > 0 {
			cost += lockHandoff
		} else {
			cost += lockUncontended
		}
		m.record(m.eng.Now(), req.id, trace.PhaseDispatch, coreID, -1)
		req.core = c
		m.lock.SubmitArg(cost, m.fnLockDone, req)
	}
}

// lockDone runs when a core's dequeue critical section completes: the
// message lands in the core's private CQ and processing begins.
func (m *Machine) lockDone(arg any) {
	req := arg.(*request)
	c := req.core
	c.cq.Push(req)
	c.busy = false
	m.begin(c, 0)
}
