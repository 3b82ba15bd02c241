// Package sim assembles routers, channels and terminals into the
// cycle-accurate network simulations of Becker & Dally (SC '09) §3.2 and
// drives them through warmup, measurement and drain phases to produce the
// latency/throughput curves of Figs. 13 and 14.
//
// Timing model (cycles):
//   - Router pipeline: VC+switch allocation in the cycle a flit is at the
//     buffer front, switch traversal in the next cycle; a flit departing a
//     router at cycle t becomes processable at the downstream router at
//     t + 2 + L for a channel of latency L. With speculation a head flit
//     spends the minimum 2 cycles per router; without it, VC allocation
//     adds one cycle per hop for head flits.
//   - Credits travel back with the same channel latency plus one processing
//     cycle.
//   - Terminal injection/ejection links have latency 1.
package sim

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// Config describes one simulation run.
type Config struct {
	// Topology is the network graph.
	Topology *topology.Topology
	// Routing is the routing function (must match the topology).
	Routing routing.Function
	// Spec is the router VC organization; Spec.ResourceClasses must equal
	// Routing.ResourceClasses() and Spec.MessageClasses must be 2 for the
	// request/reply protocol.
	Spec core.VCSpec
	// BufDepth is the per-VC buffer depth in flits (paper: 8).
	BufDepth int
	// VA selects the VC allocator microarchitecture (Arch, ArbKind,
	// Sparse); Ports/Spec are filled in per router.
	VA core.VCAllocConfig
	// SA selects the switch allocator microarchitecture and speculation
	// scheme; Ports/VCs are filled in per router.
	SA core.SwitchAllocConfig
	// Workload selects the injection workload: arrival process, traffic
	// pattern, their parameters and the offered load Workload.Rate in
	// flits/cycle/terminal (traffic.Workload). The zero value is the paper
	// default (Bernoulli over uniform) at rate 0; applyDefaults normalizes it.
	Workload traffic.Workload
	// RecordArrivals makes every terminal record its injected request
	// transactions; Network.ArrivalTrace returns the merged trace after a
	// run, ready for trace-replay workloads.
	RecordArrivals bool
	// ReadFraction is the probability a transaction is a read. Nil selects
	// the paper's default of 0.5; point at 0 for an all-write workload.
	ReadFraction *float64
	// Seed makes the run deterministic.
	Seed uint64
	// Warmup, Measure and Drain are the phase lengths in cycles. Zero selects
	// the default (2000 / 5000 / 20000) — Drain included, so "do not drain"
	// is spelled Drain: 1. The drain phase ends early once every measured
	// packet is delivered.
	Warmup, Measure, Drain int
	// Trace, when non-nil, receives pipeline and terminal events stamped
	// with the simulation cycle. Tracing does not change the schedule: a
	// leap skips only cycles in which nothing would be recorded, so either
	// schedule records the same events. A traced network runs on the
	// caller's goroutine alone (BorrowHelpers).
	Trace *trace.Tracer
	// Validate enables per-cycle allocation checking in every router, the
	// routers' check of their cached requests against a full rebuild, the
	// wake index's per-cycle check against the dormant/quiescent predicates
	// and the leap gate's check of every skipped span (panics on any
	// invariant violation); used by tests.
	Validate bool
	// Reference selects the reference schedule, and is the only input that
	// decides how a network is stepped: every router and terminal is stepped
	// every cycle, every router rebuilds all of its VA/SA requests from
	// scratch each cycle (router.Config.DenseRequests), the arrival
	// processes are ticked one cycle at a time and the clock never leaps.
	// The default schedule visits only what the wake index names (wake.go),
	// rebuilds only the requests that changed, presamples arrivals and
	// jumps the clock over provably idle stretches (leap.go). Results and
	// trace events are bit-identical either way; the reference is kept as
	// what the golden tests compare the default against, and Validate is
	// what localises a divergence to one of the default's fast paths.
	Reference bool
}

func (c *Config) applyDefaults() {
	if c.BufDepth == 0 {
		c.BufDepth = 8
	}
	if c.ReadFraction == nil {
		rf := 0.5
		c.ReadFraction = &rf
	}
	c.Workload = c.Workload.Normalized()
	if err := c.Workload.Validate(c.Topology.Terminals()); err != nil {
		panic(err)
	}
	if c.Warmup == 0 {
		c.Warmup = 2000
	}
	if c.Measure == 0 {
		c.Measure = 5000
	}
	if c.Drain == 0 {
		c.Drain = 20000
	}
}

// Result summarizes one run.
type Result struct {
	// AvgLatency is the mean packet latency in cycles over packets created
	// during the measurement window and delivered before the drain limit.
	AvgLatency float64
	// Throughput is accepted flits per cycle per terminal during the
	// measurement window.
	Throughput float64
	// MeasuredPackets counts packets created during measurement.
	MeasuredPackets int
	// Unfinished counts measured packets not delivered by the drain limit.
	Unfinished int
	// Saturated is set when the network failed to deliver a meaningful
	// fraction of measured packets, i.e. the offered load exceeds the
	// saturation throughput.
	Saturated bool
	// Aborted is set when RunCtx observed its context cancelled and stopped
	// early; every other field then describes the partial run and must not
	// be compared against a completed one.
	Aborted bool
	// Cycles is the total simulated cycle count.
	Cycles int64
	// FlitsDelivered counts all flits ejected over the whole run.
	FlitsDelivered int64
	// LatencyP50, LatencyP99 and LatencyMax are exact order statistics of
	// measured packet latency in cycles.
	LatencyP50, LatencyP99, LatencyMax int
	// RequestLatency and ReplyLatency split AvgLatency by message class.
	RequestLatency, ReplyLatency float64
	// AvgHops is the mean router-traversal count of measured packets.
	AvgHops float64
	// SpecGrantsUsed, Misspeculations and SpecMasked aggregate the routers'
	// speculation outcomes over the whole run (§5.2): grants that moved a
	// flit, grants wasted on failed VC allocation, and proposals the
	// conflict masking discarded.
	SpecGrantsUsed, Misspeculations, SpecMasked int64
}

// event is one entry of a timing wheel. A flit event carries its flit by
// value; the fields are narrowed so that an event is 32 bytes.
type event struct {
	flit     router.Flit // evFlitToRouter, evFlitToTerminal
	router   int32       // evFlitToRouter, evCreditToRouter
	terminal int32       // evFlitToTerminal, evCreditToTerminal
	port, vc int16
	kind     eventKind
}

type eventKind uint8

const (
	evFlitToRouter eventKind = iota
	evCreditToRouter
	evFlitToTerminal
	evCreditToTerminal
)

// Network is an instantiated simulation.
type Network struct {
	cfg       Config
	routers   []*router.Router
	terminals []*terminal
	// injector is cfg.Routing if it decides anything at injection, else nil.
	injector routing.Injector
	now      int64
	// nowSlot tracks now % wheelSize incrementally, so the per-event wheel
	// indexing in slotFor/phase1 never pays a hardware divide.
	nowSlot int64

	// shards partition the routers and terminals: one shard, or two while
	// the network holds a helper (shardOf says which owns a router).
	shards    []*shard
	wheelSize int64

	// The helper and the rule that borrows it (barrier.go). helper is the
	// goroutine borrowed from lender that steps shard 1, nil while the
	// network holds none (and is one shard); epoch numbers the concurrent
	// cycles. wantHelpers is the current verdict of the break-even rule,
	// streak the cycles in a row that contradicted it, askIn the cycles until
	// a network that wants a helper and has none asks again, late the score
	// of the helper's lateness (scoreLate) and lastConcurrent the last cycle
	// stepped concurrently. modeHook, set by tests only, replaces the rule.
	helper         *helper
	lender         Lender
	epoch          uint64
	wantHelpers    bool
	streak, askIn  int
	late           int
	lastConcurrent int64
	modeHook       func(now int64) bool
	par            ParallelStats
	parks          atomic.Int64

	nextPktID int64

	// Event-leaping counters (leap.go), reported by LeapStats.
	leapEvents  int64
	cyclesLeapt int64

	// Measurement state. Only the serial commit phase mutates it, so the
	// floating-point accumulation order — the one place where reordering
	// would leak into results — is independent of the shard layout.
	measStart, measEnd int64
	latencySum         float64
	latencyCount       int
	measuredCreated    int
	inFlight           int // measured packets not yet delivered
	latHist            stats.Hist
	reqLat, repLat     stats.Running
	hops               stats.Running
}

// wheelSizeFor sizes the timing wheels for a topology: the largest delay
// ever scheduled is max(channel flit/credit delay 2+L, terminal credit
// round trip 4), and a wheel of maxDelay+1 slots distinguishes all of them
// from "now".
func wheelSizeFor(t *topology.Topology) int64 {
	maxDelay := int64(4)
	for _, ch := range t.Channels {
		if d := int64(2 + ch.Latency); d > maxDelay {
			maxDelay = d
		}
	}
	return maxDelay + 1
}

// New builds a network simulation.
func New(cfg Config) *Network {
	cfg.applyDefaults()
	if cfg.Topology == nil || cfg.Routing == nil {
		panic("sim: Topology and Routing required")
	}
	if err := cfg.Spec.Validate(); err != nil {
		panic(err)
	}
	if cfg.Spec.MessageClasses != 2 {
		panic("sim: request/reply traffic needs 2 message classes")
	}
	if cfg.Spec.ResourceClasses != cfg.Routing.ResourceClasses() {
		panic(fmt.Sprintf("sim: spec has %d resource classes, routing needs %d",
			cfg.Spec.ResourceClasses, cfg.Routing.ResourceClasses()))
	}
	n := &Network{
		cfg:       cfg,
		routers:   make([]*router.Router, 0, cfg.Topology.Routers),
		terminals: make([]*terminal, 0, cfg.Topology.Terminals()),
		wheelSize: wheelSizeFor(cfg.Topology),
	}
	n.injector, _ = cfg.Routing.(routing.Injector)
	root := xrand.New(cfg.Seed)
	for r := 0; r < cfg.Topology.Routers; r++ {
		rcfg := router.Config{
			ID:       r,
			Ports:    cfg.Topology.Ports,
			Spec:     cfg.Spec,
			BufDepth: cfg.BufDepth,
			Routing:  cfg.Routing,
			VA:       cfg.VA,
			SA:       cfg.SA,
		}
		if cfg.Trace != nil {
			rcfg.Trace = cfg.Trace
		}
		rcfg.Validate = cfg.Validate
		rcfg.DenseRequests = cfg.Reference
		n.routers = append(n.routers, router.New(rcfg))
	}
	procs, err := cfg.Workload.Processes(cfg.Topology.Terminals())
	if err != nil {
		panic(err)
	}
	pattern, err := cfg.Workload.NewPattern(cfg.Topology.Terminals())
	if err != nil {
		panic(err)
	}
	for t := 0; t < cfg.Topology.Terminals(); t++ {
		rid, port := cfg.Topology.TerminalRouter(t)
		n.terminals = append(n.terminals, newTerminal(n, t, rid, port, root.Split(uint64(t)+1), pattern, procs[t]))
	}
	n.shards = []*shard{n.newShard(0, 0, cfg.Topology.Routers)}
	for t := range n.terminals {
		n.shards[0].settle(t)
	}
	return n
}

// newShard returns an empty shard owning routers [r0, r1) and their
// terminals (terminal t lives on router t/conc, so a shard's terminals are
// contiguous too, and visiting the shards in index order visits the
// terminals in id order — the property the commit phase's ID assignment
// relies on).
func (n *Network) newShard(id, r0, r1 int) *shard {
	conc := n.cfg.Topology.Concentration
	s := &shard{
		id:  id,
		net: n,
		r0:  r0, r1: r1,
		t0: r0 * conc, t1: r1 * conc,
		wheel:    make([][]event, n.wheelSize),
		occ:      make([]uint64, (n.wheelSize+63)/64),
		lastStep: make([]int64, r1-r0),

		wakeIndex: newWakeIndex((r1-r0)*conc, r1-r0),
	}
	for j := range s.lastStep {
		s.lastStep[j] = -1
	}
	return s
}

// shardOf returns the shard that owns router r.
func (n *Network) shardOf(r int32) *shard {
	if s := n.shards[0]; int(r) < s.r1 {
		return s
	}
	return n.shards[1]
}

// split lays a one-shard network out on two between two cycles, each half of
// the routers a shard, and gives each half of the packet free list. Which
// shard an object or a counter lands in changes no result (shard.go).
func (n *Network) split() {
	old := n.shards[0]
	mid := old.r1 / 2
	n.relayout(n.newShard(0, 0, mid), n.newShard(1, mid, old.r1))
	// The capacity limit keeps shard 0's appends out of shard 1's half.
	half := len(old.freePkts) / 2
	n.shards[0].freePkts, n.shards[1].freePkts = old.freePkts[:half:half], old.freePkts[half:]
	n.shards[0].load, n.shards[1].load = old.loadLow, old.load-old.loadLow // the halves heavy() judged old by
}

// merge is split's inverse: it lays a two-shard network out on one between
// two cycles, after importing what the last cycle left in the outboxes.
func (n *Network) merge() {
	lo, hi := n.shards[0], n.shards[1]
	n.flushOutboxes()
	n.relayout(n.newShard(0, 0, hi.r1))
	n.shards[0].freePkts = append(lo.freePkts, hi.freePkts...)
	n.shards[0].load, n.shards[0].loadLow = lo.load+hi.load, lo.load
}

// relayout replaces the shards with fresh ones over the same routers, moving
// everything the old ones held to the shard that now owns it: wheel events by
// destination, the wake index and the lastStep bookkeeping entry by entry.
// The counters, only ever summed, go to shard 0.
func (n *Network) relayout(fresh ...*shard) {
	old, first, conc := n.shards, fresh[0], int32(n.cfg.Topology.Concentration)
	n.shards = fresh
	for _, o := range old {
		for slot, evs := range o.wheel {
			for _, e := range evs {
				r := e.router
				if e.kind == evFlitToTerminal || e.kind == evCreditToTerminal {
					r = e.terminal / conc
				}
				n.shardOf(r).enqueue(int64(slot), e)
			}
		}
		for r := o.r0; r < o.r1; r++ {
			s := n.shardOf(int32(r))
			s.lastStep[r-s.r0] = o.lastStep[r-o.r0]
			if o.active.has(r - o.r0) {
				s.active.set(r - s.r0)
			}
		}
		for t := o.t0; t < o.t1; t++ {
			s, i := n.shardOf(int32(t)/conc), t-o.t0
			if o.awake.has(i) {
				s.awake.set(t - s.t0)
			} else if o.sleep.pos[i] >= 0 {
				s.sleep.push(t-s.t0, o.sleep.at[i])
			}
		}
		first.created += o.created
		first.delivered += o.delivered
		first.measFlits += o.measFlits
		first.livePkts += o.livePkts
		first.termVisits += o.termVisits
		first.routerVisits += o.routerVisits
	}
}

// Now returns the current cycle.
func (n *Network) Now() int64 { return n.now }

// Router returns router r (exposed for tests).
func (n *Network) Router(r int) *router.Router { return n.routers[r] }

// Shards returns the number of shards the network runs with right now: one,
// or two while it holds a borrowed helper.
func (n *Network) Shards() int { return len(n.shards) }

// Occupancy implements routing.QueueEstimator for UGAL. During phase 1 it
// is only ever invoked for a terminal's own router (UGAL estimates queue
// delay at the source), which lives on the terminal's shard, so the read
// races with no other shard's writes.
func (n *Network) Occupancy(r, p int) int { return n.routers[r].OutputOccupancy(p) }

// stepCycle advances the simulation by one cycle in two phases: every
// shard delivers its due events and steps its terminals and routers (two
// shards on two goroutines while the network holds a helper, barrier.go),
// then a serial merge commits cross-shard events, new-packet IDs and
// delivery statistics in a canonical order (see shard.go for why that makes
// results bit-identical on one shard or two).
//
// Within a shard the default schedule is active-set: terminals that cannot
// make progress (no offered load, no open packet, empty source queues) and
// quiescent routers (no occupied input VC) are skipped. Skipping is
// bit-exact with the reference schedule because a dormant terminal draws no
// randomness (the injection process consumes no RNG at zero rate) and a
// quiescent router's Step is a state no-op apart from idle-variant
// allocator priority, which SkipIdle replays on wake-up. Iteration stays
// in id order in both modes, so packet IDs and RNG streams are identical.
func (n *Network) stepCycle() {
	if n.cfg.Trace != nil {
		n.cfg.Trace.SetCycle(n.now)
	}
	if n.lender != nil {
		n.follow()
	}
	if n.cfg.Validate && (len(n.shards) == 2) != (n.helper != nil) {
		panic(fmt.Sprintf("sim: cycle %d: %d shards, helper held %v", n.now, len(n.shards), n.helper != nil))
	}
	if n.helper != nil {
		n.stepConcurrent()
	} else {
		n.shards[0].phase1()
	}
	n.mergeAndCommit()
	n.par.Stepped++
	n.now++
	if n.nowSlot++; n.nowSlot == n.wheelSize {
		n.nowSlot = 0
	}
}

// AbortCheckInterval is the number of run-loop iterations between
// cancellation checks in RunCtx. A cancelled context is observed within one
// interval: at most AbortCheckInterval stepped cycles (leap iterations also
// count, so wall-clock latency is bounded even when leaps cover long
// stretches). Tests pin worker-release latency against this constant.
const AbortCheckInterval = 256

// Run executes warmup, measurement and drain and returns the result. Unless
// Config.Reference is set the loops first offer each cycle to the leap gate
// (leap.go), which jumps the clock over provably empty stretches; tryLeap
// never advances past the phase horizon, so phase boundaries land on exactly
// the cycles per-cycle ticking would visit.
func (n *Network) Run() Result {
	return n.RunCtx(context.Background())
}

// RunCtx is Run with cooperative cancellation: every AbortCheckInterval
// loop iterations the context's done channel is polled (a counter decrement
// and an empty select in the steady state, so the zero-alloc hot loop and
// bit-identical goldens are unaffected), and a cancelled run returns early
// with Result.Aborted set. Abort never lands mid-cycle — the check sits
// between cycles, when the helper is not stepping — so a partial run is
// internally consistent, just incomplete.
func (n *Network) RunCtx(ctx context.Context) Result {
	defer n.Close()
	done := ctx.Done()
	checkIn := AbortCheckInterval
	aborted := false
	cfg := n.cfg
	n.measStart = int64(cfg.Warmup)
	n.measEnd = int64(cfg.Warmup + cfg.Measure)
	for n.now < n.measEnd {
		if checkIn--; checkIn <= 0 {
			checkIn = AbortCheckInterval
			select {
			case <-done:
				aborted = true
			default:
			}
			if aborted {
				break
			}
		}
		if n.tryLeap(n.measEnd) {
			continue
		}
		n.stepCycle()
	}
	drainEnd := n.measEnd + int64(cfg.Drain)
	for !aborted && n.now < drainEnd && n.inFlight > 0 {
		if checkIn--; checkIn <= 0 {
			checkIn = AbortCheckInterval
			select {
			case <-done:
				aborted = true
			default:
			}
			if aborted {
				break
			}
		}
		if n.tryLeap(drainEnd) {
			continue
		}
		n.stepCycle()
	}
	var measFlits int64
	for _, s := range n.shards {
		measFlits += s.measFlits
	}
	res := Result{
		Aborted:         aborted,
		MeasuredPackets: n.measuredCreated,
		Unfinished:      n.inFlight,
		Cycles:          n.now,
		FlitsDelivered:  n.deliveredFlits(),
		Throughput:      float64(measFlits) / float64(cfg.Measure) / float64(cfg.Topology.Terminals()),
		LatencyP50:      n.latHist.Median(),
		LatencyP99:      n.latHist.P99(),
		LatencyMax:      n.latHist.Max(),
		RequestLatency:  n.reqLat.Mean(),
		ReplyLatency:    n.repLat.Mean(),
		AvgHops:         n.hops.Mean(),
	}
	for _, r := range n.routers {
		s := r.Stats()
		res.SpecGrantsUsed += s.SpecGrantsUsed
		res.Misspeculations += s.Misspeculations
		res.SpecMasked += s.SpecMasked
	}
	if n.latencyCount > 0 {
		res.AvgLatency = n.latencySum / float64(n.latencyCount)
	}
	// The network is saturated when a non-negligible fraction of measured
	// packets never drained.
	if n.measuredCreated > 0 && float64(res.Unfinished) > 0.02*float64(n.measuredCreated) {
		res.Saturated = true
	}
	return res
}

// packetDelivered records statistics when a packet's tail reaches its
// destination terminal; called only from the serial commit phase, in
// destination-terminal order.
func (n *Network) packetDelivered(p *router.Packet) {
	if p.CreatedAt >= n.measStart && p.CreatedAt < n.measEnd {
		lat := n.now - p.CreatedAt
		n.latencySum += float64(lat)
		n.latencyCount++
		n.latHist.Add(int(lat))
		if p.Type.IsRequest() {
			n.reqLat.Add(float64(lat))
		} else {
			n.repLat.Add(float64(lat))
		}
		n.hops.Add(float64(p.Hops))
		n.inFlight--
	}
}

// deliveredFlits sums the per-shard ejected-flit counters.
func (n *Network) deliveredFlits() int64 {
	var d int64
	for _, s := range n.shards {
		d += s.delivered
	}
	return d
}

// Conservation reports (flits injected into source queues and sent,
// flits delivered); exposed for invariant tests.
func (n *Network) Conservation() (sent, delivered int64) {
	var c int64
	for _, s := range n.shards {
		c += s.created
	}
	return c, n.deliveredFlits()
}
