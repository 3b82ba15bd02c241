// Package router implements the input-queued virtual-channel router
// microarchitecture of Becker & Dally (SC '09) §3.2: a two-stage pipeline in
// which VC allocation and switch allocation happen in the first stage
// (optionally with speculative switch allocation so head flits bypass a
// dedicated VA stage) and switch traversal in the second, with lookahead
// routing keeping route computation off the critical path, credit-based
// flow control, and statically partitioned input buffers.
package router

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/slab"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Packet is a multi-flit network packet.
type Packet struct {
	// ID is a globally unique packet identifier.
	ID int64
	// Type determines size and message class.
	Type traffic.PacketType
	// Src and Dst are terminal indices.
	Src, Dst int
	// Size is the flit count.
	Size int
	// CreatedAt is the cycle the packet entered its source queue.
	CreatedAt int64
	// Route is the packet's routing state (destination, UGAL phase).
	Route routing.PacketRoute
	// Hops counts the routers the packet's head flit has traversed.
	Hops int
}

// Flit is one flow-control unit of a packet: a small value that the router
// copies into its input buffer and the simulator carries inline in its events.
type Flit struct {
	// Pkt is the owning packet.
	Pkt *Packet
	// Seq is the flit's position within the packet, below 64.
	Seq int32
	// Head and Tail mark the first and last flits (both set for
	// single-flit packets).
	Head, Tail bool
}

// An input buffer slot is a packet pointer and a tag byte: the flit's
// sequence number in the low six bits, its head and tail marks above them.
const tagSeq, tagTail, tagHead = 1<<6 - 1, 1 << 6, 1 << 7

// MakeFlits expands a packet into its flits.
func MakeFlits(p *Packet) []*Flit {
	fs := make([]*Flit, p.Size)
	for i := range fs {
		fs[i] = &Flit{Pkt: p, Seq: int32(i), Head: i == 0, Tail: i == p.Size-1}
	}
	return fs
}

// Departure reports a flit that won switch traversal this cycle.
type Departure struct {
	// OutPort and OutVC identify the output the flit leaves through.
	OutPort, OutVC int
	// Flit is the departing flit.
	Flit Flit
}

// Credit reports a freed input buffer slot to be returned upstream.
type Credit struct {
	// InPort and InVC identify the input VC that released a slot.
	InPort, InVC int
}

// Config parameterizes a router.
type Config struct {
	// ID is the router's index in the network.
	ID int
	// Ports is the radix P.
	Ports int
	// Spec is the VC organization.
	Spec core.VCSpec
	// BufDepth is the statically partitioned per-VC input buffer depth in
	// flits (the paper uses 8).
	BufDepth int
	// Routing supplies lookahead route decisions.
	Routing routing.Function
	// VA configures the VC allocator (Ports and Spec are overridden).
	VA core.VCAllocConfig
	// SA configures the switch allocator (Ports and VCs are overridden);
	// SA.SpecMode selects the speculation scheme.
	SA core.SwitchAllocConfig
	// Trace, when non-nil, receives pipeline events (route computation,
	// VA/SA grants, misspeculations).
	Trace trace.Recorder
	// Validate enables per-cycle allocation checking: every VC and switch
	// allocation result is verified against its requests, the cached
	// request vectors are cross-checked against a dense rebuild, and
	// violations panic. Intended for tests and debugging; roughly doubles
	// Step cost.
	Validate bool
	// DenseRequests disables change-driven request caching: every cycle the
	// router recomputes all VA and switch requests from scratch instead of
	// rebuilding only the entries of input VCs touched by an event since
	// the last cycle. Kept as the golden reference for the equivalence
	// tests; the default change-driven path is bit-identical.
	DenseRequests bool
}

type vcState = uint8 // an alias: the state column shares a slab with the tags

const (
	vcIdle   vcState = iota // no packet, or body flits not yet at front
	vcWaitVA                // head flit at front, awaiting an output VC
	vcActive                // output VC assigned; flits compete for the switch
)

// Router is one router instance. It is not safe for concurrent use.
//
// Input and output VC state lives in flat struct-of-arrays slices indexed by
// global VC index port*v+vc rather than in per-VC structs: the change-driven
// request rebuild walks only the dirty VCs, and the SoA layout keeps each
// field it touches (state, count, route) in its own contiguous run of memory
// instead of striding over full per-VC records.
type Router struct {
	cfg   Config
	p, v  int
	depth int

	// va and sa are the allocators: buildRequests pushes every request entry
	// it changes into them, and Step only runs them. Under Validate, twinVA
	// and twinSA are a second pair that Step hands the whole request slices
	// every cycle, to hold Run's grants to Allocate's (nil otherwise).
	va, twinVA *core.VCAllocator
	sa, twinSA *core.SwitchAllocator

	// Input VC state (SoA, indexed port*v+vc). fifo and tags hold all input
	// buffers back to back: VC i's ring is slots i*depth to (i+1)*depth-1,
	// fronted by head[i] with count[i] occupied slots.
	fifo    []*Packet
	tags    []uint8
	head    []int32
	count   []int32
	state   []vcState
	outPort []int32 // route: output port, valid from vcWaitVA on
	class   []int32 // route: (message, resource) class index at outPort
	outVC   []int32 // local VC index at outPort, valid when vcActive
	// Output VC state (SoA). outAlloc holds the allocated VCs of each output
	// port as one word (bit c = VC c), so candidate masking is one AND-NOT;
	// outOwner maps an allocated output VC back to the input VC holding it
	// (-1 when free), which is how a credit return finds the one cached
	// switch request it can invalidate.
	outAlloc   []uint64 // per output port
	outCredits []int32  // per output VC
	outOwner   []int32  // per output VC: owning input VC or -1

	vaReqs     []core.VCRequest
	saReqs     []core.SwitchRequest
	classMasks []uint64 // per (m,r) class: its VCs

	// dirty marks the input VCs whose cached VA/SA request entries must be
	// rebuilt this cycle, set only by events that can change an entry; every
	// other entry is byte-identical to a dense rebuild (DESIGN.md §8).
	// waiters[o] marks the input VCs in vcWaitVA routed to output port o —
	// the set whose candidate masks depend on port o's allocation state.
	dirty   *bitvec.Vec
	waiters []bitvec.Vec

	speculate bool

	deps    []Departure
	credits []Credit
	stats   Stats

	// occupied counts input VCs currently holding at least one flit; it is
	// maintained by AcceptFlit and commitSA and backs Quiescent.
	occupied int
}

// Stats counts per-router pipeline events since construction.
type Stats struct {
	// FlitsRouted counts flits that traversed the crossbar.
	FlitsRouted int64
	// SpecGrantsUsed counts speculative switch grants that moved a flit
	// (successful VA+SA bypass).
	SpecGrantsUsed int64
	// Misspeculations counts speculative switch grants wasted because VC
	// allocation failed in the same cycle or the fresh VC had no credit.
	Misspeculations int64
	// SpecMasked counts speculative proposals the allocator's conflict
	// masking discarded (higher for the pessimistic scheme under load).
	SpecMasked int64
}

// New builds a router.
func New(cfg Config) *Router {
	if cfg.Ports <= 0 || cfg.BufDepth <= 0 {
		panic("router: Ports and BufDepth must be positive")
	}
	if err := cfg.Spec.Validate(); err != nil {
		panic(err)
	}
	if cfg.Routing == nil {
		panic("router: Routing required")
	}
	v := cfg.Spec.V()
	cfg.VA.Ports = cfg.Ports
	cfg.VA.Spec = cfg.Spec
	cfg.SA.Ports = cfg.Ports
	cfg.SA.VCs = v
	n := cfg.Ports * v
	r := &Router{
		cfg:       cfg,
		p:         cfg.Ports,
		v:         v,
		depth:     cfg.BufDepth,
		fifo:      make([]*Packet, n*cfg.BufDepth),
		vaReqs:    make([]core.VCRequest, n),
		saReqs:    make([]core.SwitchRequest, n),
		speculate: cfg.SA.SpecMode != core.SpecNone,
	}
	r.va, r.sa = core.NewAllocators(cfg.VA, cfg.SA)
	if cfg.Validate {
		r.twinVA, r.twinSA = core.NewAllocators(cfg.VA, cfg.SA)
	}
	// The int32 columns, the byte columns (state, buffer tags) and the bit
	// vectors the router owns are one slab each (see DESIGN.md §14).
	var cols slab.Of[int32]
	var bytes slab.Of[uint8]
	var vecs bitvec.Slab
	for pass := 0; pass < 2; pass++ {
		r.state, r.tags = bytes.Take(n), bytes.Take(n*cfg.BufDepth)
		r.head, r.count = cols.Take(n), cols.Take(n)
		r.outPort, r.class, r.outVC = cols.Take(n), cols.Take(n), cols.Take(n)
		r.outCredits, r.outOwner = cols.Take(n), cols.Take(n)
		r.outAlloc = vecs.Words(cfg.Ports)
		r.classMasks = vecs.Words(cfg.Spec.Classes())
		r.dirty = vecs.Vec(n)
		r.waiters = vecs.Vecs(cfg.Ports, n)
		if pass == 0 {
			cols.Alloc()
			bytes.Alloc()
			vecs.Alloc()
		}
	}
	for i := 0; i < n; i++ {
		r.outCredits[i] = int32(cfg.BufDepth)
		r.outOwner[i] = -1
	}
	for m := 0; m < cfg.Spec.MessageClasses; m++ {
		for rc := 0; rc < cfg.Spec.ResourceClasses; rc++ {
			r.classMasks[cfg.Spec.ClassIndex(m, rc)] = uint64(cfg.Spec.ClassMask(m, rc))
		}
	}
	return r
}

// ID returns the router's network index.
func (r *Router) ID() int { return r.cfg.ID }

// front returns the flit at the head of input VC i's ring buffer.
func (r *Router) front(i int) Flit {
	s := i*r.depth + int(r.head[i])
	t := r.tags[s]
	return Flit{Pkt: r.fifo[s], Seq: int32(t & tagSeq), Head: t&tagHead != 0, Tail: t&tagTail != 0}
}

// AcceptFlit copies *f into input buffer (port, vc). The caller is
// responsible for honoring credits; overflow panics, as it indicates a
// flow-control bug rather than a recoverable condition. Only an arrival at an
// empty VC dirties it: a flit queued behind another changes no request entry.
func (r *Router) AcceptFlit(port, vc int, f *Flit) {
	i := port*r.v + vc
	c := int(r.count[i])
	if c >= r.depth || uint32(f.Seq) > tagSeq {
		panic(fmt.Sprintf("router %d: input buffer (%d,%d) overflow, or flit sequence number %d past %d",
			r.cfg.ID, port, vc, f.Seq, tagSeq))
	}
	// head < depth and c < depth, so one conditional subtract replaces the
	// modulo's hardware divide on this per-flit path.
	pos := int(r.head[i]) + c
	if pos >= r.depth {
		pos -= r.depth
	}
	s := i*r.depth + pos
	t := uint8(f.Seq)
	if f.Head {
		t |= tagHead
	}
	if f.Tail {
		t |= tagTail
	}
	r.fifo[s], r.tags[s] = f.Pkt, t
	r.count[i] = int32(c + 1)
	if c == 0 {
		r.occupied++
		r.dirty.Set(i)
	}
}

// AcceptCredit returns one credit for output VC (port, vc). Only the input VC
// holding this output VC has a cached switch request gated on its credit
// count, and only on the count being positive: it is dirtied on 0 -> 1 alone.
func (r *Router) AcceptCredit(port, vc int) {
	g := port*r.v + vc
	if int(r.outCredits[g]) >= r.depth {
		panic(fmt.Sprintf("router %d: credit overflow at output (%d,%d)", r.cfg.ID, port, vc))
	}
	if r.outCredits[g]++; r.outCredits[g] == 1 && r.outOwner[g] >= 0 {
		r.dirty.Set(int(r.outOwner[g]))
	}
}

// OutputOccupancy estimates the flits queued downstream of output port p as
// consumed credits across its VCs; UGAL consults this at injection time.
func (r *Router) OutputOccupancy(port int) int {
	occ := 0
	for vc := 0; vc < r.v; vc++ {
		occ += r.depth - int(r.outCredits[port*r.v+vc])
	}
	return occ
}

// InputOccupancy returns the number of buffered flits at input (port, vc);
// exposed for tests and statistics.
func (r *Router) InputOccupancy(port, vc int) int { return int(r.count[port*r.v+vc]) }

// OutputVCFree reports whether output VC (port, vc) is unallocated.
func (r *Router) OutputVCFree(port, vc int) bool { return r.outAlloc[port]>>uint(vc)&1 == 0 }

// Stats returns the router's pipeline event counters, folding in the switch
// allocator's masking statistics.
func (r *Router) Stats() Stats {
	s := r.stats
	s.SpecMasked = r.sa.Stats().SpecMasked
	return s
}

// Quiescent reports whether a Step would be a guaranteed no-op: with no
// occupied input VC there are no routes to refresh and no VC or switch
// requests, so no grants, departures or credits can be produced. (Idle
// cycles still advance wavefront allocator priority in the dense stepper;
// SkipIdle replays that state change without the full Step.) Credits alone
// never un-quiesce a router: they enable no work until a flit arrives, and
// AcceptFlit raises occupancy.
func (r *Router) Quiescent() bool { return r.occupied == 0 }

// SkipIdle catches up the allocator state for idleCycles consecutive
// quiescent cycles that the caller elided, keeping an event-driven schedule
// bit-exact with stepping the router every cycle.
func (r *Router) SkipIdle(idleCycles int64) {
	r.va.SkipIdle(idleCycles)
	r.sa.SkipIdle(idleCycles)
	if r.cfg.Validate {
		r.twinVA.SkipIdle(idleCycles)
		r.twinSA.SkipIdle(idleCycles)
	}
}

// Step advances the router by one cycle: route refresh, VC allocation and
// (speculative) switch allocation, then switch traversal commits. The
// returned slices are reused across calls.
//
// The default schedule is change-driven: the VA and switch request entries
// are cached across cycles and only the entries of input VCs marked dirty —
// by a flit arriving at an empty VC, a credit ending a zero count, a VA grant,
// a pop that empties the VC, spends its last credit or sends a tail, or an
// allocation-state change at their output port — are rebuilt, once however
// many of those hit a VC between two Steps. Clean entries are byte-identical
// to what a full rebuild would produce, so the allocators cannot distinguish
// the two schedules; Config.DenseRequests selects the full rebuild as a golden
// reference and Config.Validate cross-checks the cache against it every
// cycle. Either way each changed entry is pushed into the allocators as it is
// made (buildRequests), and Step runs them; Config.Validate also holds their
// grants to a twin pair's Allocate on the same slices, so a missed push fails
// at the cycle it is missed.
//
// Concurrency contract: distinct Router instances share no mutable state,
// so Step (and AcceptFlit/AcceptCredit/SkipIdle for the same router's
// events) may run concurrently across routers — the sim package's sharded
// stepper relies on this. Everything a router shares with its siblings is
// read-only after New: Config carries the Spec by value and the Routing
// function (NextHop mutates only the packet's own Route), and each router
// builds its own class masks, allocators and arbiters on slabs no other
// router touches. A single Router is not safe for concurrent use; the Trace
// collector is the one shared mutable sink, which is why tracing forces
// serial stepping.
func (r *Router) Step() ([]Departure, []Credit) {
	r.deps = r.deps[:0]
	r.credits = r.credits[:0]

	r.buildRequests()
	r.dirty.Reset()
	vaGrants, vaGranted := r.va.Run(r.vaReqs)
	saGrants := r.sa.Run(r.saReqs)
	if r.cfg.Validate {
		r.checkGrants(vaGrants, vaGranted, saGrants)
	}
	r.commitVA(vaGrants, vaGranted)
	r.commitSA(saGrants, vaGrants)
	return r.deps, r.credits
}

// checkGrants panics unless Run's grants equal the twin allocators' Allocate
// on the same request slices — checked first, so a missed push is named as
// such — and are legal, with granted words naming exactly the granted VCs.
func (r *Router) checkGrants(vaGrants []int, vaGranted []uint64, saGrants []core.SwitchGrant) {
	for i, g := range r.twinVA.Allocate(r.vaReqs) {
		if g != vaGrants[i] {
			panic(fmt.Sprintf("router %d: VC allocator's Run grants VC %d output VC %d, Allocate on the same requests %d (missed push)", r.cfg.ID, i, vaGrants[i], g))
		}
		if (vaGrants[i] >= 0) != (vaGranted[i/r.v]>>uint(i%r.v)&1 != 0) {
			panic(fmt.Sprintf("router %d: VC allocator's granted words disagree with its grant to VC %d", r.cfg.ID, i))
		}
	}
	for port, g := range r.twinSA.Allocate(r.saReqs) {
		if g != saGrants[port] {
			panic(fmt.Sprintf("router %d: switch allocator's Run grants port %d %+v, Allocate on the same requests %+v (missed push)", r.cfg.ID, port, saGrants[port], g))
		}
	}
	if a, b := r.sa.Stats(), r.twinSA.Stats(); a != b {
		panic(fmt.Sprintf("router %d: switch allocator's Run counts %+v, Allocate on the same requests %+v (missed push)", r.cfg.ID, a, b))
	}
	if err := core.CheckVCGrants(r.p, r.cfg.Spec, r.vaReqs, vaGrants); err != nil {
		panic(fmt.Sprintf("router %d: %v", r.cfg.ID, err))
	}
	if err := core.CheckSwitchGrants(r.p, r.v, r.saReqs, saGrants); err != nil {
		panic(fmt.Sprintf("router %d: %v", r.cfg.ID, err))
	}
}

// buildRequests refreshes routes and assembles this cycle's VA and switch
// request entries: for every input VC under DenseRequests, otherwise only
// for the dirty ones. Step then resets the dirty mask, before the commit
// phase starts marking VCs for the next cycle.
func (r *Router) buildRequests() {
	if r.cfg.DenseRequests {
		for i := range r.state {
			r.rebuild(i, i/r.v, i%r.v)
		}
		return
	}
	// Word-at-a-time scan: rebuild never touches the dirty mask (bits
	// are only set again during the commit phase), so iterating a snapshot
	// of each word is safe and skips the per-bit NextSet re-entry. The
	// indices ascend, so the port they belong to only moves forward: first
	// is the index of the current port's VC 0.
	port, first := 0, 0
	for wi, w := range r.dirty.Words() {
		for base := wi * 64; w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			for i >= first+r.v {
				port++
				first += r.v
			}
			r.rebuild(i, port, i-first)
		}
	}
	if r.cfg.Validate {
		r.checkRequestCache()
	}
}

// rebuild recomputes input VC i = (port, vc)'s route (lookahead routing: an
// idle VC whose front flit is a head computes its output port and resource
// class immediately) and its VA and switch request entries, and pushes each
// entry that changed into its allocator.
func (r *Router) rebuild(i, port, vc int) {
	if r.state[i] == vcIdle && r.count[i] > 0 {
		f := r.front(i)
		if !f.Head {
			panic(fmt.Sprintf("router %d: body flit at front of idle VC %d", r.cfg.ID, i))
		}
		outPort, rc := r.cfg.Routing.NextHop(r.cfg.ID, &f.Pkt.Route)
		r.outPort[i] = int32(outPort)
		r.class[i] = int32(r.cfg.Spec.ClassIndex(f.Pkt.Type.MessageClass(), rc))
		r.state[i] = vcWaitVA
		r.waiters[outPort].Set(i)
		if r.cfg.Trace != nil {
			r.cfg.Trace.Record(trace.Event{Kind: trace.RouteComputed, Router: r.cfg.ID,
				Port: port, VC: vc, OutPort: outPort, OutVC: -1,
				Packet: f.Pkt.ID, Seq: int(f.Seq)})
		}
	}
	// computeVAReq leaves an entry without candidates inactive, so an entry
	// is issuable exactly when it is Active.
	va := r.computeVAReq(i)
	sa := r.computeSAReq(i, va.Active)
	if va.Active != r.vaReqs[i].Active {
		r.va.Push(port, vc, va.Active)
	}
	if sa != r.saReqs[i] {
		r.sa.Push(port, vc, r.saReqs[i], sa)
	}
	r.vaReqs[i], r.saReqs[i] = va, sa
}

// computeVAReq assembles input VC i's VC allocation request: a request is
// issued for a head flit awaiting an output VC, restricted to the free output
// VCs of the (message, resource) class rebuild recorded for the head.
func (r *Router) computeVAReq(i int) core.VCRequest {
	if r.state[i] != vcWaitVA {
		return core.VCRequest{}
	}
	cand := r.classMasks[r.class[i]] &^ r.outAlloc[r.outPort[i]]
	if cand == 0 {
		return core.VCRequest{}
	}
	return core.VCRequest{Active: true, OutPort: int(r.outPort[i]), Candidates: core.VCMask(cand)}
}

// computeSAReq assembles input VC i's switch request: non-speculative for an
// active VC with a buffered flit and downstream credit, speculative for a
// head flit that issued a VC request this cycle (when speculation is
// enabled).
func (r *Router) computeSAReq(i int, vaActive bool) core.SwitchRequest {
	switch r.state[i] {
	case vcActive:
		if r.count[i] == 0 {
			return core.SwitchRequest{}
		}
		if r.outCredits[int(r.outPort[i])*r.v+int(r.outVC[i])] <= 0 {
			return core.SwitchRequest{}
		}
		return core.SwitchRequest{Active: true, OutPort: int(r.outPort[i])}
	case vcWaitVA:
		if r.speculate && vaActive {
			return core.SwitchRequest{Active: true, OutPort: int(r.outPort[i]), Spec: true}
		}
	}
	return core.SwitchRequest{}
}

// checkRequestCache panics unless every cached request entry — clean or
// dirty — matches a dense rebuild of the current state, and the waiter and
// owner indexes agree with the VC state machine. Run under Validate, it
// turns any missed dirty bit into a deterministic failure at the cycle it
// first happens instead of a silent divergence.
func (r *Router) checkRequestCache() {
	for i := range r.state {
		if r.state[i] == vcIdle && r.count[i] > 0 {
			panic(fmt.Sprintf("router %d: VC %d holds flits but was never routed (missed dirty bit)", r.cfg.ID, i))
		}
		gotVA := r.vaReqs[i]
		if want := r.computeVAReq(i); want != gotVA {
			panic(fmt.Sprintf("router %d: stale cached VA request for VC %d (missed dirty bit)", r.cfg.ID, i))
		}
		if want := r.computeSAReq(i, gotVA.Active); want != r.saReqs[i] {
			panic(fmt.Sprintf("router %d: stale cached switch request for VC %d (missed dirty bit)", r.cfg.ID, i))
		}
		if r.state[i] == vcWaitVA && !r.waiters[r.outPort[i]].Get(i) {
			panic(fmt.Sprintf("router %d: waiting VC %d missing from waiter mask of port %d", r.cfg.ID, i, r.outPort[i]))
		}
		if r.state[i] == vcWaitVA && int(r.class[i])/r.cfg.Spec.ResourceClasses != r.front(i).Pkt.Type.MessageClass() {
			panic(fmt.Sprintf("router %d: VC %d's class index %d is not of its packet's message class", r.cfg.ID, i, r.class[i]))
		}
		if r.state[i] == vcActive {
			if g := int(r.outPort[i])*r.v + int(r.outVC[i]); int(r.outOwner[g]) != i {
				panic(fmt.Sprintf("router %d: output VC %d owner index does not name holder %d", r.cfg.ID, g, i))
			}
		}
	}
	for p := 0; p < r.p; p++ {
		for c := 0; c < r.v; c++ {
			if !r.OutputVCFree(p, c) != (r.outOwner[p*r.v+c] >= 0) {
				panic(fmt.Sprintf("router %d: output VC (%d,%d) allocation/owner mismatch", r.cfg.ID, p, c))
			}
		}
	}
}

// commitVA applies VC allocation grants, visiting only the input VCs granted
// holds (bit vc of word port). Allocating an output VC shrinks the candidate
// sets of every other VC waiting on that port, so the port's whole waiter set
// is marked dirty (the grantee is in it until cleared).
func (r *Router) commitVA(grants []int, granted []uint64) {
	for port, w := range granted {
		for ; w != 0; w &= w - 1 {
			i := port*r.v + bits.TrailingZeros64(w)
			g := grants[i]
			if r.state[i] != vcWaitVA {
				panic(fmt.Sprintf("router %d: VA grant to VC %d in state %d", r.cfg.ID, i, r.state[i]))
			}
			outPort, outVC := g/r.v, g%r.v
			if int32(outPort) != r.outPort[i] {
				panic(fmt.Sprintf("router %d: VA grant port mismatch", r.cfg.ID))
			}
			if !r.OutputVCFree(outPort, outVC) {
				panic(fmt.Sprintf("router %d: VA granted busy output VC", r.cfg.ID))
			}
			r.outAlloc[outPort] |= 1 << uint(outVC)
			r.outOwner[g] = int32(i)
			r.outVC[i] = int32(outVC)
			r.state[i] = vcActive
			r.dirty.Or(&r.waiters[outPort])
			r.waiters[outPort].Clear(i)
			if r.cfg.Trace != nil {
				f := r.front(i)
				r.cfg.Trace.Record(trace.Event{Kind: trace.VAGrant, Router: r.cfg.ID,
					Port: port, VC: i - port*r.v, OutPort: outPort, OutVC: outVC,
					Packet: f.Pkt.ID, Seq: int(f.Seq)})
			}
		}
	}
}

// commitSA applies switch grants and performs switch traversal: winning
// flits leave their input buffers, consume a downstream credit and return
// an upstream credit. Speculative grants are validated against this cycle's
// VC allocation outcome and downstream credit availability; failed
// speculation simply wastes the crossbar slot (§5.2). A pop dirties its VC
// only if it changes the VC's switch request: it empties the VC, spends the
// last credit, or sends the tail, which frees the output VC and so enlarges
// the candidate sets of that port's waiters, dirtying them too.
func (r *Router) commitSA(grants []core.SwitchGrant, vaGrants []int) {
	for port, g := range grants {
		if g.OutPort < 0 {
			continue
		}
		i := port*r.v + g.VC
		if g.Spec {
			// Misspeculation: the head flit failed to acquire an output VC
			// this cycle, so the crossbar slot is wasted.
			if vaGrants[i] < 0 {
				r.stats.Misspeculations++
				r.traceMisspec(port, g.VC, i)
				continue
			}
			// The output VC was assigned this very cycle; it must also have
			// a credit for the flit to proceed.
			if r.outCredits[int(r.outPort[i])*r.v+int(r.outVC[i])] <= 0 {
				r.stats.Misspeculations++
				r.traceMisspec(port, g.VC, i)
				continue
			}
			r.stats.SpecGrantsUsed++
		}
		if r.count[i] == 0 || r.state[i] != vcActive {
			panic(fmt.Sprintf("router %d: switch grant to empty/idle VC %d", r.cfg.ID, i))
		}
		f := r.front(i)
		h := int(r.head[i])
		r.fifo[i*r.depth+h] = nil
		if h++; h == r.depth {
			h = 0
		}
		r.head[i] = int32(h)
		r.count[i]--
		if r.count[i] == 0 {
			r.occupied--
		}
		r.stats.FlitsRouted++
		if f.Head {
			f.Pkt.Hops++
		}
		op, ov := int(r.outPort[i]), int(r.outVC[i])
		ovcIdx := op*r.v + ov
		r.outCredits[ovcIdx]--
		if r.outCredits[ovcIdx] < 0 {
			panic(fmt.Sprintf("router %d: credit underflow at output VC %d", r.cfg.ID, ovcIdx))
		}
		if r.count[i] == 0 || r.outCredits[ovcIdx] == 0 || f.Tail {
			r.dirty.Set(i)
		}
		r.deps = append(r.deps, Departure{OutPort: op, OutVC: ov, Flit: f})
		r.credits = append(r.credits, Credit{InPort: port, InVC: g.VC})
		if r.cfg.Trace != nil {
			r.cfg.Trace.Record(trace.Event{Kind: trace.SAGrant, Router: r.cfg.ID,
				Port: port, VC: g.VC, OutPort: op, OutVC: ov,
				Packet: f.Pkt.ID, Seq: int(f.Seq), Spec: g.Spec})
		}
		if f.Tail {
			r.outAlloc[op] &^= 1 << uint(ov)
			r.outOwner[ovcIdx] = -1
			r.state[i] = vcIdle
			r.dirty.Or(&r.waiters[op])
		}
	}
}

// traceMisspec records a wasted speculative grant.
func (r *Router) traceMisspec(port, vc, i int) {
	if r.cfg.Trace == nil {
		return
	}
	e := trace.Event{Kind: trace.Misspec, Router: r.cfg.ID, Port: port, VC: vc,
		OutPort: int(r.outPort[i]), OutVC: -1, Packet: -1, Seq: -1}
	if r.count[i] > 0 {
		f := r.front(i)
		e.Packet = f.Pkt.ID
		e.Seq = int(f.Seq)
	}
	r.cfg.Trace.Record(e)
}
