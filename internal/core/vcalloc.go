package core

import (
	"fmt"
	"math/bits"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/bitvec"
)

// VCRequest is one input VC's request to the VC allocator for a given cycle.
// A request is issued on behalf of the head flit buffered at the input VC:
// it names the output port selected by the routing function and the set of
// candidate output VCs at that port (already masked by routing legality and
// downstream availability).
type VCRequest struct {
	// Active indicates a head flit is waiting for an output VC.
	Active bool
	// OutPort is the output port selected by the routing function.
	OutPort int
	// Candidates selects the output VCs at OutPort that may be assigned.
	// Its width is the router's V. Inactive requests may leave it nil.
	Candidates *bitvec.Vec
}

// VCAllocator assigns output VCs to requesting input VCs, at most one output
// VC per input VC and at most one input VC per output VC (paper §4).
type VCAllocator interface {
	// Ports returns the router port count P.
	Ports() int
	// VCs returns the per-port VC count V.
	VCs() int
	// Allocate computes a VC assignment for one cycle. reqs is indexed by
	// global input VC p·V+v and must have length P·V. The returned slice,
	// also indexed by global input VC, holds the granted global output VC
	// (o·V+v') or -1; it is owned by the allocator and valid until the next
	// call.
	//
	// Request-slice contract: reqs and the Candidates vectors it points to
	// are read-only inputs owned by the caller, who may reuse the same
	// backing storage — with only changed entries rewritten — on every
	// call (the router's change-driven request cache does exactly that).
	// Implementations must not mutate them and must not retain references
	// past the call's return; any cross-cycle state they keep must be
	// derived by value, as the free-queue allocator's noteFreed does.
	Allocate(reqs []VCRequest) []int
	// Reset restores initial arbitration state.
	Reset()
	// Name returns the paper-style identifier, e.g. "sep_if/rr" or
	// "wf/rr (sparse)".
	Name() string
}

// MaskedVCAllocator is implemented by VC allocators that cache derived
// request state across cycles. AllocateMasked behaves exactly like Allocate,
// but the caller additionally passes the set of request indices whose entries
// it rewrote since the previous call (Allocate or AllocateMasked); the
// allocator refreshes only the cached state derived from those entries. The
// two entry points may be mixed freely — a plain Allocate call resynchronizes
// the cache from the full slice. Grants are bit-identical either way.
type MaskedVCAllocator interface {
	VCAllocator
	AllocateMasked(reqs []VCRequest, changed *bitvec.Vec) []int
}

// VCAllocConfig parameterizes VC allocator construction.
type VCAllocConfig struct {
	// Ports is the router radix P.
	Ports int
	// Spec describes the VC organization (V = M·R·C).
	Spec VCSpec
	// Arch selects the allocator architecture: alloc.SepIF, alloc.SepOF or
	// alloc.Wavefront.
	Arch alloc.Arch
	// ArbKind selects the arbiter implementation for separable
	// architectures.
	ArbKind arbiter.Kind
	// Sparse enables the sparse VC allocation scheme of §4.2: the allocator
	// is partitioned into one independent sub-allocator per message class.
	Sparse bool
	// FreeQueue selects the free-VC-queue scheme of Mullins et al. [15]
	// instead of a matching allocator: one FIFO of free VCs per
	// (port, class), a single arbitration per queue per cycle. Arch and
	// Sparse are ignored when set.
	FreeQueue bool
}

// NewVCAllocator builds a VC allocator.
func NewVCAllocator(cfg VCAllocConfig) VCAllocator {
	a := newVCPart(cfg)
	build(a)
	return a
}

// vcPart is a VC allocator before its storage is laid out.
type vcPart interface {
	VCAllocator
	part
}

func newVCPart(cfg VCAllocConfig) vcPart {
	if cfg.Ports <= 0 {
		panic("core: Ports must be positive")
	}
	if err := cfg.Spec.Validate(); err != nil {
		panic(err)
	}
	if cfg.FreeQueue {
		return newFreeQueueVCAllocator(cfg)
	}
	v := cfg.Spec.V()
	a := &vcAllocator{ports: cfg.Ports, v: v}
	if cfg.Sparse {
		perClass := cfg.Spec.ResourceClasses * cfg.Spec.VCsPerClass
		a.engines = make([]vcEngine, cfg.Spec.MessageClasses)
		for m := range a.engines {
			a.engines[m] = newVCEngine(cfg, m*perClass, perClass)
		}
	} else {
		a.engines = []vcEngine{newVCEngine(cfg, 0, v)}
	}
	return a
}

// vcAllocator dispatches requests to one engine (dense) or one engine per
// message class (sparse). Because packets never change message class, the
// sparse decomposition loses no matching opportunities (paper §4.2).
type vcAllocator struct {
	ports, v int
	engines  []vcEngine
	grants   []int

	// active caches which request indices carry an issuable request
	// (Active with a candidate vector). It is resynchronized from the full
	// slice on Allocate and from only the changed entries on AllocateMasked;
	// the engines iterate its set bits instead of scanning all P·V entries.
	active *bitvec.Vec
}

func (a *vcAllocator) Ports() int { return a.ports }
func (a *vcAllocator) VCs() int   { return a.v }

// Name is assembled on demand: reports ask for it a handful of times, and
// building the string per constructed allocator was two heap objects each.
func (a *vcAllocator) Name() string {
	cfg := a.engines[0].cfg
	name := cfg.Arch.String()
	if cfg.Arch != alloc.Wavefront {
		name += "/" + cfg.ArbKind.String()
	} else {
		name += "/rr"
	}
	if cfg.Sparse {
		name += " (sparse)"
	}
	return name
}

func (a *vcAllocator) layout(s slabs) slabs {
	a.active = s.Vec(a.ports * a.v)
	a.grants = s.ints.Take(a.ports * a.v)
	for i := range a.engines {
		a.engines[i].layout(&s)
	}
	return s
}

func (a *vcAllocator) fill() {
	for i := range a.engines {
		a.engines[i].fill()
	}
}

func (a *vcAllocator) Reset() {
	for i := range a.engines {
		a.engines[i].reset()
	}
}

// SkipIdle implements alloc.IdleSkipper: wavefront engines rotate their
// priority diagonal on every Allocate call, including request-free cycles,
// so skipped idle cycles must be replayed into them. Separable engines only
// update arbiter priority on grants and need no catch-up.
func (a *vcAllocator) SkipIdle(idleCycles int64) {
	for i := range a.engines {
		if s, ok := a.engines[i].wf.(alloc.IdleSkipper); ok {
			s.SkipIdle(idleCycles)
		}
	}
}

func (a *vcAllocator) Allocate(reqs []VCRequest) []int {
	if len(reqs) != a.ports*a.v {
		panic(fmt.Sprintf("core: %d VC requests, want %d", len(reqs), a.ports*a.v))
	}
	for i, r := range reqs {
		a.noteRequest(i, r)
	}
	return a.run(reqs)
}

// AllocateMasked implements MaskedVCAllocator.
func (a *vcAllocator) AllocateMasked(reqs []VCRequest, changed *bitvec.Vec) []int {
	if len(reqs) != a.ports*a.v {
		panic(fmt.Sprintf("core: %d VC requests, want %d", len(reqs), a.ports*a.v))
	}
	for wi, w := range changed.Words() {
		for base := wi * 64; w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			a.noteRequest(i, reqs[i])
		}
	}
	return a.run(reqs)
}

func (a *vcAllocator) noteRequest(i int, r VCRequest) {
	if r.Active && r.Candidates != nil {
		a.active.Set(i)
	} else {
		a.active.Clear(i)
	}
}

func (a *vcAllocator) run(reqs []VCRequest) []int {
	// Scan-and-clear: grants are sparse, so skip the store for entries
	// already at -1. The zero value is >= 0, so first use also clears.
	for i, g := range a.grants {
		if g >= 0 {
			a.grants[i] = -1
		}
	}
	for i := range a.engines {
		a.engines[i].allocate(reqs, a.grants, a.active)
	}
	return a.grants
}

// vcEngine performs VC allocation over the VC index range [off, off+w) at
// every port. A dense allocator uses a single engine covering all V VCs; the
// sparse scheme instantiates one engine per message class.
type vcEngine struct {
	cfg    VCAllocConfig
	off, w int

	arch alloc.Arch

	// Separable state. Input arbiters select among the w candidate output
	// VCs of an input VC; output arbiters select among the P·w input VCs of
	// this engine bidding for an output VC. Output-side arbitration uses
	// tree arbiters (a stage of w-input arbiters under a P-input arbiter),
	// matching the structure suggested in §4.1.
	inArb  arbiter.Bank     // per input VC in range, width w
	outArb arbiter.TreeBank // per output VC in range, width P·w

	// Wavefront state.
	wf    alloc.Allocator
	wfReq bitvec.Matrix

	// Index tables hoisting the divides out of the per-request allocate
	// loops: liOf maps a global request index gi to this engine's local
	// index p·w + (vc-off), or -1 when gi's VC falls outside the window;
	// gIdx inverts it, mapping a local input or output index back to the
	// global VC index (port·V + off + local%w) used by the request and
	// grant slices.
	liOf []int32 // ports·V wide
	gIdx []int32 // p·w wide

	// Scratch.
	cand    *bitvec.Vec  // w wide; sparse sub-engines only
	bids    []bitvec.Vec // per output VC in range, P·w wide (sep_if stage 2)
	bidsAny *bitvec.Vec  // output VCs with at least one bid (sep_if)
	bidVC   []int        // per input VC in range: chosen local candidate (sep_if)
	offers  []bitvec.Vec // per input VC in range, w wide (sep_of stage 2)
	offAny  *bitvec.Vec  // input VCs with at least one offer (sep_of)
	reqTo   []bitvec.Vec // per output VC in range, P·w wide (sep_of stage 1)
	outAny  *bitvec.Vec  // output VCs whose reqTo vector is dirty (sep_of)
	wfRows  *bitvec.Vec  // rows of wfReq that are dirty (wavefront)
}

func newVCEngine(cfg VCAllocConfig, off, w int) vcEngine {
	e := vcEngine{cfg: cfg, off: off, w: w, arch: cfg.Arch}
	switch cfg.Arch {
	case alloc.SepIF, alloc.SepOF:
	case alloc.Wavefront:
		e.wf = alloc.NewWavefront(cfg.Ports*w, cfg.Ports*w)
	default:
		panic(fmt.Sprintf("core: unsupported VC allocator arch %v", cfg.Arch))
	}
	return e
}

func (e *vcEngine) layout(s *slabs) {
	p, w, k := e.cfg.Ports, e.w, e.cfg.ArbKind
	switch e.arch {
	case alloc.SepIF:
		e.inArb = s.Bank(k, p*w, w)
		e.outArb = s.TreeBank(k, p*w, p, w)
		e.bids = s.Vecs(p*w, p*w)
		e.bidsAny = s.Vec(p * w)
		e.bidVC = s.ints.Take(p * w)
	case alloc.SepOF:
		e.inArb = s.Bank(k, p*w, w)
		e.outArb = s.TreeBank(k, p*w, p, w)
		e.offers = s.Vecs(p*w, w)
		e.offAny = s.Vec(p * w)
		e.reqTo = s.Vecs(p*w, p*w)
		e.outAny = s.Vec(p * w)
	case alloc.Wavefront:
		e.wfReq = s.Matrix(p*w, p*w)
		e.wfRows = s.Vec(p * w)
	}
	e.liOf = s.i32.Take(p * e.cfg.Spec.V())
	e.gIdx = s.i32.Take(p * w)
	if !e.full() {
		e.cand = s.Vec(w)
	}
}

func (e *vcEngine) fill() {
	v := e.cfg.Spec.V()
	for gi := range e.liOf {
		e.liOf[gi] = -1
		if vc := gi % v; e.inRange(vc) {
			e.liOf[gi] = int32(e.local(gi/v, vc))
		}
	}
	for l := range e.gIdx {
		e.gIdx[l] = int32((l/e.w)*v + e.off + l%e.w)
	}
}

// full reports whether the engine covers every VC, i.e. is not a sparse
// sub-engine.
func (e *vcEngine) full() bool { return e.off == 0 && e.w == e.cfg.Spec.V() }

func (e *vcEngine) reset() {
	e.inArb.Reset()
	e.outArb.Reset()
	if e.wf != nil {
		e.wf.Reset()
	}
}

// candFor returns the engine-range candidate vector for an active request r,
// or nil when no candidate falls in range. An engine covering the full VC
// range reads the request's own (caller-owned, read-only) vector in place;
// sparse sub-engines extract their window into the e.cand scratch vector.
func (e *vcEngine) candFor(r VCRequest) *bitvec.Vec {
	if e.full() {
		if !r.Candidates.Any() {
			return nil
		}
		return r.Candidates
	}
	if !e.cand.SliceFrom(r.Candidates, e.off) {
		return nil
	}
	return e.cand
}

// inRange reports whether global VC index vc falls in this engine's window.
func (e *vcEngine) inRange(vc int) bool { return vc >= e.off && vc < e.off+e.w }

// local index helpers: engine-local input/output VC index is p·w + (v-off).
func (e *vcEngine) local(p, v int) int      { return p*e.w + (v - e.off) }
func (e *vcEngine) global(l int) (p, v int) { return l / e.w, e.off + l%e.w }

// allocate computes this engine's share of the matching. act marks the
// request indices that are Active with a candidate vector; the engine visits
// only those (ascending, the same order as a full scan), so a mostly-idle
// request slice costs proportionally little.
func (e *vcEngine) allocate(reqs []VCRequest, grants []int, act *bitvec.Vec) {
	switch e.arch {
	case alloc.SepIF:
		e.allocateSepIF(reqs, grants, act)
	case alloc.SepOF:
		e.allocateSepOF(reqs, grants, act)
	case alloc.Wavefront:
		e.allocateWavefront(reqs, grants, act)
	}
}

// allocateSepIF implements Fig. 3(a): each input VC first arbitrates among
// its candidate output VCs, then each output VC arbitrates among incoming
// bids with a P·w-input tree arbiter. Input arbiters update priority only
// when the bid wins output arbitration.
func (e *vcEngine) allocateSepIF(reqs []VCRequest, grants []int, act *bitvec.Vec) {
	// Clear only the bid vectors dirtied by the previous cycle.
	for wi, bw := range e.bidsAny.Words() {
		for base := wi * 64; bw != 0; bw &= bw - 1 {
			e.bids[base+bits.TrailingZeros64(bw)].Reset()
		}
	}
	e.bidsAny.Reset()
	// Stage 1: input-side arbitration. Stage 2 reads bidVC only for input
	// VCs that bid this cycle, so stale entries of inactive VCs are never
	// observed and need no clearing. act is not mutated here, so the word
	// scan reads a consistent snapshot; liOf fuses the VC-window filter
	// and the local-index divides into one table lookup.
	for wi, aw := range act.Words() {
		for base := wi * 64; aw != 0; aw &= aw - 1 {
			gi := base + bits.TrailingZeros64(aw)
			li := int(e.liOf[gi])
			if li < 0 {
				continue
			}
			r := reqs[gi]
			cand := e.candFor(r)
			if cand == nil {
				continue
			}
			c := e.inArb.Pick(li, cand)
			if c < 0 {
				continue
			}
			e.bidVC[li] = c
			lo := r.OutPort*e.w + c
			e.bids[lo].Set(li)
			e.bidsAny.Set(lo)
		}
	}
	// Stage 2: output-side arbitration at the output VCs that received bids.
	for wi, bw := range e.bidsAny.Words() {
		for base := wi * 64; bw != 0; bw &= bw - 1 {
			lo := base + bits.TrailingZeros64(bw)
			winner := e.outArb.Pick(lo, &e.bids[lo])
			if winner < 0 {
				continue
			}
			grants[e.gIdx[winner]] = int(e.gIdx[lo])
			e.outArb.Update(lo, winner)
			e.inArb.Update(winner, e.bidVC[winner])
		}
	}
}

// allocateSepOF implements Fig. 3(b): each output VC first arbitrates among
// all requesting input VCs, then each input VC that received one or more
// offers picks a winner. Output arbiters update priority only when their
// offer is accepted.
func (e *vcEngine) allocateSepOF(reqs []VCRequest, grants []int, act *bitvec.Vec) {
	v := e.cfg.Spec.V()
	// Clear the vectors dirtied by the previous cycle.
	for lo := e.outAny.NextSet(0); lo >= 0; lo = e.outAny.NextSet(lo + 1) {
		e.reqTo[lo].Reset()
	}
	e.outAny.Reset()
	for li := e.offAny.NextSet(0); li >= 0; li = e.offAny.NextSet(li + 1) {
		e.offers[li].Reset()
	}
	e.offAny.Reset()
	// Gather: transpose each input VC's candidate set into per-output-VC
	// request vectors, replacing the per-output scan over all input VCs.
	for gi := act.NextSet(0); gi >= 0; gi = act.NextSet(gi + 1) {
		li := int(e.liOf[gi])
		if li < 0 {
			continue
		}
		r := reqs[gi]
		cand := e.candFor(r)
		if cand == nil {
			continue
		}
		base := r.OutPort * e.w
		for c := cand.NextSet(0); c >= 0; c = cand.NextSet(c + 1) {
			e.reqTo[base+c].Set(li)
			e.outAny.Set(base + c)
		}
	}
	// Stage 1: output-side arbitration at every requested output VC.
	for lo := e.outAny.NextSet(0); lo >= 0; lo = e.outAny.NextSet(lo + 1) {
		winner := e.outArb.Pick(lo, &e.reqTo[lo])
		if winner < 0 {
			continue
		}
		e.offers[winner].Set(lo % e.w)
		e.offAny.Set(winner)
	}
	// Stage 2: input-side arbitration among offered output VCs.
	for li := e.offAny.NextSet(0); li >= 0; li = e.offAny.NextSet(li + 1) {
		c := e.inArb.Pick(li, &e.offers[li])
		if c < 0 {
			continue
		}
		gi := int(e.gIdx[li])
		oPort := reqs[gi].OutPort
		grants[gi] = oPort*v + (e.off + c)
		e.inArb.Update(li, c)
		e.outArb.Update(oPort*e.w+c, li)
	}
}

// allocateWavefront implements Fig. 3(c): a (P·w)×(P·w) wavefront allocator
// over the full request matrix.
func (e *vcEngine) allocateWavefront(reqs []VCRequest, grants []int, act *bitvec.Vec) {
	// Clear only the request rows dirtied by the previous cycle.
	for row := e.wfRows.NextSet(0); row >= 0; row = e.wfRows.NextSet(row + 1) {
		e.wfReq.Row(row).Reset()
	}
	e.wfRows.Reset()
	for gi := act.NextSet(0); gi >= 0; gi = act.NextSet(gi + 1) {
		row := int(e.liOf[gi])
		if row < 0 {
			continue
		}
		r := reqs[gi]
		cand := e.candFor(r)
		if cand == nil {
			continue
		}
		e.wfRows.Set(row)
		base := r.OutPort * e.w
		wfRow := e.wfReq.Row(row)
		for c := cand.NextSet(0); c >= 0; c = cand.NextSet(c + 1) {
			wfRow.Set(base + c)
		}
	}
	g := e.wf.Allocate(&e.wfReq)
	// Grants are a subset of requests, so only dirty rows can hold one.
	for row := e.wfRows.NextSet(0); row >= 0; row = e.wfRows.NextSet(row + 1) {
		gRow := g.Row(row)
		if col := gRow.NextSet(0); col >= 0 {
			grants[e.gIdx[row]] = int(e.gIdx[col])
		}
	}
}

// CheckVCGrants validates a VC allocation result against its requests:
// every grant must correspond to an active request, name a candidate output
// VC at the requested port, and no output VC may be granted twice. It
// returns an error describing the first violation found.
func CheckVCGrants(p int, spec VCSpec, reqs []VCRequest, grants []int) error {
	v := spec.V()
	// holder[g] is 1 + the input VC granted output VC g. The paper's largest
	// router has P·V = 160, so the table normally lives on the stack.
	var buf [256]int32
	holder := buf[:]
	if len(grants) > len(buf) {
		holder = make([]int32, len(grants))
	}
	for gi, g := range grants {
		if g < 0 {
			continue
		}
		r := reqs[gi]
		if !r.Active {
			return fmt.Errorf("core: grant %d to inactive input VC %d", g, gi)
		}
		oPort, ovc := g/v, g%v
		if oPort != r.OutPort {
			return fmt.Errorf("core: input VC %d granted port %d, requested %d", gi, oPort, r.OutPort)
		}
		if r.Candidates == nil || !r.Candidates.Get(ovc) {
			return fmt.Errorf("core: input VC %d granted non-candidate output VC %d", gi, ovc)
		}
		if g >= len(holder) {
			return fmt.Errorf("core: input VC %d granted out-of-range output VC %d", gi, g)
		}
		if prev := holder[g]; prev != 0 {
			return fmt.Errorf("core: output VC %d granted to both input VC %d and %d", g, prev-1, gi)
		}
		holder[g] = int32(gi) + 1
	}
	return nil
}
