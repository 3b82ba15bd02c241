package core

import (
	"fmt"
	"math/bits"

	"repro/internal/alloc"
	"repro/internal/arbiter"
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
	// Candidates selects the output VCs at OutPort that may be assigned; bits
	// at or above the router's V must be clear. An active request with no
	// candidate asks for nothing. Inactive requests may leave it zero.
	Candidates VCMask
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
}

// NewVCAllocator builds a VC allocator.
func NewVCAllocator(cfg VCAllocConfig) *VCAllocator {
	a := newVCAllocator(cfg)
	build(a)
	return a
}

// newVCAllocator returns a VC allocator before its storage is laid out.
func newVCAllocator(cfg VCAllocConfig) *VCAllocator {
	if cfg.Ports <= 0 {
		panic("core: Ports must be positive")
	}
	if err := cfg.Spec.Validate(); err != nil {
		panic(err)
	}
	v := cfg.Spec.V()
	if cfg.Ports > maxVCs || v > maxVCs {
		panic(fmt.Sprintf("core: VC allocator for %d ports × %s = %d VCs: at most %d of each, "+
			"every candidate set and every port set is one machine word", cfg.Ports, cfg.Spec, v, maxVCs))
	}
	a := &VCAllocator{ports: cfg.Ports, v: v}
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

// VCAllocator assigns output VCs to requesting input VCs, at most one output
// VC per input VC and at most one input VC per output VC (paper §4). It
// dispatches requests to one engine (dense) or one engine per message class
// (sparse). Because packets never change message class, the sparse
// decomposition loses no matching opportunities (paper §4.2).
//
// It has two entry points over one request slice, indexed by global input VC
// p·V+v and of length P·V. Allocate derives its request state from the whole
// slice. Push+Run let the caller maintain that state: whenever the caller
// rewrites an entry it pushes whether the entry is now issuable — Active with
// at least one candidate — and Run then only allocates, reading OutPort and
// Candidates of the issuable entries from the slice. The two may be mixed
// freely; after an Allocate the caller pushes only what it rewrites from then
// on. Grants are bit-identical to Allocate's on the same slice.
//
// The request slice is a read-only input owned by the caller, who may reuse
// the same backing storage — with only changed entries rewritten — on every
// call (the router's change-driven request cache does exactly that). The
// allocator never mutates it and keeps no reference past the call's return.
type VCAllocator struct {
	ports, v int
	engines  []vcEngine
	grants   []int

	// active[p] caches which of input port p's VCs carry an issuable request
	// (Active with a candidate), and busy which ports have any. Allocate
	// rebuilds them from the full slice, Push sets one bit; the engines
	// iterate their set bits instead of scanning all P·V entries, so a cycle
	// with two requests costs two visits whatever P and V are.
	active []uint64
	busy   uint64
	// granted[p] holds the input VCs of port p that the last call granted:
	// the grants entries to take back before the next one.
	granted []uint64
}

// Name returns the paper-style identifier, e.g. "sep_if/rr" or
// "wf/rr (sparse)". It is assembled on demand: reports ask for it a handful
// of times, and building the string per constructed allocator was two heap
// objects each.
func (a *VCAllocator) Name() string {
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

func (a *VCAllocator) layout(s slabs) slabs {
	a.active = s.Words(a.ports)
	a.granted = s.Words(a.ports)
	a.grants = s.ints.Take(a.ports * a.v)
	for i := range a.engines {
		a.engines[i].layout(&s)
	}
	return s
}

func (a *VCAllocator) fill() {
	for i := range a.grants {
		a.grants[i] = -1
	}
	for i := range a.engines {
		a.engines[i].fill()
	}
}

// Reset restores initial arbitration state.
func (a *VCAllocator) Reset() {
	for i := range a.engines {
		a.engines[i].reset()
	}
}

// SkipIdle advances the allocator as idleCycles calls without a single
// issuable request would: it replays them into the wavefront engines, whose
// priority diagonal turns on every call, request-free ones included.
// Separable engines only update arbiter priority on grants and need no
// catch-up.
func (a *VCAllocator) SkipIdle(idleCycles int64) {
	for i := range a.engines {
		if e := &a.engines[i]; e.arch == alloc.Wavefront {
			e.wave.SkipIdle(idleCycles)
		}
	}
}

// Allocate computes a VC assignment for one cycle. The returned slice,
// indexed by global input VC, holds the granted global output VC (o·V+v') or
// -1; it is owned by the allocator and valid until the next call.
func (a *VCAllocator) Allocate(reqs []VCRequest) []int {
	a.checkLen(reqs)
	a.busy = 0
	for port := range a.active {
		var w uint64
		for vc, r := range reqs[port*a.v : (port+1)*a.v] {
			if r.Active && r.Candidates != 0 {
				w |= 1 << uint(vc)
			}
		}
		a.setActive(port, w)
	}
	return a.run(reqs)
}

// Push records whether input VC (port, vc)'s entry is issuable. Pushing an
// unchanged entry again is harmless.
func (a *VCAllocator) Push(port, vc int, issuable bool) {
	if issuable {
		a.setActive(port, a.active[port]|1<<uint(vc))
	} else {
		a.setActive(port, a.active[port]&^(1<<uint(vc)))
	}
}

// Run is Allocate over the pushed state. Besides the grants it returns the
// input VCs holding one, a word per input port (bit vc of word port), so a
// caller visits only those; both are owned by the allocator and valid until
// the next call.
func (a *VCAllocator) Run(reqs []VCRequest) (grants []int, granted []uint64) {
	a.checkLen(reqs)
	return a.run(reqs), a.granted
}

func (a *VCAllocator) checkLen(reqs []VCRequest) {
	if len(reqs) != a.ports*a.v {
		panic(fmt.Sprintf("core: %d VC requests, want %d", len(reqs), a.ports*a.v))
	}
}

// setActive replaces port's active set.
func (a *VCAllocator) setActive(port int, vcs uint64) {
	a.active[port] = vcs
	a.busy &^= 1 << uint(port)
	if vcs != 0 {
		a.busy |= 1 << uint(port)
	}
}

// run takes back the previous call's grants — only the entries its granted
// words name, not all P·V — lets every engine allocate over the active sets
// and gathers the new granted words. Only an issuable entry can be granted,
// so that walk is over the active sets, and it reads the active sets Run was
// given, whatever pushes change them before the next call.
func (a *VCAllocator) run(reqs []VCRequest) []int {
	for port, w := range a.granted {
		if w == 0 {
			continue
		}
		for ; w != 0; w &= w - 1 {
			a.grants[port*a.v+bits.TrailingZeros64(w)] = -1
		}
		a.granted[port] = 0
	}
	for i := range a.engines {
		a.engines[i].allocate(reqs, a.grants, a.active, a.busy)
	}
	for pw := a.busy; pw != 0; pw &= pw - 1 {
		port := bits.TrailingZeros64(pw)
		var w uint64
		for aw := a.active[port]; aw != 0; aw &= aw - 1 {
			vc := bits.TrailingZeros64(aw)
			if a.grants[port*a.v+vc] >= 0 {
				w |= 1 << uint(vc)
			}
		}
		a.granted[port] = w
	}
	return a.grants
}

// vcEngine performs VC allocation over the VC index range [off, off+w) at
// every port. A dense allocator uses a single engine covering all V VCs; the
// sparse scheme instantiates one engine per message class.
//
// The separable engines run on machine words: an input VC's candidates in the
// engine's range are one word, and what an output VC sees is stored in the
// shape of its §4.1 tree arbiter — which input ports bid, and per port which
// of its VCs.
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

	// Wavefront state: the diagonal sweep of one (P·w)×(P·w) block, fed
	// straight from the active sets and the candidate words.
	wave alloc.Wave

	// gIdx maps an engine-local input or output index p·w + (vc-off) back to
	// the global VC index p·V + vc used by the request and grant slices.
	gIdx []int32 // P·w wide

	// Scratch of the separable engines, all zero between calls. lo is an
	// output VC's local index o·w + (vc-off).
	bidPorts []uint64 // per lo: the input ports with a VC bidding for lo
	bidLeaf  []uint64 // per lo·P + port: which of that port's VCs (local) bid
	outSet   []uint64 // per output port: its local VCs with at least one bid
	bidVC    []int    // per input VC in range: chosen local candidate (sep_if)
	offer    []uint64 // per input VC in range: local output VCs offered (sep_of)
}

func newVCEngine(cfg VCAllocConfig, off, w int) vcEngine {
	switch cfg.Arch {
	case alloc.SepIF, alloc.SepOF, alloc.Wavefront:
	default:
		panic(fmt.Sprintf("core: unsupported VC allocator arch %v", cfg.Arch))
	}
	return vcEngine{cfg: cfg, off: off, w: w, arch: cfg.Arch}
}

func (e *vcEngine) layout(s *slabs) {
	p, w, k := e.cfg.Ports, e.w, e.cfg.ArbKind
	switch e.arch {
	case alloc.SepIF, alloc.SepOF:
		e.inArb = s.Bank(k, p*w, w)
		e.outArb = s.TreeBank(k, p*w, p, w)
		e.bidPorts = s.Words(p * w)
		e.bidLeaf = s.Words(p * w * p)
		e.outSet = s.Words(p)
		if e.arch == alloc.SepIF {
			e.bidVC = s.ints.Take(p * w)
		} else {
			e.offer = s.Words(p * w)
		}
	case alloc.Wavefront:
		e.wave.Layout(&s.Slab.Slab, p*w)
	}
	e.gIdx = s.i32.Take(p * w)
}

func (e *vcEngine) fill() {
	v := e.cfg.Spec.V()
	for l := range e.gIdx {
		e.gIdx[l] = int32((l/e.w)*v + e.off + l%e.w)
	}
}

func (e *vcEngine) reset() {
	e.inArb.Reset()
	e.outArb.Reset()
	e.wave.Reset()
}

// inRange is the engine's VC range as a mask over a port's V VCs.
func (e *vcEngine) inRange() uint64 { return (1<<uint(e.w) - 1) << uint(e.off) }

// window returns the candidates of request r that fall in the engine's range,
// as local indices: bit c is output VC off+c.
func (e *vcEngine) window(r *VCRequest) uint64 {
	return uint64(r.Candidates) & e.inRange() >> uint(e.off)
}

// allocate computes this engine's share of the matching. active[p] marks the
// VCs of input port p that are Active with a candidate and busy the ports
// that have one; the engine visits only those in its range (ascending, the
// same order as a full scan), so a mostly-idle request slice costs
// proportionally little.
func (e *vcEngine) allocate(reqs []VCRequest, grants []int, active []uint64, busy uint64) {
	switch e.arch {
	case alloc.SepIF:
		e.allocateSepIF(reqs, grants, active, busy)
	case alloc.SepOF:
		e.allocateSepOF(reqs, grants, active, busy)
	case alloc.Wavefront:
		e.allocateWavefront(reqs, grants, active, busy)
	}
}

// allocateSepIF implements Fig. 3(a): each input VC first arbitrates among
// its candidate output VCs, then each output VC arbitrates among incoming
// bids with a P·w-input tree arbiter. Input arbiters update priority only
// when the bid wins output arbitration.
func (e *vcEngine) allocateSepIF(reqs []VCRequest, grants []int, active []uint64, busy uint64) {
	p, w, v, inRange := e.cfg.Ports, e.w, e.cfg.Spec.V(), e.inRange()
	// Stage 1: input-side arbitration. Stage 2 reads bidVC only for input
	// VCs that bid this cycle, so stale entries of inactive VCs are never
	// observed and need no clearing. outs collects the output ports bid for.
	var outs uint64
	for pw := busy; pw != 0; pw &= pw - 1 {
		port := bits.TrailingZeros64(pw)
		for aw := active[port] & inRange; aw != 0; aw &= aw - 1 {
			vc := bits.TrailingZeros64(aw)
			r := &reqs[port*v+vc]
			li := port*w + vc - e.off
			c := e.inArb.PickWord(li, e.window(r))
			if c < 0 {
				continue
			}
			e.bidVC[li] = c
			lo := r.OutPort*w + c
			e.outSet[r.OutPort] |= 1 << uint(c)
			outs |= 1 << uint(r.OutPort)
			e.bidPorts[lo] |= 1 << uint(port)
			e.bidLeaf[lo*p+port] |= 1 << uint(vc-e.off)
		}
	}
	// Stage 2: output-side arbitration at the output VCs that received bids.
	for ; outs != 0; outs &= outs - 1 {
		o := bits.TrailingZeros64(outs)
		for ow := e.outSet[o]; ow != 0; ow &= ow - 1 {
			lo := o*w + bits.TrailingZeros64(ow)
			winner := e.pickBidder(lo)
			grants[e.gIdx[winner]] = int(e.gIdx[lo])
			e.outArb.Update(lo, winner)
			e.inArb.Update(winner, e.bidVC[winner])
		}
		e.outSet[o] = 0
	}
}

// pickBidder runs output VC lo's tree arbiter over the bids stored for it and
// clears them. Only output VCs with a bid are asked, so there is a winner.
func (e *vcEngine) pickBidder(lo int) int {
	p := e.cfg.Ports
	ports, leaves := e.bidPorts[lo], e.bidLeaf[lo*p:(lo+1)*p]
	winner := e.outArb.PickWords(lo, ports, leaves)
	e.bidPorts[lo] = 0
	for ; ports != 0; ports &= ports - 1 {
		leaves[bits.TrailingZeros64(ports)] = 0
	}
	return winner
}

// allocateSepOF implements Fig. 3(b): each output VC first arbitrates among
// all requesting input VCs, then each input VC that received one or more
// offers picks a winner. Output arbiters update priority only when their
// offer is accepted.
func (e *vcEngine) allocateSepOF(reqs []VCRequest, grants []int, active []uint64, busy uint64) {
	p, w, v, inRange := e.cfg.Ports, e.w, e.cfg.Spec.V(), e.inRange()
	// Gather: transpose each input VC's candidate set into the request tree
	// of every output VC it names. outs collects the output ports named.
	var outs uint64
	for pw := busy; pw != 0; pw &= pw - 1 {
		port := bits.TrailingZeros64(pw)
		for aw := active[port] & inRange; aw != 0; aw &= aw - 1 {
			vc := bits.TrailingZeros64(aw)
			r := &reqs[port*v+vc]
			cand := e.window(r)
			e.outSet[r.OutPort] |= cand
			outs |= 1 << uint(r.OutPort)
			for base := r.OutPort * w; cand != 0; cand &= cand - 1 {
				lo := base + bits.TrailingZeros64(cand)
				e.bidPorts[lo] |= 1 << uint(port)
				e.bidLeaf[lo*p+port] |= 1 << uint(vc-e.off)
			}
		}
	}
	// Stage 1: output-side arbitration at every requested output VC.
	for ; outs != 0; outs &= outs - 1 {
		o := bits.TrailingZeros64(outs)
		for ow := e.outSet[o]; ow != 0; ow &= ow - 1 {
			c := bits.TrailingZeros64(ow)
			e.offer[e.pickBidder(o*w+c)] |= 1 << uint(c)
		}
		e.outSet[o] = 0
	}
	// Stage 2: input-side arbitration among offered output VCs. Only an
	// input VC that requested can hold an offer.
	for pw := busy; pw != 0; pw &= pw - 1 {
		port := bits.TrailingZeros64(pw)
		for aw := active[port] & inRange; aw != 0; aw &= aw - 1 {
			vc := bits.TrailingZeros64(aw)
			li := port*w + vc - e.off
			offers := e.offer[li]
			if offers == 0 {
				continue
			}
			e.offer[li] = 0
			c := e.inArb.PickWord(li, offers)
			gi := port*v + vc
			oPort := reqs[gi].OutPort
			grants[gi] = oPort*v + e.off + c
			e.inArb.Update(li, c)
			e.outArb.Update(oPort*w+c, li)
		}
	}
}

// allocateWavefront implements Fig. 3(c): one (P·w)×(P·w) wavefront block.
// Each issuable input VC's candidate word goes straight into the sweep's
// diagonal buckets, at its output port's columns, and the sweep writes each
// grant straight into grants: there is no request or grant matrix.
func (e *vcEngine) allocateWavefront(reqs []VCRequest, grants []int, active []uint64, busy uint64) {
	w, v, inRange := e.w, e.cfg.Spec.V(), e.inRange()
	for pw := busy; pw != 0; pw &= pw - 1 {
		port := bits.TrailingZeros64(pw)
		for aw := active[port] & inRange; aw != 0; aw &= aw - 1 {
			vc := bits.TrailingZeros64(aw)
			r := &reqs[port*v+vc]
			e.wave.Request(port*w+vc-e.off, r.OutPort*w, e.window(r))
		}
	}
	e.wave.Sweep(func(row, col int) { grants[e.gIdx[row]] = int(e.gIdx[col]) })
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
		if !r.Candidates.Get(ovc) {
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
