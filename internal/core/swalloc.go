package core

import (
	"fmt"
	"math/bits"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/bitvec"
)

// SwitchRequest is one input VC's crossbar request for a given cycle.
//
// The two flags sit together after OutPort so an entry is 16 bytes, not 24:
// a router holds one per input VC, and the allocator a second copy.
type SwitchRequest struct {
	// OutPort is the output port the flit must be switched to.
	OutPort int
	// Active indicates the VC has a flit ready to traverse the crossbar.
	Active bool
	// Spec marks a speculative request: a head flit bidding for the
	// crossbar in the same cycle it requests an output VC (§5.2). When the
	// allocator was built with SpecNone, speculative requests are ignored.
	Spec bool
}

// SwitchGrant is the per-input-port result of switch allocation.
type SwitchGrant struct {
	// VC is the winning VC at this input port, or -1 if the port received
	// no grant.
	VC int
	// OutPort is the granted output port, or -1.
	OutPort int
	// Spec reports whether the grant was awarded to a speculative request.
	Spec bool
}

// SpecMode selects the speculative switch allocation scheme.
type SpecMode int

const (
	// SpecNone disables speculation: only non-speculative requests compete.
	SpecNone SpecMode = iota
	// SpecGnt is the conventional scheme of Peh & Dally (Fig. 9a):
	// speculative grants are discarded when a non-speculative *grant* uses
	// the same input or output port. Highest speculation efficiency, but
	// the grant-reduction ORs and masking NOR/AND stages sit on the
	// critical path.
	SpecGnt
	// SpecReq is the paper's pessimistic scheme (Fig. 9b): speculative
	// grants are discarded when a conflicting non-speculative *request*
	// exists, removing the reduction network from the critical path at the
	// price of discarded speculation opportunities under load.
	SpecReq
)

// String returns the identifier used in the paper's Fig. 14 legend.
func (m SpecMode) String() string {
	switch m {
	case SpecNone:
		return "nonspec"
	case SpecGnt:
		return "spec_gnt"
	case SpecReq:
		return "spec_req"
	default:
		return fmt.Sprintf("SpecMode(%d)", int(m))
	}
}

// SwitchAllocConfig parameterizes switch allocator construction.
type SwitchAllocConfig struct {
	// Ports is the router radix P.
	Ports int
	// VCs is the number of VCs per input port V.
	VCs int
	// Arch selects the architecture: alloc.SepIF, alloc.SepOF or
	// alloc.Wavefront (Fig. 8).
	Arch alloc.Arch
	// ArbKind selects the arbiter implementation for the separable stages
	// and the wavefront pre-selection arbiters.
	ArbKind arbiter.Kind
	// SpecMode selects the speculation scheme.
	SpecMode SpecMode
	// Precomputed wraps the allocator with the arbitration pre-computation
	// of Mullins et al. [15]: grants derive from the previous cycle's
	// requests and stale grants are aborted. Requires SpecNone.
	Precomputed bool
}

// SwitchAllocStats counts speculation outcomes since construction or the
// last Reset; they quantify the speculation-efficiency trade-off of §5.2.
type SwitchAllocStats struct {
	// SpecProposals counts grants proposed by the speculative
	// sub-allocator before conflict masking.
	SpecProposals int64
	// SpecMasked counts proposals discarded by the masking stage; the
	// pessimistic scheme masks strictly more than the conventional one
	// under load.
	SpecMasked int64
	// SpecGranted counts speculative grants that survived masking.
	SpecGranted int64
}

// SwitchAllocator schedules buffered flits onto crossbar time slots subject
// to the switch allocation constraints: at most one VC per input port and at
// most one input port per output port receive grants (paper §5).
type SwitchAllocator interface {
	// Ports returns the router port count P.
	Ports() int
	// VCs returns the per-port VC count V.
	VCs() int
	// Allocate computes the crossbar schedule for one cycle. reqs is
	// indexed by global input VC p·V+v and must have length P·V. The
	// result, indexed by input port, is owned by the allocator and valid
	// until the next call.
	//
	// Request-slice contract: reqs is a read-only input owned by the
	// caller, who may reuse the same backing array — with only changed
	// entries rewritten — on every call (the router's change-driven
	// request cache does exactly that). Implementations must not mutate it
	// and must not retain it past the call's return; cross-cycle state
	// must be copied by value, as the precomputed allocator's request
	// latch does.
	Allocate(reqs []SwitchRequest) []SwitchGrant
	// Reset restores initial arbitration state and clears Stats.
	Reset()
	// Name returns the paper-style identifier, e.g. "sep_if/rr+spec_req".
	Name() string
	// Stats reports speculation outcome counters.
	Stats() SwitchAllocStats
}

// MaskedSwitchAllocator is implemented by switch allocators that cache
// derived request state across cycles. AllocateMasked behaves exactly like
// Allocate, but the caller additionally passes the set of request indices
// whose entries it rewrote since the previous call (Allocate or
// AllocateMasked); the allocator refreshes only the cached state derived
// from those entries. The two entry points may be mixed freely — a plain
// Allocate call resynchronizes the cache from the full slice. Grants are
// bit-identical either way.
type MaskedSwitchAllocator interface {
	SwitchAllocator
	AllocateMasked(reqs []SwitchRequest, changed *bitvec.Vec) []SwitchGrant
}

// NewSwitchAllocator builds a switch allocator.
func NewSwitchAllocator(cfg SwitchAllocConfig) SwitchAllocator {
	a := newSwitchPart(cfg)
	build(a)
	return a
}

// switchPart is a switch allocator before its storage is laid out.
type switchPart interface {
	SwitchAllocator
	part
}

func newSwitchPart(cfg SwitchAllocConfig) switchPart {
	if cfg.Precomputed {
		return newPrecomputedSwitch(cfg)
	}
	return newSwitchAllocator(cfg)
}

func newSwitchAllocator(cfg SwitchAllocConfig) *switchAllocator {
	if cfg.Ports <= 0 || cfg.VCs <= 0 {
		panic("core: Ports and VCs must be positive")
	}
	a := &switchAllocator{
		cfg:       cfg,
		speculate: cfg.SpecMode != SpecNone,
		grants:    make([]SwitchGrant, cfg.Ports),
		accepted:  make([]bool, cfg.Ports),
		prev:      make([]SwitchRequest, cfg.Ports*cfg.VCs),
	}
	props := make([]swProposal, 2*cfg.Ports)
	a.nonspec = newSwEngine(cfg, false, props[:cfg.Ports:cfg.Ports])
	if a.speculate {
		a.spec = newSwEngine(cfg, true, props[cfg.Ports:])
	}
	return a
}

type switchAllocator struct {
	cfg       SwitchAllocConfig
	speculate bool
	nonspec   swEngine
	spec      swEngine // unused unless speculate
	grants    []SwitchGrant

	// Grant conflict-summary vectors for the conventional masking scheme
	// (Fig. 9a); laid out under SpecGnt only. The pessimistic scheme's
	// per-port request summaries (Fig. 9b) come from the nonspec engine's
	// cached request state.
	nsGntIn, nsGntOut *bitvec.Vec
	accepted          []bool
	// prev holds the last-seen value of every request entry, so an
	// incremental resync can subtract the old entry's contribution from the
	// engines' cached counts before adding the new one. portOf/vcOf decode
	// a request index without the divides the hot resync path would
	// otherwise pay once per engine.
	prev   []SwitchRequest
	portOf []int32
	vcOf   []int32
	stats  SwitchAllocStats
}

func (a *switchAllocator) layout(s slabs) slabs {
	p, n := a.cfg.Ports, a.cfg.Ports*a.cfg.VCs
	a.portOf = s.i32.Take(n)
	a.vcOf = s.i32.Take(n)
	if a.cfg.SpecMode == SpecGnt {
		a.nsGntIn = s.Vec(p)
		a.nsGntOut = s.Vec(p)
	}
	a.nonspec.layout(&s)
	if a.speculate {
		a.spec.layout(&s)
	}
	return s
}

func (a *switchAllocator) fill() {
	for i := range a.portOf {
		a.portOf[i] = int32(i / a.cfg.VCs)
		a.vcOf[i] = int32(i % a.cfg.VCs)
	}
}

func (a *switchAllocator) Ports() int { return a.cfg.Ports }
func (a *switchAllocator) VCs() int   { return a.cfg.VCs }

// Name is assembled on demand (see vcAllocator.Name).
func (a *switchAllocator) Name() string {
	name := a.cfg.Arch.String()
	if a.cfg.Arch != alloc.Wavefront {
		name += "/" + a.cfg.ArbKind.String()
	} else {
		name += "/rr"
	}
	return name + "+" + a.cfg.SpecMode.String()
}

func (a *switchAllocator) Reset() {
	a.nonspec.reset()
	if a.speculate {
		a.spec.reset()
	}
	a.stats = SwitchAllocStats{}
}

func (a *switchAllocator) Stats() SwitchAllocStats { return a.stats }

// SkipIdle implements alloc.IdleSkipper: on a request-free cycle the only
// state change in Allocate is the wavefront port allocators' diagonal
// rotation (arbiters commit only on accepted proposals), so replay exactly
// that into each engine's wavefront block.
func (a *switchAllocator) SkipIdle(idleCycles int64) {
	if s, ok := a.nonspec.wf.(alloc.IdleSkipper); ok {
		s.SkipIdle(idleCycles)
	}
	if a.speculate {
		if s, ok := a.spec.wf.(alloc.IdleSkipper); ok {
			s.SkipIdle(idleCycles)
		}
	}
}

func (a *switchAllocator) Allocate(reqs []SwitchRequest) []SwitchGrant {
	p, v := a.cfg.Ports, a.cfg.VCs
	if len(reqs) != p*v {
		panic(fmt.Sprintf("core: %d switch requests, want %d", len(reqs), p*v))
	}
	// The dense entry point sees a fresh matrix as often as not (the quality
	// harness always, a DenseRequests router whenever traffic moves), so it
	// rebuilds the engines' cached request state from reqs in one pass
	// instead of diffing every entry against prev.
	a.nonspec.clearRequests()
	if a.speculate {
		a.spec.clearRequests()
	}
	i := 0
	for port := 0; port < p; port++ {
		for vc := 0; vc < v; vc, i = vc+1, i+1 {
			if r := reqs[i]; !r.Active {
				continue
			} else if !r.Spec {
				a.nonspec.add(port, vc, r.OutPort)
			} else if a.speculate {
				a.spec.add(port, vc, r.OutPort)
			}
		}
	}
	copy(a.prev, reqs)
	return a.run(reqs)
}

// AllocateMasked implements MaskedSwitchAllocator.
func (a *switchAllocator) AllocateMasked(reqs []SwitchRequest, changed *bitvec.Vec) []SwitchGrant {
	p, v := a.cfg.Ports, a.cfg.VCs
	if len(reqs) != p*v {
		panic(fmt.Sprintf("core: %d switch requests, want %d", len(reqs), p*v))
	}
	for wi, w := range changed.Words() {
		for base := wi * 64; w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			a.note(i, reqs[i])
		}
	}
	return a.run(reqs)
}

// note folds one (possibly unchanged) request entry into the engines'
// cached request state.
func (a *switchAllocator) note(i int, nw SwitchRequest) {
	old := a.prev[i]
	if old == nw {
		return
	}
	port, vc := int(a.portOf[i]), int(a.vcOf[i])
	a.nonspec.noteChange(port, vc, old, nw)
	if a.speculate {
		a.spec.noteChange(port, vc, old, nw)
	}
	a.prev[i] = nw
}

// run performs one allocation cycle from the engines' cached request state,
// which note has already synchronized with reqs.
func (a *switchAllocator) run(reqs []SwitchRequest) []SwitchGrant {
	// Scan-and-clear: grants are sparse (at most one per input port, and
	// most ports grant nothing on most cycles), so skipping the store for
	// entries already at the no-grant value beats rewriting all of them.
	// The zero value's OutPort is 0, so first use also clears correctly.
	for i := range a.grants {
		if a.grants[i].OutPort >= 0 {
			a.grants[i] = SwitchGrant{VC: -1, OutPort: -1}
		}
	}

	// Non-speculative sub-allocator.
	nsProps := a.nonspec.propose(reqs)
	if !a.speculate {
		for port, prop := range nsProps {
			a.accepted[port] = prop.outPort >= 0
			if prop.outPort >= 0 {
				a.grants[port] = SwitchGrant{VC: prop.vc, OutPort: prop.outPort}
			}
		}
		a.nonspec.commit(a.accepted)
		return a.grants
	}
	// The nsGnt vectors feed only the SpecGnt mask; SpecReq reads the
	// nonspec engine's cached request summaries instead, so skip their
	// per-cycle maintenance there.
	gnt := a.cfg.SpecMode == SpecGnt
	if gnt {
		a.nsGntIn.Reset()
		a.nsGntOut.Reset()
	}
	for port, prop := range nsProps {
		a.accepted[port] = prop.outPort >= 0
		if prop.outPort >= 0 {
			a.grants[port] = SwitchGrant{VC: prop.vc, OutPort: prop.outPort}
			if gnt {
				a.nsGntIn.Set(port)
				a.nsGntOut.Set(prop.outPort)
			}
		}
	}
	a.nonspec.commit(a.accepted)

	// Speculative sub-allocator plus masking (Fig. 9). The pessimistic
	// scheme's request summaries are read straight off the nonspec engine's
	// cache: portAny is the per-input-port request OR and outTot[o] > 0 the
	// per-output-port one.
	spProps := a.spec.propose(reqs)
	for port, prop := range spProps {
		ok := prop.outPort >= 0
		if ok {
			a.stats.SpecProposals++
			switch a.cfg.SpecMode {
			case SpecGnt:
				ok = !a.nsGntIn.Get(port) && !a.nsGntOut.Get(prop.outPort)
			case SpecReq:
				ok = !a.nonspec.portAny.Get(port) && a.nonspec.outTot[prop.outPort] == 0
			}
			if !ok {
				a.stats.SpecMasked++
			} else {
				a.stats.SpecGranted++
			}
		}
		a.accepted[port] = ok
		if ok {
			a.grants[port] = SwitchGrant{VC: prop.vc, OutPort: prop.outPort, Spec: true}
		}
	}
	a.spec.commit(a.accepted)
	return a.grants
}

// swProposal is one input port's tentative grant before speculation masking.
type swProposal struct {
	vc, outPort int // -1 if none
}

// swEngine is a single switch-allocation datapath (Fig. 8) handling either
// the speculative or the non-speculative request class. Priority state only
// advances on commit, so masked speculative grants do not consume fairness
// slots.
//
// The engine keeps derived request state cached across cycles — per-port VC
// masks, per-(input, output) request counts and the port-request matrix —
// maintained incrementally by noteChange, so a propose pass touches only
// ports that actually hold requests and never rescans the request slice.
type swEngine struct {
	cfg    SwitchAllocConfig
	spec   bool            // which request class this engine serves
	vcArb  arbiter.Bank    // per input port, V wide
	outArb arbiter.Bank    // per output port, P wide (separable archs)
	wf     alloc.Allocator // wavefront port allocator

	// Cached request state, synchronized by noteChange.
	reqMask []bitvec.Vec  // per input port, V wide: VCs with matching requests
	portAny *bitvec.Vec   // P wide: input ports with any matching request
	cnt     []int32       // P·P: matching requests per (input port, output port)
	outTot  []int32       // per output port: total matching requests
	count   int           // total matching requests
	portReq bitvec.Matrix // P×P port-request matrix (with wf)
	colReq  []bitvec.Vec  // per output port, P wide: requesting inputs (sep_of)

	props   []swProposal
	vcReq   *bitvec.Vec  // V wide scratch
	fwd     []bitvec.Vec // per output port, P wide (sep_if stage 2)
	fwdAny  *bitvec.Vec  // output ports with a forwarded pick (sep_if)
	offered []bitvec.Vec // per input port, P wide (sep_of stage 2)
	offAny  *bitvec.Vec  // input ports with at least one offer (sep_of)
	picks   []int        // per input port, VC pick (sep_if)
}

func newSwEngine(cfg SwitchAllocConfig, spec bool, props []swProposal) swEngine {
	e := swEngine{cfg: cfg, spec: spec, props: props}
	switch cfg.Arch {
	case alloc.SepIF, alloc.SepOF:
	case alloc.Wavefront:
		e.wf = alloc.NewWavefront(cfg.Ports, cfg.Ports)
	case alloc.Maximum:
		// Upper-bound configuration (§2.3): a maximum-size port matching
		// with the wavefront datapath's VC pre-selection. Not realizable as
		// single-cycle hardware; used to bound achievable performance.
		e.wf = alloc.NewMaximum(cfg.Ports, cfg.Ports)
	default:
		panic(fmt.Sprintf("core: unsupported switch allocator arch %v", cfg.Arch))
	}
	return e
}

func (e *swEngine) layout(s *slabs) {
	p, v, k := e.cfg.Ports, e.cfg.VCs, e.cfg.ArbKind
	e.vcArb = s.Bank(k, p, v)
	e.reqMask = s.Vecs(p, v)
	e.vcReq = s.Vec(v)
	e.portAny = s.Vec(p)
	e.cnt = s.i32.Take(p * p)
	e.outTot = s.i32.Take(p)
	switch e.cfg.Arch {
	case alloc.SepIF:
		e.outArb = s.Bank(k, p, p)
		e.fwd = s.Vecs(p, p)
		e.fwdAny = s.Vec(p)
		e.picks = s.ints.Take(p)
	case alloc.SepOF:
		e.outArb = s.Bank(k, p, p)
		e.offered = s.Vecs(p, p)
		e.offAny = s.Vec(p)
		e.colReq = s.Vecs(p, p)
	default:
		e.portReq = s.Matrix(p, p)
	}
}

// noteChange updates the cached request state for request entry (port, vc),
// whose value changed from old to nw since the previous allocation cycle.
func (e *swEngine) noteChange(port, vc int, old, nw SwitchRequest) {
	om, nm := matches(old, e.spec), matches(nw, e.spec)
	if om == nm && (!om || old.OutPort == nw.OutPort) {
		return
	}
	p := e.cfg.Ports
	if om {
		e.count--
		e.outTot[old.OutPort]--
		c := &e.cnt[port*p+old.OutPort]
		if *c--; *c == 0 {
			if e.wf != nil {
				e.portReq.Row(port).Clear(old.OutPort)
			}
			if e.colReq != nil {
				e.colReq[old.OutPort].Clear(port)
			}
		}
	}
	if nm {
		e.count++
		e.outTot[nw.OutPort]++
		c := &e.cnt[port*p+nw.OutPort]
		if *c++; *c == 1 {
			if e.wf != nil {
				e.portReq.Row(port).Set(nw.OutPort)
			}
			if e.colReq != nil {
				e.colReq[nw.OutPort].Set(port)
			}
		}
	}
	if nm {
		e.reqMask[port].Set(vc)
		e.portAny.Set(port)
	} else {
		e.reqMask[port].Clear(vc)
		if !e.reqMask[port].Any() {
			e.portAny.Clear(port)
		}
	}
}

// add folds a matching request of input VC (port, vc) for output port out
// into request state emptied by clearRequests: the dense rebuild's half of
// noteChange, which keeps its own copy inline because it runs per changed
// entry on the masked path of every router step.
func (e *swEngine) add(port, vc, out int) {
	e.count++
	e.outTot[out]++
	c := &e.cnt[port*e.cfg.Ports+out]
	if *c++; *c == 1 {
		if e.wf != nil {
			e.portReq.Row(port).Set(out)
		}
		if e.colReq != nil {
			e.colReq[out].Set(port)
		}
	}
	e.reqMask[port].Set(vc)
	e.portAny.Set(port)
}

// clearRequests empties the cached request state.
func (e *swEngine) clearRequests() {
	for i := range e.reqMask {
		e.reqMask[i].Reset()
	}
	e.portAny.Reset()
	clear(e.cnt)
	clear(e.outTot)
	e.count = 0
	if e.wf != nil {
		e.portReq.Reset()
	}
	for i := range e.colReq {
		e.colReq[i].Reset()
	}
}

func (e *swEngine) reset() {
	e.vcArb.Reset()
	e.outArb.Reset()
	if e.wf != nil {
		e.wf.Reset()
	}
}

// matches reports whether request r belongs to this proposal pass.
func matches(r SwitchRequest, spec bool) bool { return r.Active && r.Spec == spec }

// propose computes tentative grants for this engine's request class without
// advancing any priority state.
func (e *swEngine) propose(reqs []SwitchRequest) []swProposal {
	// Scan-and-clear (see switchAllocator.run): only entries a previous
	// pass proposed into need restoring to the no-proposal value.
	for i := range e.props {
		if e.props[i].outPort >= 0 {
			e.props[i] = swProposal{vc: -1, outPort: -1}
		}
	}
	if e.count == 0 {
		// No matching requests: separable arbiters are untouched by an empty
		// pass, but the wavefront block still rotates its priority diagonal
		// (see SkipIdle), so it must run even on an empty matrix.
		if e.wf != nil {
			e.wf.Allocate(&e.portReq)
		}
		return e.props
	}
	switch e.cfg.Arch {
	case alloc.SepIF:
		e.proposeSepIF(reqs)
	case alloc.SepOF:
		e.proposeSepOF(reqs)
	case alloc.Wavefront, alloc.Maximum:
		e.proposeWavefront(reqs)
	}
	return e.props
}

// proposeSepIF implements Fig. 8(a): a V-input arbiter per input port picks
// the winning VC, whose single request is forwarded to a P-input arbiter at
// the output port. Only ports in portAny run stage 1, and only outputs that
// received a forwarded pick run stage 2; picks of ports that did not forward
// this cycle are stale and never read.
func (e *swEngine) proposeSepIF(reqs []SwitchRequest) {
	v := e.cfg.VCs
	// P <= 64 in practice, but iterate word-at-a-time generically; none of
	// the loop bodies mutate the vector word they are scanning (stage 1
	// sets fwdAny only after it was reset, and stage 2 only reads it).
	for wi, w := range e.fwdAny.Words() {
		for base := wi * 64; w != 0; w &= w - 1 {
			e.fwd[base+bits.TrailingZeros64(w)].Reset()
		}
	}
	e.fwdAny.Reset()
	for wi, w := range e.portAny.Words() {
		for base := wi * 64; w != 0; w &= w - 1 {
			port := base + bits.TrailingZeros64(w)
			pk := e.vcArb.Pick(port, &e.reqMask[port])
			if pk < 0 {
				continue
			}
			e.picks[port] = pk
			o := reqs[port*v+pk].OutPort
			e.fwd[o].Set(port)
			e.fwdAny.Set(o)
		}
	}
	for wi, w := range e.fwdAny.Words() {
		for base := wi * 64; w != 0; w &= w - 1 {
			o := base + bits.TrailingZeros64(w)
			winner := e.outArb.Pick(o, &e.fwd[o])
			if winner < 0 {
				continue
			}
			e.props[winner] = swProposal{vc: e.picks[winner], outPort: o}
		}
	}
}

// proposeSepOF implements Fig. 8(b): requests from all VCs are combined and
// forwarded; each output port picks an input port, then each input port
// arbitrates among its VCs that can use one of the granted outputs.
func (e *swEngine) proposeSepOF(reqs []SwitchRequest) {
	p, v := e.cfg.Ports, e.cfg.VCs
	for port := e.offAny.NextSet(0); port >= 0; port = e.offAny.NextSet(port + 1) {
		e.offered[port].Reset()
	}
	e.offAny.Reset()
	for o := 0; o < p; o++ {
		if e.outTot[o] == 0 {
			continue
		}
		winner := e.outArb.Pick(o, &e.colReq[o])
		if winner < 0 {
			continue
		}
		e.offered[winner].Set(o)
		e.offAny.Set(winner)
	}
	for port := e.offAny.NextSet(0); port >= 0; port = e.offAny.NextSet(port + 1) {
		// VC arbitration among VCs whose requested output was offered; the
		// winning VC's port select drives the crossbar (Fig. 8b).
		e.vcReq.Reset()
		for vc := e.reqMask[port].NextSet(0); vc >= 0; vc = e.reqMask[port].NextSet(vc + 1) {
			if e.offered[port].Get(reqs[port*v+vc].OutPort) {
				e.vcReq.Set(vc)
			}
		}
		w := e.vcArb.Pick(port, e.vcReq)
		if w < 0 {
			continue
		}
		e.props[port] = swProposal{vc: w, outPort: reqs[port*v+w].OutPort}
	}
}

// proposeWavefront implements Fig. 8(c): a P×P wavefront block over the
// cached port-request matrix, with per-input V-input arbiters selecting the
// winning VC for the granted output.
func (e *swEngine) proposeWavefront(reqs []SwitchRequest) {
	v := e.cfg.VCs
	g := e.wf.Allocate(&e.portReq)
	// Grants are a subset of requests, so only ports in portAny can hold one.
	for port := e.portAny.NextSet(0); port >= 0; port = e.portAny.NextSet(port + 1) {
		o := g.Row(port).NextSet(0)
		if o < 0 {
			continue
		}
		e.vcReq.Reset()
		for vc := e.reqMask[port].NextSet(0); vc >= 0; vc = e.reqMask[port].NextSet(vc + 1) {
			if reqs[port*v+vc].OutPort == o {
				e.vcReq.Set(vc)
			}
		}
		w := e.vcArb.Pick(port, e.vcReq)
		if w < 0 {
			continue
		}
		e.props[port] = swProposal{vc: w, outPort: o}
	}
}

// commit advances priority state for the input ports whose proposals were
// accepted end to end.
func (e *swEngine) commit(accepted []bool) {
	for port, ok := range accepted {
		if !ok {
			continue
		}
		prop := e.props[port]
		if prop.outPort < 0 {
			continue
		}
		e.vcArb.Update(port, prop.vc)
		if e.wf == nil {
			e.outArb.Update(prop.outPort, port)
		}
	}
}

// CheckSwitchGrants validates a switch allocation result: each granted VC
// must have an active request for the granted output port, no output port
// may be granted to two inputs, and speculative flags must be consistent
// with the requests. It returns an error describing the first violation.
func CheckSwitchGrants(p, v int, reqs []SwitchRequest, grants []SwitchGrant) error {
	if len(grants) != p {
		return fmt.Errorf("core: %d grants, want %d", len(grants), p)
	}
	// holder[o] is 1 + the input port granted output port o.
	var buf [64]int32
	holder := buf[:]
	if p > len(buf) {
		holder = make([]int32, p)
	}
	for port, g := range grants {
		if g.OutPort < 0 {
			if g.VC >= 0 {
				return fmt.Errorf("core: port %d has VC %d but no output", port, g.VC)
			}
			continue
		}
		if g.VC < 0 || g.VC >= v {
			return fmt.Errorf("core: port %d granted invalid VC %d", port, g.VC)
		}
		if g.OutPort >= p {
			return fmt.Errorf("core: port %d granted invalid output %d", port, g.OutPort)
		}
		r := reqs[port*v+g.VC]
		if !r.Active {
			return fmt.Errorf("core: port %d VC %d granted without request", port, g.VC)
		}
		if r.OutPort != g.OutPort {
			return fmt.Errorf("core: port %d VC %d granted output %d, requested %d",
				port, g.VC, g.OutPort, r.OutPort)
		}
		if r.Spec != g.Spec {
			return fmt.Errorf("core: port %d VC %d speculative flag mismatch", port, g.VC)
		}
		if prev := holder[g.OutPort]; prev != 0 {
			return fmt.Errorf("core: output %d granted to ports %d and %d", g.OutPort, prev-1, port)
		}
		holder[g.OutPort] = int32(port) + 1
	}
	return nil
}
