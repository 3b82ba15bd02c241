package core

import (
	"fmt"
	"math/bits"

	"repro/internal/alloc"
	"repro/internal/arbiter"
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

// NewSwitchAllocator builds a switch allocator.
func NewSwitchAllocator(cfg SwitchAllocConfig) *SwitchAllocator {
	a := newSwitchAllocator(cfg)
	build(a)
	return a
}

// newSwitchAllocator returns a switch allocator before its storage is laid
// out.
func newSwitchAllocator(cfg SwitchAllocConfig) *SwitchAllocator {
	if cfg.Ports <= 0 || cfg.VCs <= 0 {
		panic("core: Ports and VCs must be positive")
	}
	if cfg.Ports > 64 || cfg.VCs > 64 {
		panic(fmt.Sprintf("core: switch allocator with %d ports and %d VCs per port: "+
			"at most 64 of each, every port set and VC set is one machine word", cfg.Ports, cfg.VCs))
	}
	a := &SwitchAllocator{
		cfg:       cfg,
		speculate: cfg.SpecMode != SpecNone,
		grants:    make([]SwitchGrant, cfg.Ports),
	}
	for i := range a.grants {
		a.grants[i] = SwitchGrant{VC: -1, OutPort: -1}
	}
	props := make([]swProposal, 2*cfg.Ports)
	a.nonspec = newSwEngine(cfg, false, props[:cfg.Ports:cfg.Ports])
	if a.speculate {
		a.spec = newSwEngine(cfg, true, props[cfg.Ports:])
	}
	return a
}

// SwitchAllocator schedules buffered flits onto crossbar time slots subject
// to the switch allocation constraints: at most one VC per input port and at
// most one input port per output port receive grants (paper §5).
//
// Like VCAllocator it has two entry points over one request slice, indexed by
// global input VC p·V+v and of length P·V: Allocate derives its request state
// from the whole slice, while Push+Run let the caller push the old and the
// new value of every entry it rewrites, and Run then only allocates. The two
// may be mixed freely; after an Allocate the caller pushes only what it
// rewrites from then on. Grants and counters are bit-identical to Allocate's
// on the same slice.
//
// The request slice is a read-only input owned by the caller, who may reuse
// the same backing array — with only changed entries rewritten — on every
// call (the router's change-driven request cache does exactly that). The
// allocator never mutates it and keeps no reference past the call's return.
type SwitchAllocator struct {
	cfg       SwitchAllocConfig
	speculate bool
	nonspec   swEngine
	spec      swEngine // unused unless speculate
	grants    []SwitchGrant
	granted   uint64 // input ports whose grants entry is not the no-grant value
	stats     SwitchAllocStats
}

func (a *SwitchAllocator) layout(s slabs) slabs {
	a.nonspec.layout(&s)
	if a.speculate {
		a.spec.layout(&s)
	}
	return s
}

// fill has nothing to set: the engines' storage starts empty.
func (a *SwitchAllocator) fill() {}

// Name returns the paper-style identifier, e.g. "sep_if/rr+spec_req",
// assembled on demand (see VCAllocator.Name).
func (a *SwitchAllocator) Name() string {
	name := a.cfg.Arch.String()
	if a.cfg.Arch != alloc.Wavefront {
		name += "/" + a.cfg.ArbKind.String()
	} else {
		name += "/rr"
	}
	return name + "+" + a.cfg.SpecMode.String()
}

// Reset restores initial arbitration state and clears Stats.
func (a *SwitchAllocator) Reset() {
	a.nonspec.reset()
	if a.speculate {
		a.spec.reset()
	}
	a.stats = SwitchAllocStats{}
}

// Stats reports speculation outcome counters.
func (a *SwitchAllocator) Stats() SwitchAllocStats { return a.stats }

// SkipIdle advances the allocator as idleCycles calls without a single
// active request would. On a request-free cycle the only state change in
// Allocate is the rotation of the wavefront blocks' priority diagonal
// (arbiters commit only on accepted proposals), so replay exactly that. The
// separable datapaths never read the diagonal.
func (a *SwitchAllocator) SkipIdle(idleCycles int64) {
	a.nonspec.rotate(idleCycles)
	if a.speculate {
		a.spec.rotate(idleCycles)
	}
}

// Allocate computes the crossbar schedule for one cycle. The result, indexed
// by input port, is owned by the allocator and valid until the next call.
func (a *SwitchAllocator) Allocate(reqs []SwitchRequest) []SwitchGrant {
	p, v := a.cfg.Ports, a.cfg.VCs
	a.checkLen(reqs)
	// The dense entry point sees a fresh matrix as often as not (the quality
	// harness always, a reference-schedule router whenever traffic moves), so
	// it rebuilds the engines' cached request state from reqs in one pass.
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
	return a.run(reqs)
}

// Push records that input VC (port, vc)'s entry changed from old — what the
// allocator last saw of it, pushed or handed to Allocate — to nw. Pushing an
// unchanged entry (old == nw) is harmless.
func (a *SwitchAllocator) Push(port, vc int, old, nw SwitchRequest) {
	if old == nw {
		return
	}
	a.nonspec.noteChange(port, vc, old, nw)
	if a.speculate {
		a.spec.noteChange(port, vc, old, nw)
	}
}

// Run is Allocate over the pushed state.
func (a *SwitchAllocator) Run(reqs []SwitchRequest) []SwitchGrant {
	a.checkLen(reqs)
	return a.run(reqs)
}

func (a *SwitchAllocator) checkLen(reqs []SwitchRequest) {
	if n := a.cfg.Ports * a.cfg.VCs; len(reqs) != n {
		panic(fmt.Sprintf("core: %d switch requests, want %d", len(reqs), n))
	}
}

// run performs one allocation cycle from the engines' cached request state,
// which Allocate or Push has already synchronized with reqs.
func (a *SwitchAllocator) run(reqs []SwitchRequest) []SwitchGrant {
	// Grants are sparse (at most one per input port, and most ports grant
	// nothing on most cycles): restore only the entries the previous cycle
	// wrote.
	for w := a.granted; w != 0; w &= w - 1 {
		a.grants[bits.TrailingZeros64(w)] = SwitchGrant{VC: -1, OutPort: -1}
	}

	// Non-speculative sub-allocator: every proposal is a grant.
	ns := a.nonspec.propose(reqs)
	var nsOut uint64 // output ports granted non-speculatively
	for w := ns; w != 0; w &= w - 1 {
		port := bits.TrailingZeros64(w)
		prop := a.nonspec.props[port]
		a.grants[port] = SwitchGrant{VC: prop.vc, OutPort: prop.outPort}
		nsOut |= 1 << uint(prop.outPort)
	}
	a.nonspec.commit(ns)
	a.granted = ns
	if !a.speculate {
		return a.grants
	}

	// Speculative sub-allocator plus masking (Fig. 9): a proposal is
	// discarded when its input or output port is in use, by a
	// non-speculative grant under the conventional scheme and already by a
	// non-speculative request under the pessimistic one, whose summaries are
	// the nonspec engine's cached request state.
	busyIn, busyOut := ns, nsOut
	if a.cfg.SpecMode == SpecReq {
		busyIn, busyOut = a.nonspec.portAny, a.nonspec.outAny
	}
	sp := a.spec.propose(reqs)
	var accepted uint64
	for w := sp; w != 0; w &= w - 1 {
		port := bits.TrailingZeros64(w)
		prop := a.spec.props[port]
		if (busyIn>>uint(port)|busyOut>>uint(prop.outPort))&1 != 0 {
			continue
		}
		accepted |= 1 << uint(port)
		a.grants[port] = SwitchGrant{VC: prop.vc, OutPort: prop.outPort, Spec: true}
	}
	a.stats.SpecProposals += int64(bits.OnesCount64(sp))
	a.stats.SpecMasked += int64(bits.OnesCount64(sp &^ accepted))
	a.stats.SpecGranted += int64(bits.OnesCount64(accepted))
	a.spec.commit(accepted)
	a.granted |= accepted
	return a.grants
}

// swProposal is one input port's tentative grant before speculation masking.
type swProposal struct {
	vc, outPort int
}

// swEngine is a single switch-allocation datapath (Fig. 8) handling either
// the speculative or the non-speculative request class. Priority state only
// advances on commit, so masked speculative grants do not consume fairness
// slots.
//
// The engine keeps derived request state cached across cycles, maintained
// incrementally by add and noteChange, so a propose pass touches only ports
// that actually hold requests and never rescans the request slice. A router
// has at most 64 ports and 64 VCs per port (the paper's largest: 10 and 16),
// so every set of ports or VCs is one machine word.
type swEngine struct {
	cfg    SwitchAllocConfig
	spec   bool         // which request class this engine serves
	vcArb  arbiter.Bank // per input port, V wide
	outArb arbiter.Bank // per output port, P wide (separable archs)
	prio   int          // wavefront: the diagonal with top priority this cycle

	// Cached request state, written by add and noteChange only. A request
	// of input VC (in, vc) for output port out is bit vc of vcs[in·P+out];
	// everything else is a summary of vcs.
	vcs     []uint64 // per (input, output) port pair: the input's VCs requesting the output
	reqMask []uint64 // per input port: VCs with a request
	colReq  []uint64 // per output port: input ports requesting it
	diag    []uint64 // wavefront only, per diagonal d: input ports in requesting output (d-in) mod P
	portAny uint64   // input ports with a request
	outAny  uint64   // output ports with a request

	// props[port] is meaningful for the ports in the set propose returned.
	props []swProposal
	stage []uint64 // per port: what a separable pass's first stage hands its second
}

func newSwEngine(cfg SwitchAllocConfig, spec bool, props []swProposal) swEngine {
	switch cfg.Arch {
	case alloc.SepIF, alloc.SepOF, alloc.Wavefront:
	default:
		panic(fmt.Sprintf("core: unsupported switch allocator arch %v", cfg.Arch))
	}
	return swEngine{cfg: cfg, spec: spec, props: props}
}

func (e *swEngine) layout(s *slabs) {
	p, v, k := e.cfg.Ports, e.cfg.VCs, e.cfg.ArbKind
	e.vcArb = s.Bank(k, p, v)
	e.vcs = s.Words(p * p)
	e.reqMask = s.Words(p)
	e.colReq = s.Words(p)
	switch e.cfg.Arch {
	case alloc.SepIF, alloc.SepOF:
		e.outArb = s.Bank(k, p, p)
		e.stage = s.Words(p)
	case alloc.Wavefront:
		e.diag = s.Words(p)
	}
}

// add folds a request of this engine's class, of input VC (port, vc) for
// output port out, into the cached request state. The VC must not hold one
// already.
func (e *swEngine) add(port, vc, out int) {
	p := e.cfg.Ports
	if uint(out) >= uint(p) {
		panic(fmt.Sprintf("core: input VC (%d, %d) requests output port %d, want [0,%d)", port, vc, out, p))
	}
	if m := &e.vcs[port*p+out]; *m == 0 {
		*m = 1 << uint(vc)
		e.colReq[out] |= 1 << uint(port)
		e.outAny |= 1 << uint(out)
		if e.diag != nil {
			e.diag[diagonal(port, out, p)] |= 1 << uint(port)
		}
	} else {
		*m |= 1 << uint(vc)
	}
	e.reqMask[port] |= 1 << uint(vc)
	e.portAny |= 1 << uint(port)
}

// remove undoes add.
func (e *swEngine) remove(port, vc, out int) {
	p := e.cfg.Ports
	if m := &e.vcs[port*p+out]; *m == 1<<uint(vc) {
		*m = 0
		if e.colReq[out] &^= 1 << uint(port); e.colReq[out] == 0 {
			e.outAny &^= 1 << uint(out)
		}
		if e.diag != nil {
			e.diag[diagonal(port, out, p)] &^= 1 << uint(port)
		}
	} else {
		*m &^= 1 << uint(vc)
	}
	if e.reqMask[port] &^= 1 << uint(vc); e.reqMask[port] == 0 {
		e.portAny &^= 1 << uint(port)
	}
}

// diagonal returns the wavefront diagonal (in + out) mod p of a cell.
func diagonal(in, out, p int) int {
	if d := in + out; d < p {
		return d
	}
	return in + out - p
}

// noteChange updates the cached request state for request entry (port, vc),
// whose value changed from old to nw since the previous allocation cycle.
func (e *swEngine) noteChange(port, vc int, old, nw SwitchRequest) {
	om, nm := matches(old, e.spec), matches(nw, e.spec)
	if om == nm && (!om || old.OutPort == nw.OutPort) {
		return
	}
	if om {
		e.remove(port, vc, old.OutPort)
	}
	if nm {
		e.add(port, vc, nw.OutPort)
	}
}

// clearRequests empties the cached request state.
func (e *swEngine) clearRequests() {
	clear(e.vcs)
	clear(e.reqMask)
	clear(e.colReq)
	clear(e.diag)
	e.portAny, e.outAny = 0, 0
}

func (e *swEngine) reset() {
	e.vcArb.Reset()
	e.outArb.Reset()
	e.prio = 0
}

// rotate advances the priority diagonal by k cycles.
func (e *swEngine) rotate(k int64) {
	e.prio = int((int64(e.prio) + k) % int64(e.cfg.Ports))
}

// matches reports whether request r belongs to this proposal pass.
func matches(r SwitchRequest, spec bool) bool { return r.Active && r.Spec == spec }

// propose computes tentative grants for this engine's request class from the
// cached request state, without advancing any arbiter, and returns the set
// of input ports that hold one in props.
func (e *swEngine) propose(reqs []SwitchRequest) uint64 {
	switch e.cfg.Arch {
	case alloc.SepIF:
		return e.proposeSepIF(reqs)
	case alloc.SepOF:
		return e.proposeSepOF(reqs)
	default:
		return e.proposeWavefront()
	}
}

// proposeSepIF implements Fig. 8(a): a V-input arbiter per input port picks
// the winning VC, whose single request is forwarded to a P-input arbiter at
// the output port. Only ports in portAny run stage 1, and only outputs that
// received a forwarded pick run stage 2.
func (e *swEngine) proposeSepIF(reqs []SwitchRequest) uint64 {
	v := e.cfg.VCs
	fwd := e.stage // per output port: input ports whose pick wants it
	var fwdAny uint64
	for w := e.portAny; w != 0; w &= w - 1 {
		port := bits.TrailingZeros64(w)
		pk := e.vcArb.PickWord(port, e.reqMask[port])
		if pk < 0 {
			continue
		}
		o := reqs[port*v+pk].OutPort
		e.props[port] = swProposal{vc: pk, outPort: o}
		if fwdAny>>uint(o)&1 == 0 {
			fwdAny |= 1 << uint(o)
			fwd[o] = 0
		}
		fwd[o] |= 1 << uint(port)
	}
	var winners uint64
	for w := fwdAny; w != 0; w &= w - 1 {
		o := bits.TrailingZeros64(w)
		if winner := e.outArb.PickWord(o, fwd[o]); winner >= 0 {
			winners |= 1 << uint(winner)
		}
	}
	return winners
}

// proposeSepOF implements Fig. 8(b): requests from all VCs are combined and
// forwarded; each output port picks an input port, then each input port
// arbitrates among its VCs that can use one of the granted outputs. The
// winning VC's port select drives the crossbar.
func (e *swEngine) proposeSepOF(reqs []SwitchRequest) uint64 {
	p, v := e.cfg.Ports, e.cfg.VCs
	offered := e.stage // per input port: output ports that picked it
	var offAny uint64
	for w := e.outAny; w != 0; w &= w - 1 {
		o := bits.TrailingZeros64(w)
		winner := e.outArb.PickWord(o, e.colReq[o])
		if winner < 0 {
			continue
		}
		if offAny>>uint(winner)&1 == 0 {
			offAny |= 1 << uint(winner)
			offered[winner] = 0
		}
		offered[winner] |= 1 << uint(o)
	}
	winners := offAny
	for w := offAny; w != 0; w &= w - 1 {
		port := bits.TrailingZeros64(w)
		var vcReq uint64
		for ow := offered[port]; ow != 0; ow &= ow - 1 {
			vcReq |= e.vcs[port*p+bits.TrailingZeros64(ow)]
		}
		vc := e.vcArb.PickWord(port, vcReq)
		if vc < 0 {
			winners &^= 1 << uint(port)
			continue
		}
		e.props[port] = swProposal{vc: vc, outPort: reqs[port*v+vc].OutPort}
	}
	return winners
}

// proposeWavefront implements Fig. 8(c): a P×P wavefront block grants port
// requests diagonal by diagonal from the priority diagonal on, a grant
// taking its row and its column out of the later diagonals (the cells of one
// diagonal share neither), and the granted input port's V-input arbiter
// picks among its VCs requesting the granted output. The priority diagonal
// moves on every cycle, requests or not.
func (e *swEngine) proposeWavefront() uint64 {
	p := e.cfg.Ports
	rowFree, colFree := e.portAny, ^uint64(0)
	d := e.prio
	for k := 0; k < p && rowFree != 0; k++ {
		for w := e.diag[d] & rowFree; w != 0; w &= w - 1 {
			in := bits.TrailingZeros64(w)
			out := d - in
			if out < 0 {
				out += p
			}
			if colFree>>uint(out)&1 == 0 {
				continue
			}
			vc := e.vcArb.PickWord(in, e.vcs[in*p+out])
			if vc < 0 {
				continue
			}
			rowFree &^= 1 << uint(in)
			colFree &^= 1 << uint(out)
			e.props[in] = swProposal{vc: vc, outPort: out}
		}
		if d++; d == p {
			d = 0
		}
	}
	if e.prio++; e.prio == p {
		e.prio = 0
	}
	return e.portAny &^ rowFree
}

// commit advances priority state for the input ports whose proposals were
// accepted end to end.
func (e *swEngine) commit(accepted uint64) {
	separable := e.cfg.Arch == alloc.SepIF || e.cfg.Arch == alloc.SepOF
	for w := accepted; w != 0; w &= w - 1 {
		port := bits.TrailingZeros64(w)
		prop := e.props[port]
		e.vcArb.Update(port, prop.vc)
		if separable {
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
