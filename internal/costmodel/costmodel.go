// Package costmodel estimates critical-path delay, cell area and dynamic
// power for the allocator implementations of Becker & Dally (SC '09).
//
// It substitutes for the paper's synthesis flow (Synopsys Design Compiler
// with a commercial 45 nm low-power library at worst-case PVT). The model is
// structural: for every allocator variant it derives a gate-equivalent (GE)
// count and a logic-depth expression from the same block structure the
// functional models in internal/core implement (Figs. 1–3, 8, 9), then maps
//
//	delay  = logic depth × per-level delay (+ fanout terms)
//	area   = GE × area per GE
//	power  = activity-weighted switching energy × GE / cycle time
//
// Absolute numbers are calibrated to a plausible 45 nm-class low-power
// process, not to the authors' proprietary library; the comparisons the
// paper draws (orderings, scaling trends, sparse-VC and speculation savings)
// derive from the structural terms and are preserved.
//
// Like the paper's flow, the model enforces a synthesis complexity budget:
// design points whose flattened netlist exceeds the budget report
// Synthesized=false, mirroring the configurations for which Design Compiler
// ran out of memory (§4.3.1).
package costmodel

import (
	"fmt"
	"math"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/core"
)

// Tech holds technology and flow parameters.
type Tech struct {
	// LevelDelayNS is the delay of one typical logic level (≈FO4) in ns at
	// worst-case PVT.
	LevelDelayNS float64
	// FanoutDelayNS is the additional delay per log2 of fanout for
	// high-fanout nets (request broadcast, diagonal select).
	FanoutDelayNS float64
	// AreaPerGE is cell area in µm² per gate equivalent (NAND2 = 1 GE).
	AreaPerGE float64
	// EnergyPerGE is the switching energy per gate equivalent per cycle at
	// the reference activity factor, expressed in mW·ns (pJ).
	EnergyPerGE float64
	// Activity is the input activity factor applied during power analysis
	// (the paper uses 0.5).
	Activity float64
	// SynthesisBudgetGE is the largest flattened netlist the flow can
	// process; larger designs fail to synthesize.
	SynthesisBudgetGE float64
	// WavefrontTileFactor scales the wavefront array's per-tile delay
	// relative to a plain logic level (wave propagation crosses pass-style
	// tiles faster than full standard-cell levels).
	WavefrontTileFactor float64
}

// Default45nm returns the technology model used throughout the repository:
// a 45 nm-class low-power library at 0.9 V / 125 °C worst-case corner.
func Default45nm() Tech {
	return Tech{
		LevelDelayNS:        0.045,
		FanoutDelayNS:       0.030,
		AreaPerGE:           0.80,
		EnergyPerGE:         0.0004,
		Activity:            0.5,
		SynthesisBudgetGE:   250_000,
		WavefrontTileFactor: 0.68,
	}
}

// Estimate is the synthesis result for one design point.
type Estimate struct {
	// Synthesized reports whether the design fit the flow's complexity
	// budget. When false, the remaining fields are zero and FailReason
	// explains the failure, mirroring the paper's missing data points.
	Synthesized bool
	// FailReason is non-empty when Synthesized is false.
	FailReason string
	// DelayNS is the minimum cycle time in ns.
	DelayNS float64
	// AreaUM2 is the cell area in µm².
	AreaUM2 float64
	// PowerMW is the average dynamic power in mW at the minimum cycle time.
	PowerMW float64
	// GateEquivalents is the flattened netlist size driving area and the
	// synthesis budget.
	GateEquivalents float64
	// Components breaks GateEquivalents down by structural block (input
	// arbiters, output arbiters, wavefront array, glue, ...).
	Components []Component
}

// Component is one structural block's contribution to an estimate.
type Component struct {
	// Name identifies the block ("input arbiters", "wavefront array", ...).
	Name string
	// GE is the block's gate-equivalent count.
	GE float64
	// OnCriticalPath reports whether the block contributes to DelayNS.
	OnCriticalPath bool
}

func (t Tech) finish(ge, delay float64, what string, components ...Component) Estimate {
	if ge > t.SynthesisBudgetGE {
		return Estimate{
			Synthesized: false,
			FailReason: fmt.Sprintf("costmodel: %s requires %.0f GE, exceeding the %.0f GE synthesis budget",
				what, ge, t.SynthesisBudgetGE),
		}
	}
	return Estimate{
		Synthesized:     true,
		DelayNS:         delay,
		AreaUM2:         ge * t.AreaPerGE,
		PowerMW:         t.Activity * t.EnergyPerGE * ge / delay,
		GateEquivalents: ge,
		Components:      components,
	}
}

func log2ceil(n int) float64 {
	if n <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(n)))
}

// --- Primitive blocks -------------------------------------------------------

// ORTreeDelay returns the depth-based delay of an n-input OR reduction.
func (t Tech) ORTreeDelay(n int) float64 { return log2ceil(n) * t.LevelDelayNS }

// ORTreeGE returns the gate count of an n-input OR reduction.
func (t Tech) ORTreeGE(n int) float64 {
	if n <= 1 {
		return 0
	}
	return float64(n - 1)
}

// ArbiterGE returns the gate-equivalent count of an n-input arbiter of the
// given kind. Round-robin arbiters comprise a rotating pointer, thermometer
// mask and two priority-encode chains (linear in n). Matrix arbiters hold a
// triangular matrix of priority flip-flops plus per-output wide AND terms
// (quadratic in n).
func (t Tech) ArbiterGE(k arbiter.Kind, n int) float64 {
	if n <= 1 {
		return 2 // request latch / pass-through
	}
	switch k {
	case arbiter.RoundRobin:
		return 6*float64(n) + 8
	case arbiter.Matrix:
		nf := float64(n)
		return 2*nf*nf + 4*nf
	default:
		panic(fmt.Sprintf("costmodel: unknown arbiter kind %v", k))
	}
}

// ArbiterDelay returns the critical-path delay of an n-input arbiter.
// Matrix arbiters resolve in a single wide-AND stage and are slightly
// faster than round-robin arbiters, whose masked/unmasked priority encoders
// add a second logarithmic chain (paper §4.3.1).
func (t Tech) ArbiterDelay(k arbiter.Kind, n int) float64 {
	if n <= 1 {
		return t.LevelDelayNS
	}
	switch k {
	case arbiter.RoundRobin:
		return (2*log2ceil(n) + 5) * t.LevelDelayNS
	case arbiter.Matrix:
		return (log2ceil(n) + 4) * t.LevelDelayNS
	default:
		panic(fmt.Sprintf("costmodel: unknown arbiter kind %v", k))
	}
}

// TreeArbiterGE returns the gate count of a (groups × width)-input tree
// arbiter: one width-input leaf arbiter per group, per-group any-request OR
// reductions, a groups-input root arbiter, and the combining AND stage.
func (t Tech) TreeArbiterGE(k arbiter.Kind, groups, width int) float64 {
	return float64(groups)*t.ArbiterGE(k, width) +
		float64(groups)*t.ORTreeGE(width) +
		t.ArbiterGE(k, groups) +
		float64(groups*width) // combine ANDs
}

// TreeArbiterDelay returns the tree arbiter's critical path: the root
// arbiter consumes per-group OR reductions in parallel with the leaf
// arbiters, followed by one combining level.
func (t Tech) TreeArbiterDelay(k arbiter.Kind, groups, width int) float64 {
	leaf := t.ArbiterDelay(k, width)
	root := t.ORTreeDelay(width) + t.ArbiterDelay(k, groups)
	return math.Max(leaf, root) + t.LevelDelayNS
}

// WavefrontGE returns the gate count of an n-input wavefront allocator
// synthesized with the loop-free diagonal-replication strategy of §2.2: n
// copies of the n×n tile array plus the per-output n:1 selection muxes.
// The cubic growth is what exhausts the synthesis budget at large sizes.
func (t Tech) WavefrontGE(n int) float64 {
	nf := float64(n)
	const tileGE = 5
	return nf*nf*nf*tileGE + // replicated arrays
		nf*nf*nf // n² grant bits × n:1 output muxes (n GE each)
}

// WavefrontDelay returns the wavefront allocator's critical path: the wave
// traverses up to ~2n tiles within the active diagonal's array, plus the
// priority-diagonal fanout and the output mux.
func (t Tech) WavefrontDelay(n int) float64 {
	// The wave propagates through the active diagonal's array with
	// approximately linear delay (§2.2); the effective slope is well below
	// one full logic level per tile because grant kills ripple through
	// single-gate x/y paths.
	wave := (0.8*float64(n) + 6) * t.LevelDelayNS * t.WavefrontTileFactor
	sel := log2ceil(n) * t.LevelDelayNS // output mux selecting the active diagonal's grants
	fan := log2ceil(n) * t.FanoutDelayNS
	return wave + sel + fan
}

// WavefrontCustomGE returns the gate count of a full-custom single-array
// wavefront implementation (combinational loop left intact, n² tiles). Used
// by the ablation comparing the paper's synthesis strategy against a
// full-custom bound (§2.2, [5]).
func (t Tech) WavefrontCustomGE(n int) float64 {
	nf := float64(n)
	const tileGE = 5
	return nf * nf * tileGE
}

// WavefrontCustomDelay returns the full-custom wavefront delay: the wave
// itself, without replication fanout or output muxes.
func (t Tech) WavefrontCustomDelay(n int) float64 {
	return (0.8*float64(n) + 6) * t.LevelDelayNS * t.WavefrontTileFactor
}

// --- VC allocators (Fig. 3, §4) ---------------------------------------------

// vcGeometry captures the arbiter widths implied by a VC allocator
// configuration: dense allocators handle the full V-wide VC range at every
// stage, sparse allocators shrink each stage per §4.2.
type vcGeometry struct {
	blocks      int // independent allocator blocks (M if sparse, else 1)
	vcsPerBlock int // output VCs handled per block, per port
	inWidth     int // input-stage arbiter width (candidate output VCs)
	outWidth    int // output-stage leaf arbiter width (per-port input VCs)
	reqFanout   int // request wiring fanout per input VC
}

func vcGeom(cfg core.VCAllocConfig) vcGeometry {
	s := cfg.Spec
	v := s.V()
	if !cfg.Sparse {
		return vcGeometry{
			blocks:      1,
			vcsPerBlock: v,
			inWidth:     v,
			outWidth:    v,
			reqFanout:   v,
		}
	}
	// Sparse (§4.2): one block per message class; input arbiters span only
	// successor resource classes × C; output arbiters span only predecessor
	// resource classes × C; requests select whole classes.
	perMsg := s.ResourceClasses * s.VCsPerClass
	return vcGeometry{
		blocks:      s.MessageClasses,
		vcsPerBlock: perMsg,
		inWidth:     s.MaxSuccessorClasses() * s.VCsPerClass,
		outWidth:    s.MaxPredecessorClasses() * s.VCsPerClass,
		reqFanout:   s.MaxSuccessorClasses(),
	}
}

// VCAllocCost estimates delay, area and power for a VC allocator
// configuration (Figs. 5 and 6).
func VCAllocCost(t Tech, cfg core.VCAllocConfig) Estimate {
	if err := cfg.Spec.Validate(); err != nil {
		panic(err)
	}
	p := cfg.Ports
	g := vcGeom(cfg)
	what := fmt.Sprintf("VC allocator %v P=%d V=%s sparse=%v", cfg.Arch, p, cfg.Spec, cfg.Sparse)

	// Request-generation and grant-reduction glue shared by all
	// architectures (Fig. 3): per input VC, candidate decode over the
	// request fanout plus the V-wide (dense) or class-wide (sparse) grant
	// reduction back to a V-vector.
	inputVCs := float64(p * cfg.Spec.V())
	glueGE := inputVCs * (float64(g.inWidth) + float64(g.reqFanout)*2)
	glueDelay := 3 * t.LevelDelayNS
	// Request broadcast fanout: each input VC's request reaches the output
	// logic of every output VC in its block.
	fanDelay := log2ceil(p*g.vcsPerBlock) * t.FanoutDelayNS

	switch cfg.Arch {
	case alloc.SepIF:
		inGE := inputVCs * t.ArbiterGE(cfg.ArbKind, g.inWidth)
		outGE := float64(g.blocks) * float64(p*g.vcsPerBlock) *
			t.TreeArbiterGE(cfg.ArbKind, p, g.outWidth)
		delay := t.ArbiterDelay(cfg.ArbKind, g.inWidth) +
			t.TreeArbiterDelay(cfg.ArbKind, p, g.outWidth) +
			glueDelay + fanDelay
		return t.finish(inGE+outGE+glueGE, delay, what,
			Component{Name: "input arbiters", GE: inGE, OnCriticalPath: true},
			Component{Name: "output tree arbiters", GE: outGE, OnCriticalPath: true},
			Component{Name: "request/grant glue", GE: glueGE, OnCriticalPath: true})

	case alloc.SepOF:
		// Output-first broadcasts all candidate requests, needing wider
		// request wiring, then adds the final input-stage arbitration after
		// grant grouping (Fig. 3b).
		inGE := inputVCs * t.ArbiterGE(cfg.ArbKind, g.inWidth)
		outGE := float64(g.blocks) * float64(p*g.vcsPerBlock) *
			t.TreeArbiterGE(cfg.ArbKind, p, g.outWidth)
		bcastGE := inputVCs * float64(g.inWidth) // eager request broadcast
		delay := t.TreeArbiterDelay(cfg.ArbKind, p, g.outWidth) +
			t.LevelDelayNS + // grant grouping
			t.ArbiterDelay(cfg.ArbKind, g.inWidth) +
			glueDelay + fanDelay
		return t.finish(inGE+outGE+glueGE+bcastGE, delay, what,
			Component{Name: "output tree arbiters", GE: outGE, OnCriticalPath: true},
			Component{Name: "input arbiters", GE: inGE, OnCriticalPath: true},
			Component{Name: "request broadcast", GE: bcastGE, OnCriticalPath: false},
			Component{Name: "request/grant glue", GE: glueGE, OnCriticalPath: true})

	case alloc.Wavefront:
		// One (p·vcsPerBlock)-input wavefront block per message class, with
		// sep_of-style request generation and sep_if-style grant reduction
		// (Fig. 3c).
		// The wavefront block's request generation and grant reduction are
		// single OR/AND levels folded around the array, cheaper than the
		// separable allocators' multi-stage glue.
		n := p * g.vcsPerBlock
		wfGE := float64(g.blocks) * t.WavefrontGE(n)
		delay := t.WavefrontDelay(n) + t.LevelDelayNS
		return t.finish(wfGE+glueGE, delay, what,
			Component{Name: "wavefront arrays", GE: wfGE, OnCriticalPath: true},
			Component{Name: "request/grant glue", GE: glueGE, OnCriticalPath: false})

	default:
		panic(fmt.Sprintf("costmodel: unsupported VC allocator arch %v", cfg.Arch))
	}
}

// --- Switch allocators (Figs. 8 and 9, §5) ----------------------------------

// switchBaseCost returns the non-speculative switch allocator cost
// components (GE and delay) for one allocation datapath.
func switchBaseCost(t Tech, cfg core.SwitchAllocConfig) (ge, delay float64) {
	p, v := cfg.Ports, cfg.VCs
	pf, vf := float64(p), float64(v)
	switch cfg.Arch {
	case alloc.SepIF:
		// Fig. 8(a): V-input arbiter per input port, P-input arbiter per
		// output port; output arbiters drive the crossbar directly.
		ge = pf*t.ArbiterGE(cfg.ArbKind, v) +
			pf*t.ArbiterGE(cfg.ArbKind, p) +
			pf*vf // request muxing
		delay = t.ArbiterDelay(cfg.ArbKind, v) +
			t.ArbiterDelay(cfg.ArbKind, p) +
			t.LevelDelayNS
	case alloc.SepOF:
		// Fig. 8(b): per-(input, output) request OR-combining, P-input
		// output arbiters, V-input VC arbiters, and crossbar controls
		// generated from the winning VC's port select.
		ge = pf*pf*t.ORTreeGE(v) +
			pf*t.ArbiterGE(cfg.ArbKind, p) +
			pf*t.ArbiterGE(cfg.ArbKind, v) +
			pf*vf + // grant gating per VC
			pf*pf*2 // crossbar control muxes
		delay = t.ORTreeDelay(v) +
			t.ArbiterDelay(cfg.ArbKind, p) +
			t.LevelDelayNS + // grant grouping
			t.ArbiterDelay(cfg.ArbKind, v) +
			2*t.LevelDelayNS // port-select to crossbar controls
	case alloc.Wavefront:
		// Fig. 8(c): request combining, P×P wavefront block driving the
		// crossbar directly, VC pre-selection arbiters in parallel.
		ge = pf*pf*t.ORTreeGE(v) +
			t.WavefrontGE(p) +
			pf*t.ArbiterGE(arbiter.RoundRobin, v) + // parallel pre-selection
			pf*vf
		delay = t.ORTreeDelay(v) +
			t.WavefrontDelay(p) +
			t.LevelDelayNS
	default:
		panic(fmt.Sprintf("costmodel: unsupported switch allocator arch %v", cfg.Arch))
	}
	return ge, delay
}

// SwitchAllocCost estimates delay, area and power for a switch allocator
// configuration including its speculation scheme (Figs. 10 and 11; the
// three points per curve in the paper are SpecNone, SpecReq, SpecGnt).
func SwitchAllocCost(t Tech, cfg core.SwitchAllocConfig) Estimate {
	p := float64(cfg.Ports)
	baseGE, baseDelay := switchBaseCost(t, cfg)
	what := fmt.Sprintf("switch allocator %v P=%d V=%d %v", cfg.Arch, cfg.Ports, cfg.VCs, cfg.SpecMode)

	switch cfg.SpecMode {
	case core.SpecNone:
		return t.finish(baseGE, baseDelay, what)
	case core.SpecGnt:
		// Fig. 9(a): duplicate allocator plus 2P P-input grant-reduction
		// ORs, NOR and AND masking — reductions and masking sit on the
		// critical path after the non-speculative allocator.
		maskGE := 2*p*t.ORTreeGE(cfg.Ports) + 2*p + p*p
		delay := baseDelay + t.ORTreeDelay(cfg.Ports) + 2*t.LevelDelayNS
		return t.finish(2*baseGE+maskGE, delay, what)
	case core.SpecReq:
		// Fig. 9(b): the pessimistic scheme masks on requests, whose
		// reductions are computed in parallel with allocation; only the
		// final AND stage remains on the critical path.
		maskGE := 2*p*t.ORTreeGE(cfg.Ports) + p*p
		delay := baseDelay + t.LevelDelayNS
		return t.finish(2*baseGE+maskGE, delay, what)
	default:
		panic(fmt.Sprintf("costmodel: unknown spec mode %v", cfg.SpecMode))
	}
}

// Combine merges per-block estimates into a router-level allocator
// estimate. The blocks (VC allocator, switch allocator) are physically
// separate units operating in parallel pipeline stages, so the combined
// minimum cycle time is the slowest block's delay, while area, power and
// netlist size are additive. The combination synthesizes only if every
// block does; the first failure's reason is reported.
func Combine(parts ...Estimate) Estimate {
	var out Estimate
	out.Synthesized = true
	for _, p := range parts {
		if !p.Synthesized {
			return Estimate{Synthesized: false, FailReason: p.FailReason}
		}
		out.DelayNS = math.Max(out.DelayNS, p.DelayNS)
		out.AreaUM2 += p.AreaUM2
		out.GateEquivalents += p.GateEquivalents
		out.Components = append(out.Components, p.Components...)
	}
	// Power is activity-weighted energy over the combined cycle time, not
	// the sum of per-block powers at their own (shorter) cycle times.
	for _, p := range parts {
		if out.DelayNS > 0 {
			out.PowerMW += p.PowerMW * p.DelayNS / out.DelayNS
		}
	}
	return out
}
