// Package repro is the public API of a from-scratch Go reproduction of
//
//	Daniel U. Becker and William J. Dally,
//	"Allocator Implementations for Network-on-Chip Routers", SC '09.
//
// It re-exports the stable surface of the implementation packages:
//
//   - Generic allocators (separable input-/output-first, wavefront,
//     maximum-size) over request matrices.
//   - The paper's VC and switch allocator microarchitectures, including
//     sparse VC allocation (§4.2) and pessimistic speculative switch
//     allocation (§5.2).
//   - A synthesis cost model standing in for the paper's Design Compiler
//     flow (delay / area / power per design point).
//   - The open-loop matching-quality harness (§3.1).
//   - A cycle-accurate simulator for the paper's two 64-node topologies
//     with dimension-order and UGAL routing and request–reply traffic.
//   - One regenerator per paper figure (the experiments API).
//
// See the examples/ directory for runnable entry points and DESIGN.md for
// the full system inventory.
package repro

import (
	"context"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/curve"
	"repro/internal/experiments"
	"repro/internal/quality"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// --- Bit vectors and request matrices ----------------------------------------

// Vec is a dense bit vector.
type Vec = bitvec.Vec

// Matrix is a dense request/grant bit matrix (rows: requesters, columns:
// resources).
type Matrix = bitvec.Matrix

// NewVec returns a zeroed bit vector with n bits.
func NewVec(n int) *Vec { return bitvec.New(n) }

// NewMatrix returns a zeroed rows×cols request matrix.
func NewMatrix(rows, cols int) *Matrix { return bitvec.NewMatrix(rows, cols) }

// --- Arbiters -----------------------------------------------------------------

// Arbiter selects one winner among requesters; see internal/arbiter.
type Arbiter = arbiter.Arbiter

// ArbiterKind selects an arbiter implementation.
type ArbiterKind = arbiter.Kind

// Arbiter implementations from the paper's figure legends.
const (
	RoundRobin = arbiter.RoundRobin // rotating-pointer round-robin ("rr")
	MatrixArb  = arbiter.Matrix     // least-recently-served matrix arbiter ("m")
)

// NewArbiter builds an n-input arbiter.
func NewArbiter(k ArbiterKind, n int) Arbiter { return arbiter.New(k, n) }

// NewTreeArbiter builds a (groups×width)-input tree arbiter (§4.1).
func NewTreeArbiter(k ArbiterKind, groups, width int) Arbiter {
	return arbiter.NewTree(k, groups, width)
}

// --- Generic allocators ---------------------------------------------------------

// Allocator computes matchings on request matrices.
type Allocator = alloc.Allocator

// AllocConfig parameterizes generic allocator construction.
type AllocConfig = alloc.Config

// Arch names an allocator architecture.
type Arch = alloc.Arch

// Allocator architectures (§2).
const (
	SepIF     = alloc.SepIF     // separable input-first
	SepOF     = alloc.SepOF     // separable output-first
	Wavefront = alloc.Wavefront // wavefront with rotating priority diagonal
	Maximum   = alloc.Maximum   // maximum-size reference (no fairness)
)

// NewAllocator builds a generic allocator.
func NewAllocator(c AllocConfig) Allocator { return alloc.New(c) }

// ValidateMatching reports an error when gnt is not a valid matching for req.
func ValidateMatching(req, gnt *Matrix) error { return alloc.Validate(req, gnt) }

// IsMaximalMatching reports whether gnt is maximal for req.
func IsMaximalMatching(req, gnt *Matrix) bool { return alloc.IsMaximal(req, gnt) }

// MaxMatchSize returns the maximum matching size for req.
func MaxMatchSize(req *Matrix) int { return alloc.MatchSize(req) }

// --- VC organization and router-facing allocators ------------------------------

// VCSpec describes a router's V = M·R·C virtual-channel organization and
// the legal VC-to-VC transitions (Fig. 4).
type VCSpec = core.VCSpec

// NewVCSpec returns a spec with m message classes, r resource classes and
// c VCs per class, using the default monotonic successor relation.
func NewVCSpec(m, r, c int) VCSpec { return core.NewVCSpec(m, r, c) }

// VCAllocator assigns output VCs to head flits (Fig. 3).
type VCAllocator = core.VCAllocator

// VCAllocConfig parameterizes VC allocator construction; set Sparse for the
// §4.2 sparse scheme.
type VCAllocConfig = core.VCAllocConfig

// VCRequest is one input VC's allocation request.
type VCRequest = core.VCRequest

// VCMask is the set of candidate output VCs a VCRequest carries (bit c = VC
// c; VCSpec.ClassMask and SuccessorMask build them).
type VCMask = core.VCMask

// NewVCAllocator builds a VC allocator. Set c.Sparse for the §4.2 sparse
// scheme.
func NewVCAllocator(c VCAllocConfig) *VCAllocator { return core.NewVCAllocator(c) }

// SwitchAllocator schedules flits onto crossbar slots (Fig. 8).
type SwitchAllocator = core.SwitchAllocator

// SwitchAllocConfig parameterizes switch allocator construction; SpecMode
// selects the speculation scheme (Fig. 9).
type SwitchAllocConfig = core.SwitchAllocConfig

// SwitchRequest and SwitchGrant are the switch allocator's per-cycle
// interface.
type (
	SwitchRequest = core.SwitchRequest
	SwitchGrant   = core.SwitchGrant
)

// SpecMode selects the speculative switch allocation scheme.
type SpecMode = core.SpecMode

// Speculation schemes (§5.2).
const (
	SpecNone = core.SpecNone // non-speculative baseline
	SpecGnt  = core.SpecGnt  // conventional: mask on non-speculative grants
	SpecReq  = core.SpecReq  // pessimistic: mask on non-speculative requests
)

// NewSwitchAllocator builds a switch allocator. Set c.SpecMode for one of
// the §5.2 speculation schemes.
func NewSwitchAllocator(c SwitchAllocConfig) *SwitchAllocator { return core.NewSwitchAllocator(c) }

// SwitchAllocStats counts speculation outcomes (§5.2).
type SwitchAllocStats = core.SwitchAllocStats

// --- Synthesis cost model -------------------------------------------------------

// Tech holds the technology/flow parameters of the synthesis cost model.
type Tech = costmodel.Tech

// CostEstimate is a synthesis result (delay, area, power, or a failure).
type CostEstimate = costmodel.Estimate

// Default45nm returns the 45 nm-class low-power technology model.
func Default45nm() Tech { return costmodel.Default45nm() }

// VCAllocCost estimates a VC allocator's implementation cost (Figs. 5, 6).
func VCAllocCost(t Tech, c VCAllocConfig) CostEstimate { return costmodel.VCAllocCost(t, c) }

// SwitchAllocCost estimates a switch allocator's implementation cost
// (Figs. 10, 11).
func SwitchAllocCost(t Tech, c SwitchAllocConfig) CostEstimate {
	return costmodel.SwitchAllocCost(t, c)
}

// --- Matching quality ------------------------------------------------------------

// QualitySeries is a named rate→quality curve.
type QualitySeries = quality.Series

// QualityRates returns the paper's request-rate sweep.
func QualityRates() []float64 { return quality.DefaultRates() }

// VCQualitySeries measures a VC allocator's matching quality (Fig. 7).
func VCQualitySeries(c VCAllocConfig, rates []float64, trials int, seed uint64) QualitySeries {
	return quality.VCSeries(c, rates, trials, seed)
}

// SwitchQualitySeries measures a switch allocator's matching quality
// (Fig. 12).
func SwitchQualitySeries(c SwitchAllocConfig, rates []float64, trials int, seed uint64) QualitySeries {
	return quality.SwitchSeries(c, rates, trials, seed)
}

// --- Topologies, routing, traffic -------------------------------------------------

// Topology describes a network of uniform-radix routers.
type Topology = topology.Topology

// Mesh builds a k×k mesh with one terminal per router (paper: 8×8, P=5).
func Mesh(k int) *Topology { return topology.Mesh(k) }

// FlattenedButterfly builds a 2-D k×k flattened butterfly with the given
// concentration (paper: 4×4, c=4, P=10).
func FlattenedButterfly(k, conc int) *Topology { return topology.FlattenedButterfly(k, conc) }

// RoutingFunction computes lookahead route decisions.
type RoutingFunction = routing.Function

// NewDOR returns dimension-order routing for a mesh.
func NewDOR(t *Topology) RoutingFunction { return routing.NewDOR(t) }

// NewUGAL returns UGAL load-balanced routing for a flattened butterfly.
func NewUGAL(t *Topology, threshold int) RoutingFunction { return routing.NewUGAL(t, threshold) }

// Workload is the injection workload of a simulation: arrival process,
// traffic pattern and the offered load Workload.Rate in flits/cycle/terminal.
// Workload.Pattern names the pattern ("uniform", "transpose", "bitcomp",
// "bitrev", "shuffle", "tornado", "neighbor", "hotspot").
type Workload = traffic.Workload

// --- Network simulation -------------------------------------------------------------

// SimConfig describes one network simulation run.
type SimConfig = sim.Config

// SimResult summarizes a run (latency, throughput, saturation).
type SimResult = sim.Result

// Network is an instantiated simulation.
type Network = sim.Network

// NewNetwork builds a network simulation.
func NewNetwork(c SimConfig) *Network { return sim.New(c) }

// --- Experiments (one regenerator per paper figure) -----------------------------------

// DesignPoint is one of the paper's six topology × VC-organization points.
type DesignPoint = experiments.Point

// DesignPoints returns the six points in figure order.
func DesignPoints() []DesignPoint { return experiments.Points() }

// DesignPointByName returns the point labeled "<topo> MxRxC".
func DesignPointByName(topo string, c int) (DesignPoint, error) {
	return experiments.PointByName(topo, c)
}

// NetSeries is a latency/throughput curve from the network experiments.
type NetSeries = experiments.NetSeries

// SimScale controls experiment simulation length.
type SimScale = experiments.SimScale

// Fig13 regenerates a Fig. 13 subfigure (switch allocator comparison). Its
// units run on a sweep server of s.Workers workers, as cmd/repro's do. It
// panics on a workload a unit cannot carry: a trace has no rate to sweep.
func Fig13(pt DesignPoint, rates []float64, s SimScale) []NetSeries {
	return figure(curve.Fig13, pt, rates, s)
}

// Fig14 regenerates a Fig. 14 subfigure (speculation scheme comparison), as
// Fig13 does.
func Fig14(pt DesignPoint, rates []float64, s SimScale) []NetSeries {
	return figure(curve.Fig14, pt, rates, s)
}

// figure runs one figure driver on a server of its own.
func figure(fig func(context.Context, sweep.Evaluator, DesignPoint, []float64, SimScale) ([]NetSeries, error), pt DesignPoint, rates []float64, s SimScale) []NetSeries {
	srv, err := sweep.NewServer(sweep.Options{Workers: s.Workers})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	series, err := fig(context.Background(), srv, pt, rates, s)
	if err != nil {
		panic(err)
	}
	return series
}

// InjectionRates returns the paper's x-axis sweep for a design point.
func InjectionRates(pt DesignPoint) []float64 { return experiments.InjectionRates(pt) }

// BuildSim assembles the §5.3.3 baseline simulation config for a design
// point (sep_if VC allocation, pessimistic speculation).
func BuildSim(pt DesignPoint, rate float64, s SimScale) SimConfig {
	return experiments.BuildSim(pt, rate, s)
}

// --- Tracing -------------------------------------------------------------------------

// TraceEvent is one router-pipeline or terminal occurrence.
type TraceEvent = trace.Event

// Tracer stamps events with the simulation cycle; plug into
// SimConfig.Trace.
type Tracer = trace.Tracer

// TraceCollector retains the most recent events in memory.
type TraceCollector = trace.Collector

// NewTracer builds a tracer over a sink. A non-nil filter keeps only the
// events it returns true for, e.g. func(e TraceEvent) bool { return e.Packet == id }.
func NewTracer(sink trace.Recorder, filter func(TraceEvent) bool) *Tracer {
	return trace.New(sink, filter)
}

// NewTraceCollector returns an in-memory sink retaining up to capacity
// events.
func NewTraceCollector(capacity int) *TraceCollector { return trace.NewCollector(capacity) }

// --- Deterministic randomness ---------------------------------------------------------

// Rand is the deterministic PRNG used across the repository.
type Rand = xrand.Source

// NewRand returns a source seeded from seed.
func NewRand(seed uint64) *Rand { return xrand.New(seed) }
