// Package experiments is the single source of truth the command-line tools
// and the benchmark harness share for the paper's (Becker & Dally, SC '09)
// design points, injection rates, simulation configs (BuildSim), cost and
// matching-quality tables, saturation criterion and rendering. The network
// figures are lists of sweep units that package curve evaluates over a sweep
// server. The per-experiment index in DESIGN.md maps onto both packages.
package experiments

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/quality"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Point is one of the paper's six design points (§3): a topology plus a VC
// organization.
type Point struct {
	// Topo is "mesh" (8×8, P=5) or "fbfly" (4×4 c=4, P=10).
	Topo string
	// Ports is the router radix.
	Ports int
	// Spec is the M×R×C VC organization.
	Spec core.VCSpec
}

// String renders the paper's subfigure label, e.g. "mesh 2x1x4".
func (p Point) String() string { return fmt.Sprintf("%s %s", p.Topo, p.Spec) }

// network is one of the paper's two networks (§3): its radix and the M×R of
// its VC organization. Each is evaluated with every count in designVCs, so
// the six design points are designNets × designVCs.
type network struct {
	topo        string
	ports, m, r int
}

var (
	designNets = []network{{"mesh", 5, 2, 1}, {"fbfly", 10, 2, 2}}
	designVCs  = []int{1, 2, 4}
)

func (n network) point(c int) Point {
	return Point{Topo: n.topo, Ports: n.ports, Spec: core.NewVCSpec(n.m, n.r, c)}
}

// Points returns the six design points in the paper's figure order
// (mesh 2×1×{1,2,4}, fbfly 2×2×{1,2,4}).
func Points() []Point {
	pts := make([]Point, 0, len(designNets)*len(designVCs))
	for _, n := range designNets {
		for _, c := range designVCs {
			pts = append(pts, n.point(c))
		}
	}
	return pts
}

// PointByName returns the design point labeled "<topo> MxRxC".
func PointByName(topo string, c int) (Point, error) {
	for _, n := range designNets {
		if n.topo == topo && slices.Contains(designVCs, c) {
			return n.point(c), nil
		}
	}
	return Point{}, fmt.Errorf("experiments: no design point %s C=%d", topo, c)
}

// Variant is one allocator implementation from the figure legends.
type Variant struct {
	// Arch is the allocator architecture.
	Arch alloc.Arch
	// Arb is the arbiter kind ("m" or "rr"); wavefront always uses "rr".
	Arb arbiter.Kind
}

// String renders the legend label, e.g. "sep_if/m" or "wf/rr".
func (v Variant) String() string { return v.Arch.String() + "/" + v.Arb.String() }

// Variants returns the five legend entries of Figs. 5, 6, 10 and 11:
// sep_if/m, sep_if/rr, sep_of/m, sep_of/rr, wf/rr.
func Variants() []Variant {
	return []Variant{
		{alloc.SepIF, arbiter.Matrix},
		{alloc.SepIF, arbiter.RoundRobin},
		{alloc.SepOF, arbiter.Matrix},
		{alloc.SepOF, arbiter.RoundRobin},
		{alloc.Wavefront, arbiter.RoundRobin},
	}
}

// --- Figs. 5 & 6: VC allocator implementation cost ---------------------------

// VCCostRow is one synthesis result for the VC allocator cost figures.
type VCCostRow struct {
	Point   Point
	Variant Variant
	// Sparse distinguishes the two connected data points per curve
	// (§4.3.1): the design before and after sparse VC allocation.
	Sparse bool
	Est    costmodel.Estimate
}

// VCCost regenerates the data behind Figs. 5 (area vs delay) and 6 (power
// vs delay): every design point × variant × {dense, sparse}.
func VCCost(tech costmodel.Tech) []VCCostRow {
	var rows []VCCostRow
	for _, pt := range Points() {
		for _, v := range Variants() {
			for _, sparse := range []bool{false, true} {
				est := costmodel.VCAllocCost(tech, core.VCAllocConfig{
					Ports: pt.Ports, Spec: pt.Spec, Arch: v.Arch, ArbKind: v.Arb, Sparse: sparse,
				})
				rows = append(rows, VCCostRow{Point: pt, Variant: v, Sparse: sparse, Est: est})
			}
		}
	}
	return rows
}

// SparseSavings summarizes the §4.3.1 headline: the maximum relative delay,
// area and power reduction from sparse VC allocation over all design points
// whose dense and sparse variants both synthesized (paper: up to 41%, 90%
// and 83%).
func SparseSavings(tech costmodel.Tech) (delay, area, power float64) {
	rows := VCCost(tech)
	byKey := map[string][2]costmodel.Estimate{}
	for _, r := range rows {
		key := r.Point.String() + r.Variant.String()
		pair := byKey[key]
		if r.Sparse {
			pair[1] = r.Est
		} else {
			pair[0] = r.Est
		}
		byKey[key] = pair
	}
	for _, pair := range byKey {
		dense, sparse := pair[0], pair[1]
		if !dense.Synthesized || !sparse.Synthesized {
			continue
		}
		if s := 1 - sparse.DelayNS/dense.DelayNS; s > delay {
			delay = s
		}
		if s := 1 - sparse.AreaUM2/dense.AreaUM2; s > area {
			area = s
		}
		if s := 1 - sparse.PowerMW/dense.PowerMW; s > power {
			power = s
		}
	}
	return delay, area, power
}

// --- Figs. 10 & 11: switch allocator implementation cost ---------------------

// SwitchCostRow is one synthesis result for the switch allocator cost
// figures; the three Modes per curve are the paper's three data points
// (non-speculative, pessimistic, conventional).
type SwitchCostRow struct {
	Point   Point
	Variant Variant
	Mode    core.SpecMode
	Est     costmodel.Estimate
}

// SwitchCost regenerates the data behind Figs. 10 and 11.
func SwitchCost(tech costmodel.Tech) []SwitchCostRow {
	var rows []SwitchCostRow
	for _, pt := range Points() {
		for _, v := range Variants() {
			for _, mode := range []core.SpecMode{core.SpecNone, core.SpecReq, core.SpecGnt} {
				est := costmodel.SwitchAllocCost(tech, core.SwitchAllocConfig{
					Ports: pt.Ports, VCs: pt.Spec.V(), Arch: v.Arch, ArbKind: v.Arb, SpecMode: mode,
				})
				rows = append(rows, SwitchCostRow{Point: pt, Variant: v, Mode: mode, Est: est})
			}
		}
	}
	return rows
}

// PessimisticDelaySaving summarizes the §5.3.1 headline: the maximum
// relative delay reduction of the pessimistic speculation scheme over the
// conventional one (paper: up to 23%, most pronounced for the wavefront
// allocator — in this model the low-delay sep_if/m points land within a
// couple of percent of the wavefront maximum).
func PessimisticDelaySaving(tech costmodel.Tech) (best float64, bestRow string) {
	rows := SwitchCost(tech)
	type key struct {
		pt, v string
	}
	byKey := map[key]map[core.SpecMode]costmodel.Estimate{}
	for _, r := range rows {
		k := key{r.Point.String(), r.Variant.String()}
		if byKey[k] == nil {
			byKey[k] = map[core.SpecMode]costmodel.Estimate{}
		}
		byKey[k][r.Mode] = r.Est
	}
	for k, m := range byKey {
		pr, cg := m[core.SpecReq], m[core.SpecGnt]
		if !pr.Synthesized || !cg.Synthesized {
			continue
		}
		if s := 1 - pr.DelayNS/cg.DelayNS; s > best {
			best = s
			bestRow = k.pt + " " + k.v
		}
	}
	return best, bestRow
}

// --- Figs. 7 & 12: matching quality -------------------------------------------

// VCQuality regenerates one subfigure of Fig. 7: the three architecture
// curves (sep_if, sep_of, wf; round-robin arbiters) for a design point, with
// up to `workers` rate points swept concurrently. Results are bit-identical
// for any worker count.
func VCQuality(pt Point, rates []float64, trials int, seed uint64, workers int) []quality.Series {
	var cfgs []core.VCAllocConfig
	for _, arch := range []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront} {
		cfgs = append(cfgs, core.VCAllocConfig{
			Ports: pt.Ports, Spec: pt.Spec, Arch: arch, ArbKind: arbiter.RoundRobin,
		})
	}
	return quality.VCSeriesMulti(cfgs, rates, trials, seed, workers)
}

// SwitchQuality regenerates one subfigure of Fig. 12, with up to `workers`
// rate points swept concurrently. Results are bit-identical for any worker
// count.
func SwitchQuality(pt Point, rates []float64, trials int, seed uint64, workers int) []quality.Series {
	var cfgs []core.SwitchAllocConfig
	for _, arch := range []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront} {
		cfgs = append(cfgs, core.SwitchAllocConfig{
			Ports: pt.Ports, VCs: pt.Spec.V(), Arch: arch, ArbKind: arbiter.RoundRobin,
		})
	}
	return quality.SwitchSeriesMulti(cfgs, rates, trials, seed, workers)
}

// --- Figs. 13 & 14: network-level performance ---------------------------------

// SimScale controls simulation length; the default regenerates
// publication-quality curves, tests use shorter phases.
type SimScale struct {
	Warmup, Measure, Drain int
	Seed                   uint64
	// Workers sizes the process's sweep-server pool: how many simulations
	// run at once (each point is an independent, deterministic simulation,
	// so the count never changes a result; cmd/repro's quality sweeps use it
	// too). Zero or one means one at a time.
	Workers int
	// Workload selects the injection workload (arrival process, traffic
	// pattern, parameters) applied to every simulation built through
	// BuildSim. Unlike Workers it is semantic — it changes results — and its
	// zero value is the paper default (Bernoulli over uniform). The offered
	// rate stays per-point: BuildSim overwrites Workload.Rate with its rate
	// argument.
	Workload traffic.Workload
}

// DefaultScale is sized for the cmd-line tools.
func DefaultScale() SimScale {
	return SimScale{Warmup: 3000, Measure: 6000, Drain: 20000, Seed: 42}
}

// NetPoint is one latency/throughput sample.
type NetPoint struct {
	Rate       float64
	Latency    float64
	Throughput float64
	Saturated  bool
	// Cycles is the simulated cycle count behind the sample; benchmarks
	// divide it by wall-clock time for a cycles/sec throughput metric.
	Cycles int64
}

// NetSeries is a named latency-vs-injection-rate curve.
type NetSeries struct {
	Name   string
	Points []NetPoint
}

// gridStep is the spacing of the paper's fixed injection-rate grid
// (InjectionRates): every gridIndex-th point of the default rate lattice.
const (
	gridIndex = 5
	gridStep  = gridIndex * DefaultLatticeStep
)

// divergeTol is the knee criterion's relative throughput tolerance.
const divergeTol = 0.05

// Saturated is the repository's one saturation definition: the knee
// criterion behind every "saturation throughput" it reports, the paper's
// term for its headline (§6: wf +15 % / +21 % over sep_if on the fbfly with
// 8 / 16 VCs). A point on a rate grid of spacing step is saturated when the
// network did not drain or accepted throughput no longer tracks offered load:
//
//	p.Saturated  ||  (p.Rate > 0 && p.Throughput < p.Rate·(1−0.05) − step/2)
//
// p.Saturated is sim.Result.Saturated (over 2 % of measured packets
// undrained), a measurement feeding this criterion, not a definition of
// its own. The half-step slack keeps low-rate sampling noise, where a short
// window sees few packets, from registering as divergence.
func Saturated(p NetPoint, step float64) bool {
	if p.Saturated {
		return true
	}
	return p.Rate > 0 && p.Throughput < p.Rate*(1-divergeTol)-step/2
}

// Knee returns the index of the series' knee on a rate grid of spacing step:
// the last point, in ascending rate order, before the first Saturated one
// (-1 if that is the first point; the last point if none is).
func (s NetSeries) Knee(step float64) int {
	for i, p := range s.Points {
		if Saturated(p, step) {
			return i - 1
		}
	}
	return len(s.Points) - 1
}

// SaturationRate is the accepted throughput of the series' knee point on
// the paper's grid (Knee(gridStep)), or 0 if the first point is saturated.
func (s NetSeries) SaturationRate() float64 {
	if k := s.Knee(gridStep); k >= 0 {
		return s.Points[k].Throughput
	}
	return 0
}

// InjectionRates returns the paper's x-axis sweep for a design point
// (Figs. 13 and 14 use wider ranges for the flattened butterfly and for
// more VCs). Its rates are default-lattice rates, so a knee point the
// saturation table traces at one of them is the unit the figure ran.
func InjectionRates(pt Point) []float64 {
	var max float64
	switch {
	case pt.Topo == "mesh" && pt.Spec.VCsPerClass == 1:
		max = 0.35
	case pt.Topo == "mesh" && pt.Spec.VCsPerClass == 2:
		max = 0.40
	case pt.Topo == "mesh":
		max = 0.45
	case pt.Spec.VCsPerClass == 1:
		max = 0.50
	case pt.Spec.VCsPerClass == 2:
		max = 0.60
	default:
		max = 0.70
	}
	lat := RateLattice{Step: DefaultLatticeStep}
	var rates []float64
	for i := gridIndex; i <= lat.Index(max); i += gridIndex {
		rates = append(rates, lat.Rate(i))
	}
	return rates
}

// BuildSim assembles a simulation config for a design point. The VC
// allocator defaults to separable input-first and speculation to the
// pessimistic scheme, the baseline the paper's §5.3.3 simulations use.
func BuildSim(pt Point, rate float64, scale SimScale) sim.Config {
	w := scale.Workload
	if w.Process != "trace" {
		w.Rate = rate
	}
	cfg := sim.Config{
		Spec:     pt.Spec,
		VA:       core.VCAllocConfig{Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin},
		SA:       core.SwitchAllocConfig{Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin, SpecMode: core.SpecReq},
		Workload: w,
		Seed:     scale.Seed,
		Warmup:   scale.Warmup,
		Measure:  scale.Measure,
		Drain:    scale.Drain,
	}
	cfg.Topology, cfg.Routing = sharedNet(pt.Topo)
	return cfg
}

// The two paper networks, built on first use and shared by every simulation
// in the process (building one costs 7–18 µs against a 0.06 µs lookup, once
// per simulated point). Both halves are immutable after construction — the
// topology is never written post-build and the routing functions hold no
// mutable fields, all per-packet state lives in routing.PacketRoute — so one
// instance is safely shared by concurrently running simulations. The
// constructors are named only inside sharedNet, not in a package-level
// initializer, so a program that simulates nothing (cmd/matchquality) does
// not link the simulator.
var (
	meshOnce, fbflyOnce sync.Once
	meshTopo, fbflyTopo *topology.Topology
	meshRt, fbflyRt     routing.Function
)

// sharedNet returns the shared (topology, routing) pair for a topology name.
func sharedNet(topo string) (*topology.Topology, routing.Function) {
	switch topo {
	case "mesh":
		meshOnce.Do(func() {
			meshTopo = topology.Mesh(8)
			meshRt = routing.NewDOR(meshTopo)
		})
		return meshTopo, meshRt
	case "fbfly":
		fbflyOnce.Do(func() {
			fbflyTopo = topology.FlattenedButterfly(4, 4)
			fbflyRt = routing.NewUGAL(fbflyTopo, 1)
		})
		return fbflyTopo, fbflyRt
	}
	panic("experiments: unknown topology " + topo)
}

// FormatNetSeries renders latency curves as a tab-separated table. Rows are
// the union of every rate any series sampled, in ascending order, so
// non-uniform grids — adaptive traces, or series sampled at different rates
// — align by rate instead of by position; a series without a sample at some
// rate renders "-" cells.
func FormatNetSeries(series []NetSeries) string {
	if len(series) == 0 {
		return ""
	}
	var rates []float64
	seen := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			if !seen[p.Rate] {
				seen[p.Rate] = true
				rates = append(rates, p.Rate)
			}
		}
	}
	sort.Float64s(rates)
	// Rates are keyed by their exact float64 value: every sampled rate comes
	// from one canonical computation (a shared grid slice or RateLattice.Rate),
	// so equal offered loads are bit-equal and distinct ones never collide.
	byRate := make([]map[float64]NetPoint, len(series))
	for si, s := range series {
		byRate[si] = make(map[float64]NetPoint, len(s.Points))
		for _, p := range s.Points {
			byRate[si][p.Rate] = p
		}
	}
	// Two decimals cover the paper's 0.05 grid; finer lattices widen the
	// rate column until every sampled rate is distinguishable.
	prec := 2
	for _, r := range rates {
		for prec < 6 && math.Abs(r-math.Round(r*math.Pow(10, float64(prec)))/math.Pow(10, float64(prec))) > 1e-9 {
			prec++
		}
	}
	out := "rate"
	for _, s := range series {
		out += fmt.Sprintf("\t%s(lat)\t%s(thr)", s.Name, s.Name)
	}
	out += "\n"
	for _, r := range rates {
		out += fmt.Sprintf("%.*f", prec, r)
		for si := range series {
			sp, ok := byRate[si][r]
			if !ok {
				out += "\t-\t-"
				continue
			}
			sat := ""
			if sp.Saturated {
				sat = "*"
			}
			out += fmt.Sprintf("\t%.1f%s\t%.3f", sp.Latency, sat, sp.Throughput)
		}
		out += "\n"
	}
	return out
}

// WorkloadName renders the series label for a workload: the arrival process
// plus the traffic pattern, with parameters where they disambiguate
// ("mmp(b32,d0.25)/uniform", "bernoulli/hotspot", "trace").
func WorkloadName(w traffic.Workload) string {
	w = w.Normalized()
	proc := w.Process
	if proc == "mmp" {
		proc = fmt.Sprintf("mmp(b%g,d%g)", w.BurstLen, w.Duty)
	}
	if proc == "trace" {
		return proc
	}
	pat := w.Pattern
	if pat == "hotspot" {
		pat = fmt.Sprintf("hotspot(f%g)", w.HotspotFraction)
	}
	return proc + "/" + pat
}
