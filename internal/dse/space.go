// Package dse is the design-space exploration layer over the sweep
// service: it enumerates the full allocator design space of Becker & Dally
// (SC '09) — VC-allocator architecture × arbiter × sparse mode crossed with
// switch-allocator architecture × arbiter × speculation scheme, per VC
// organization and topology — screens every point with the analytical cost
// model, and finds the Pareto frontier over hardware cost (delay, area,
// power) and network performance (accepted throughput at a fixed offered
// load) while simulating as few points as possible.
//
// The three stacked perf mechanisms (DESIGN.md §11):
//
//  1. Screen-then-simulate with dominance pruning: cost estimates are
//     µs-cheap, simulations are ~10⁵× more expensive, so every cost vector
//     is computed up front and simulation proceeds in an order chosen to
//     establish prunes early. A candidate is skipped outright when an
//     already-simulated config strictly cost-dominates it AND achieved the
//     performance cap — that pruner dominates the candidate on every axis
//     the frontier is defined over, so the skip provably cannot change the
//     frontier (see search.go).
//  2. Canonical-hash dedup: distinct design-space spellings that collapse
//     to one sweep.UnitConfig key (e.g. every va_arb of a wavefront VC
//     allocator) are simulated once; raw-vs-distinct counts are reported.
//  3. The sweep cache: every simulation goes through the server's memory +
//     disk stores and in-flight coalescing, so repeated and resumed
//     searches are warm across process restarts.
package dse

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

// Spec bounds a design-space search. Zero/empty fields take the full-space
// defaults, so the zero Spec is the paper's whole allocator zoo; tests and
// CI smokes narrow the axes and shrink the phases.
type Spec struct {
	// Topos/VCs select design points (default both topologies × {1,2,4}).
	Topos []string `json:"topos,omitempty"`
	VCs   []int    `json:"vcs,omitempty"`
	// VAArchs/VAArbs/VASparse span the VC-allocator axes (defaults
	// sep_if,sep_of,wf × rr,m × dense,sparse).
	VAArchs  []string `json:"va_archs,omitempty"`
	VAArbs   []string `json:"va_arbs,omitempty"`
	VASparse []bool   `json:"va_sparse,omitempty"`
	// SAArchs/SAArbs/SpecModes span the switch-allocator axes (defaults
	// sep_if,sep_of,wf × rr,m × nonspec,spec_req,spec_gnt).
	SAArchs   []string `json:"sa_archs,omitempty"`
	SAArbs    []string `json:"sa_arbs,omitempty"`
	SpecModes []string `json:"spec_modes,omitempty"`
	// Patterns/Processes span the injection-workload axes (defaults are the
	// paper baseline singletons: uniform × bernoulli, so the workload
	// dimension is opt-in). Trace replay is batch-only and rejected here.
	Patterns  []string `json:"patterns,omitempty"`
	Processes []string `json:"processes,omitempty"`
	// BurstLen/Duty/Hotspots/HotspotFraction parameterize the mmp process
	// and hotspot pattern when those axes include them (zero = the
	// traffic.Workload defaults). They are fixed per search, not axes.
	BurstLen        float64 `json:"burst_len,omitempty"`
	Duty            float64 `json:"duty,omitempty"`
	Hotspots        []int   `json:"hotspots,omitempty"`
	HotspotFraction float64 `json:"hotspot_fraction,omitempty"`
	// MeshRate/FbflyRate are the offered loads performance is evaluated at
	// (defaults 0.44 / 0.60 flits/cycle/terminal — past the weakest
	// configurations' saturation knees, so the space splits into saturated
	// and unsaturated regions and the throughput axis discriminates).
	MeshRate  float64 `json:"mesh_rate,omitempty"`
	FbflyRate float64 `json:"fbfly_rate,omitempty"`
	// Warmup/Measure/Drain/Seed scale the per-point simulation (defaults
	// 500/1000/4000 cycles, seed 42 — the quick batch scale).
	Warmup  int    `json:"warmup,omitempty"`
	Measure int    `json:"measure,omitempty"`
	Drain   int    `json:"drain,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	// NoPrune disables dominance pruning (every feasible distinct point is
	// simulated). The frontier must be byte-identical either way; the
	// golden test pins that.
	NoPrune bool `json:"no_prune,omitempty"`
}

// Normalized fills every defaultable zero field.
func (s Spec) Normalized() Spec {
	if len(s.Topos) == 0 {
		s.Topos = []string{"mesh", "fbfly"}
	}
	if len(s.VCs) == 0 {
		s.VCs = []int{1, 2, 4}
	}
	archDefaults := []string{alloc.SepIF.String(), alloc.SepOF.String(), alloc.Wavefront.String()}
	arbDefaults := []string{arbiter.RoundRobin.String(), arbiter.Matrix.String()}
	if len(s.VAArchs) == 0 {
		s.VAArchs = archDefaults
	}
	if len(s.VAArbs) == 0 {
		s.VAArbs = arbDefaults
	}
	if len(s.VASparse) == 0 {
		s.VASparse = []bool{false, true}
	}
	if len(s.SAArchs) == 0 {
		s.SAArchs = archDefaults
	}
	if len(s.SAArbs) == 0 {
		s.SAArbs = arbDefaults
	}
	if len(s.SpecModes) == 0 {
		s.SpecModes = []string{core.SpecNone.String(), core.SpecReq.String(), core.SpecGnt.String()}
	}
	if len(s.Patterns) == 0 {
		s.Patterns = []string{"uniform"}
	}
	if len(s.Processes) == 0 {
		s.Processes = []string{"bernoulli"}
	}
	if s.MeshRate == 0 {
		s.MeshRate = 0.44
	}
	if s.FbflyRate == 0 {
		s.FbflyRate = 0.60
	}
	if s.Warmup == 0 {
		s.Warmup = 500
	}
	if s.Measure == 0 {
		s.Measure = 1000
	}
	if s.Drain == 0 {
		s.Drain = 4000
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	return s
}

// RateFor returns the evaluation load for a topology.
func (s Spec) RateFor(topo string) float64 {
	if topo == "fbfly" {
		return s.FbflyRate
	}
	return s.MeshRate
}

// Validate checks every axis value against the design-point and allocator
// vocabularies. A spec whose raw cross product exceeds sweep.MaxUnits is
// refused first, before any axis is walked.
func (s Spec) Validate() error {
	s = s.Normalized()
	if sweep.CountUnits(len(s.Topos), len(s.VCs), len(s.VAArchs), len(s.VAArbs), len(s.VASparse),
		len(s.SAArchs), len(s.SAArbs), len(s.SpecModes), len(s.Patterns), len(s.Processes)) > sweep.MaxUnits {
		return fmt.Errorf("dse: spec spans more than %d raw points", sweep.MaxUnits)
	}
	for _, topo := range s.Topos {
		for _, v := range s.VCs {
			if _, err := experiments.PointByName(topo, v); err != nil {
				return err
			}
		}
		if r := s.RateFor(topo); r <= 0 || r > 1 {
			return fmt.Errorf("dse: %s rate %g outside (0, 1]", topo, r)
		}
	}
	for _, a := range append(append([]string{}, s.VAArchs...), s.SAArchs...) {
		if _, err := sweep.ParseArch(a); err != nil {
			return err
		}
	}
	for _, a := range append(append([]string{}, s.VAArbs...), s.SAArbs...) {
		if _, err := sweep.ParseArb(a); err != nil {
			return err
		}
	}
	for _, m := range s.SpecModes {
		if _, err := sweep.ParseSpecMode(m); err != nil {
			return err
		}
	}
	// Workload axes validate over 64 terminals (both paper networks) at
	// every evaluation rate; trace replay is batch-only (sweep.Validate
	// rejects it too, but failing here names the axis).
	for _, proc := range s.Processes {
		if proc == "trace" {
			return fmt.Errorf("dse: process %q is batch-only (the search cannot carry trace bytes)", proc)
		}
		for _, pat := range s.Patterns {
			for _, topo := range s.Topos {
				w := traffic.Workload{
					Process: proc, Pattern: pat, Rate: s.RateFor(topo),
					BurstLen: s.BurstLen, Duty: s.Duty,
					Hotspots: s.Hotspots, HotspotFraction: s.HotspotFraction,
				}
				if err := w.Validate(64); err != nil {
					return err
				}
			}
		}
	}
	if s.Warmup < 0 || s.Measure < 1 || s.Drain < 0 {
		return fmt.Errorf("dse: bad phase lengths warmup=%d measure=%d drain=%d", s.Warmup, s.Measure, s.Drain)
	}
	return nil
}

// ID returns the search's content address: the hex SHA-256 of the
// normalized spec's JSON. Identical searches get identical job IDs, which
// makes job submission idempotent.
func (s Spec) ID() string {
	b, err := json.Marshal(s.Normalized())
	if err != nil {
		panic(err) // Spec is plain data; Marshal cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Candidate is one distinct design point: a simulation unit plus its
// analytical cost vector.
type Candidate struct {
	// Unit is the normalized simulation unit; Key its content address.
	Unit sweep.UnitConfig `json:"unit"`
	Key  string           `json:"key"`
	// Cost is the router-level allocator cost (VC allocator and switch
	// allocator combined; costmodel.Combine).
	Cost costmodel.Estimate `json:"cost"`
}

// costDominates reports whether a's cost vector weakly dominates b's with
// at least one strict improvement (all of delay/area/power ≤, one <).
func costDominates(a, b costmodel.Estimate) bool {
	if a.DelayNS > b.DelayNS || a.AreaUM2 > b.AreaUM2 || a.PowerMW > b.PowerMW {
		return false
	}
	return a.DelayNS < b.DelayNS || a.AreaUM2 < b.AreaUM2 || a.PowerMW < b.PowerMW
}

// Space is the enumerated, screened design space.
type Space struct {
	// Feasible holds the distinct, synthesizable candidates in enumeration
	// order (deterministic: topology slowest, then VCs, VA axes, SA axes,
	// spec mode, traffic pattern, arrival process fastest).
	Feasible []Candidate
	// Enumerated counts raw cross-product points; Distinct counts unique
	// content keys after canonical-hash dedup; Infeasible counts distinct
	// points the cost model refuses to synthesize (complexity budget).
	Enumerated int
	Distinct   int
	Infeasible int
}

// Enumerate expands the spec's cross product, dedups by content key, and
// screens every distinct point through the cost model.
func Enumerate(spec Spec) (Space, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return Space{}, err
	}
	tech := costmodel.Default45nm()
	var sp Space
	seen := map[string]bool{}
	for _, topo := range spec.Topos {
		for _, vcs := range spec.VCs {
			pt, err := experiments.PointByName(topo, vcs)
			if err != nil {
				return Space{}, err
			}
			for _, vaArch := range spec.VAArchs {
				for _, vaArb := range spec.VAArbs {
					for _, sparse := range spec.VASparse {
						for _, saArch := range spec.SAArchs {
							for _, saArb := range spec.SAArbs {
								for _, mode := range spec.SpecModes {
									for _, pat := range spec.Patterns {
										for _, proc := range spec.Processes {
											sp.Enumerated++
											u := sweep.UnitConfig{
												Topo: topo, VCsPerClass: vcs,
												VAArch: vaArch, VAArb: vaArb, VASparse: sparse,
												SAArch: saArch, SAArb: saArb, SpecMode: mode,
												Pattern: pat, Process: proc,
												BurstLen: spec.BurstLen, Duty: spec.Duty,
												Hotspots: spec.Hotspots, HotspotFraction: spec.HotspotFraction,
												Rate:   spec.RateFor(topo),
												Warmup: spec.Warmup, Measure: spec.Measure, Drain: spec.Drain,
												Seed: spec.Seed,
											}.Normalized()
											key := u.Key()
											if seen[key] {
												continue
											}
											seen[key] = true
											sp.Distinct++
											cost, err := candidateCost(tech, pt, u)
											if err != nil {
												return Space{}, err
											}
											if !cost.Synthesized {
												sp.Infeasible++
												continue
											}
											sp.Feasible = append(sp.Feasible, Candidate{Unit: u, Key: key, Cost: cost})
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return sp, nil
}

// candidateCost estimates the router-level allocator cost of one unit: the
// VC-allocator and switch-allocator estimates combined.
func candidateCost(tech costmodel.Tech, pt experiments.Point, u sweep.UnitConfig) (costmodel.Estimate, error) {
	vaArch, err := sweep.ParseArch(u.VAArch)
	if err != nil {
		return costmodel.Estimate{}, err
	}
	vaArb, err := sweep.ParseArb(u.VAArb)
	if err != nil {
		return costmodel.Estimate{}, err
	}
	saArch, err := sweep.ParseArch(u.SAArch)
	if err != nil {
		return costmodel.Estimate{}, err
	}
	saArb, err := sweep.ParseArb(u.SAArb)
	if err != nil {
		return costmodel.Estimate{}, err
	}
	mode, err := sweep.ParseSpecMode(u.SpecMode)
	if err != nil {
		return costmodel.Estimate{}, err
	}
	va := costmodel.VCAllocCost(tech, core.VCAllocConfig{
		Ports: pt.Ports, Spec: pt.Spec, Arch: vaArch, ArbKind: vaArb, Sparse: u.VASparse,
	})
	sa := costmodel.SwitchAllocCost(tech, core.SwitchAllocConfig{
		Ports: pt.Ports, VCs: pt.Spec.V(), Arch: saArch, ArbKind: saArb, SpecMode: mode,
	})
	return costmodel.Combine(va, sa), nil
}

// evalGroup is the comparability class of a design point: dominance
// relations (pruning and the frontier) are only meaningful between points
// measured under the same evaluation condition — topology, injection
// workload, and offered load. Grouping by topology alone was sound when
// the workload was a fixed uniform/bernoulli singleton; with workload axes
// a point under benign traffic must never prune or dominate one under
// bursty or hotspot traffic. The string leads with the topology so sorting
// by group keeps per-topology blocks contiguous.
func evalGroup(u sweep.UnitConfig) string {
	hexf := func(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }
	hs := make([]string, len(u.Hotspots))
	for i, h := range u.Hotspots {
		hs[i] = strconv.Itoa(h)
	}
	return strings.Join([]string{
		u.Topo, u.Pattern, u.Process,
		hexf(u.BurstLen), hexf(u.Duty),
		strings.Join(hs, ","), hexf(u.HotspotFraction),
		hexf(u.Rate),
	}, "|")
}

// searchOrder returns the feasible candidates sorted so that points likely
// to establish prunes come first: descending count of same-evaluation-group
// candidates they strictly cost-dominate, ties broken by content key. The
// order affects only how much gets pruned, never the frontier. The count is
// quadratic in the space, so ctx is checked once per row and a cancelled
// search stops here with ctx.Err().
func searchOrder(ctx context.Context, feasible []Candidate) ([]Candidate, error) {
	groups := make([]string, len(feasible))
	for i := range feasible {
		groups[i] = evalGroup(feasible[i].Unit)
	}
	domCount := make([]int, len(feasible))
	for i := range feasible {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for j := range feasible {
			if i != j &&
				groups[i] == groups[j] &&
				costDominates(feasible[i].Cost, feasible[j].Cost) {
				domCount[i]++
			}
		}
	}
	idx := make([]int, len(feasible))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if domCount[idx[a]] != domCount[idx[b]] {
			return domCount[idx[a]] > domCount[idx[b]]
		}
		return feasible[idx[a]].Key < feasible[idx[b]].Key
	})
	ordered := make([]Candidate, len(feasible))
	for i, j := range idx {
		ordered[i] = feasible[j]
	}
	return ordered, nil
}
