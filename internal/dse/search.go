package dse

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/curve"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/sweep"
)

// SearchOptions tunes a search's execution, never its answer.
type SearchOptions struct {
	// Workers bounds the search's own simulation fan-out per round
	// (default 1; the evaluator's pool bounds true parallelism below it).
	// The frontier is byte-identical for every worker count.
	Workers int
	// Progress, when non-nil, is called after every simulation round with
	// cumulative counts.
	Progress func(simulated, pruned, feasible int)
}

// FrontierPoint is one Pareto-optimal design point.
type FrontierPoint struct {
	// Key/Unit identify the design point (content-addressed).
	Key  string           `json:"key"`
	Unit sweep.UnitConfig `json:"unit"`
	// Label is a compact human-readable spelling of the point.
	Label string `json:"label"`
	// DelayNS/AreaUM2/PowerMW/GateEquivalents are the cost axes
	// (router-level allocator estimate).
	DelayNS         float64 `json:"delay_ns"`
	AreaUM2         float64 `json:"area_um2"`
	PowerMW         float64 `json:"power_mw"`
	GateEquivalents float64 `json:"gate_equivalents"`
	// Perf is the performance axis: accepted throughput at the evaluation
	// load, capped at the offered load (flits/cycle/terminal).
	Perf float64 `json:"perf"`
	// Latency/Throughput/Saturated report the underlying sim measurement.
	Latency    float64 `json:"latency"`
	Throughput float64 `json:"throughput"`
	Saturated  bool    `json:"saturated"`
}

// Result is the outcome of one design-space search.
type Result struct {
	SchemaVersion int  `json:"schema_version"`
	Spec          Spec `json:"spec"`
	// Enumerated raw points collapse to Distinct content keys; Infeasible
	// of those fail the synthesis budget; the remaining Feasible points
	// split into Simulated and Pruned (skipped with a dominance proof).
	Enumerated int `json:"enumerated"`
	Distinct   int `json:"distinct"`
	Infeasible int `json:"infeasible"`
	Feasible   int `json:"feasible"`
	Simulated  int `json:"simulated"`
	Pruned     int `json:"pruned"`
	// Frontier is the per-evaluation-group Pareto-optimal set over (delay,
	// area, power, −perf) — points compete only within one (topology,
	// workload, rate) condition — in canonical order: evaluation group
	// (topology first), then delay, area, power, key.
	Frontier []FrontierPoint `json:"frontier"`
}

// NewService is the /pareto job API: GOMAXPROCS-wide searches over eval.
func NewService(eval sweep.Evaluator) *jobs.Service[Spec, Result] {
	return jobs.New(func(ctx context.Context, spec Spec, progress func(jobs.Progress)) (Result, error) {
		return Search(ctx, eval, spec, SearchOptions{
			Workers:  runtime.GOMAXPROCS(0),
			Progress: func(n, p, f int) { progress(jobs.Progress{Simulated: n, Pruned: p, Feasible: f}) },
		})
	})
}

// perfOf is the performance axis: sustained accepted throughput at the
// evaluation load, capped at the offered rate. An unsaturated network (its
// measured packets all drained, up to the sim's 2% tolerance) sustains the
// offered load by definition, so it scores the cap exactly — the
// finite-window throughput sample would sit a noise-hair below the rate
// otherwise, and no config can ever exceed its own offered load. A
// saturated network scores its measured accepted throughput. The reachable
// cap is what makes pruning exact: perf(·) ≤ rate for every config by
// construction, so a simulated config at the cap is a proven perf upper
// bound for every config it is compared against.
func perfOf(res sweep.UnitResult, rate float64) float64 {
	if !res.Saturated || res.Throughput > rate {
		return rate
	}
	return res.Throughput
}

// Search finds the Pareto frontier of the spec's design space, simulating
// as few points as it can prove safe.
//
// Pruning invariant (DESIGN.md §11): candidate A is skipped only when some
// already-simulated same-evaluation-group B (same topology, workload and
// offered load — see evalGroup) strictly cost-dominates A and achieved
// perf(B) == rate, the axis cap. Then B dominates A on every frontier axis
// (cost strictly, perf weakly since perf(A) ≤ rate), so A is not on the
// frontier; and by transitivity anything A would dominate, B dominates
// too, so removing A from the comparison set changes nothing. Hence the
// frontier computed over the simulated subset equals the brute-force
// frontier exactly — for every worker count and prune order.
func Search(ctx context.Context, eval sweep.Evaluator, spec Spec, opts SearchOptions) (Result, error) {
	spec = spec.Normalized()
	sp, err := Enumerate(spec)
	if err != nil {
		return Result{}, err
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	ordered, err := searchOrder(ctx, sp.Feasible)
	if err != nil {
		return Result{}, err
	}

	var (
		simulated []evaled
		pruned    = make([]bool, len(ordered))
		done      = make([]bool, len(ordered))
		nPruned   int
	)
	// prunableBy records, per evaluation group, the simulated cost vectors
	// that hit the perf cap — the only ones allowed to prune.
	prunableBy := map[string][]Candidate{}

	for {
		// Collect the next round: the first ≤Workers candidates neither
		// pruned nor simulated, in search order.
		var round []int
		for i := range ordered {
			if !done[i] && !pruned[i] {
				round = append(round, i)
				if len(round) == opts.Workers {
					break
				}
			}
		}
		if len(round) == 0 {
			break
		}
		// Simulate the round in parallel; results land by round position so
		// everything after this block is deterministic.
		units := make([]sweep.UnitConfig, len(round))
		for ri, i := range round {
			units[ri] = ordered[i].Unit
		}
		results, err := curve.EvalUnits(ctx, eval, units, len(units), nil)
		if err != nil {
			return Result{}, fmt.Errorf("dse: %w", err)
		}
		for ri, i := range round {
			done[i] = true
			cand := ordered[i]
			perf := perfOf(results[ri], cand.Unit.Rate)
			simulated = append(simulated, evaled{cand: cand, res: results[ri], perf: perf})
			if !spec.NoPrune && perf == cand.Unit.Rate {
				g := evalGroup(cand.Unit)
				prunableBy[g] = append(prunableBy[g], cand)
			}
		}
		// Apply prunes to everything still pending.
		if !spec.NoPrune {
			for i := range ordered {
				if done[i] || pruned[i] {
					continue
				}
				for _, p := range prunableBy[evalGroup(ordered[i].Unit)] {
					if costDominates(p.Cost, ordered[i].Cost) {
						pruned[i] = true
						nPruned++
						break
					}
				}
			}
		}
		if opts.Progress != nil {
			opts.Progress(len(simulated), nPruned, len(ordered))
		}
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}

	// Frontier: per-evaluation-group non-dominated set over (delay, area,
	// power, −perf) among the simulated points, in canonical order.
	simGroups := make([]string, len(simulated))
	for i := range simulated {
		simGroups[i] = evalGroup(simulated[i].cand.Unit)
	}
	var frontier []FrontierPoint
	for i, a := range simulated {
		dominated := false
		for j, b := range simulated {
			if i == j || simGroups[i] != simGroups[j] {
				continue
			}
			if dominates(b, a) {
				dominated = true
				break
			}
		}
		if !dominated {
			frontier = append(frontier, FrontierPoint{
				Key:             a.cand.Key,
				Unit:            a.cand.Unit,
				Label:           labelOf(a.cand.Unit),
				DelayNS:         a.cand.Cost.DelayNS,
				AreaUM2:         a.cand.Cost.AreaUM2,
				PowerMW:         a.cand.Cost.PowerMW,
				GateEquivalents: a.cand.Cost.GateEquivalents,
				Perf:            a.perf,
				Latency:         a.res.Latency,
				Throughput:      a.res.Throughput,
				Saturated:       a.res.Saturated,
			})
		}
	}
	sort.Slice(frontier, func(i, j int) bool {
		a, b := frontier[i], frontier[j]
		if ga, gb := evalGroup(a.Unit), evalGroup(b.Unit); ga != gb {
			return ga < gb
		}
		if a.DelayNS != b.DelayNS {
			return a.DelayNS < b.DelayNS
		}
		if a.AreaUM2 != b.AreaUM2 {
			return a.AreaUM2 < b.AreaUM2
		}
		if a.PowerMW != b.PowerMW {
			return a.PowerMW < b.PowerMW
		}
		return a.Key < b.Key
	})

	return Result{
		SchemaVersion: sweep.SchemaVersion,
		Spec:          spec,
		Enumerated:    sp.Enumerated,
		Distinct:      sp.Distinct,
		Infeasible:    sp.Infeasible,
		Feasible:      len(sp.Feasible),
		Simulated:     len(simulated),
		Pruned:        nPruned,
		Frontier:      frontier,
	}, nil
}

// evaled pairs a simulated candidate with its measured performance.
type evaled struct {
	cand Candidate
	res  sweep.UnitResult
	perf float64
}

// dominates reports full frontier-axis domination: b weakly better than a
// on delay, area, power and perf, strictly on at least one.
func dominates(b, a evaled) bool {
	if b.cand.Cost.DelayNS > a.cand.Cost.DelayNS ||
		b.cand.Cost.AreaUM2 > a.cand.Cost.AreaUM2 ||
		b.cand.Cost.PowerMW > a.cand.Cost.PowerMW ||
		b.perf < a.perf {
		return false
	}
	return b.cand.Cost.DelayNS < a.cand.Cost.DelayNS ||
		b.cand.Cost.AreaUM2 < a.cand.Cost.AreaUM2 ||
		b.cand.Cost.PowerMW < a.cand.Cost.PowerMW ||
		b.perf > a.perf
}

// labelOf renders a compact design-point spelling, e.g.
// "mesh v2 va=sep_if/rr/sparse sa=wf/rr/spec_req". Non-baseline workloads
// get a suffix ("… wl=mmp(b32,d0.25)/hotspot(f0.2)") so frontier listings
// stay unambiguous when a search spans workload axes.
func labelOf(u sweep.UnitConfig) string {
	va := u.VAArch + "/" + u.VAArb
	if u.VASparse {
		va += "/sparse"
	}
	s := fmt.Sprintf("%s v%d va=%s sa=%s/%s/%s", u.Topo, u.VCsPerClass, va, u.SAArch, u.SAArb, u.SpecMode)
	if u.Process != "bernoulli" || u.Pattern != "uniform" {
		s += " wl=" + experiments.WorkloadName(u.Workload())
	}
	return s
}
