package curve

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// The network figures (Figs. 13 and 14, the §4.3.3 VC allocator sweep, the
// §3.2 pattern sweep and the workload curves) are lists of simulation units
// evaluated over a sweep.Evaluator, so a unit two figures share runs once per
// evaluator: the baseline unit (sep_if VC allocation, sep_if switch
// allocation, spec_req) is Fig. 13's sep_if, Fig. 14's spec_req and the VC
// allocator sweep's va=sep_if series. Every driver fans its units out over
// scale.Workers evaluations at a time; the evaluator's pool bounds how many
// simulate at once. Cancelling ctx abandons the figure with ctx's error.

// BaseUnit is the unit a design point's network figures vary: the paper's
// §5.3.3 baseline (experiments.BuildSim) under scale's workload and phases.
// Its Rate is left zero.
func BaseUnit(pt experiments.Point, scale experiments.SimScale) sweep.UnitConfig {
	w := scale.Workload.Normalized()
	return sweep.UnitConfig{
		Topo: pt.Topo, VCsPerClass: pt.Spec.VCsPerClass,
		Pattern: w.Pattern, Process: w.Process, BurstLen: w.BurstLen, Duty: w.Duty,
		Hotspots: w.Hotspots, HotspotFraction: w.HotspotFraction,
		Warmup: scale.Warmup, Measure: scale.Measure, Drain: scale.Drain, Seed: scale.Seed,
	}
}

// A variant is one series of a network figure: its name, and what it changes
// in the base unit.
type variant struct {
	name string
	set  func(*sweep.UnitConfig)
}

// axis is one variant per value, each named by its value and set by set.
func axis(set func(u *sweep.UnitConfig, v string), values ...string) []variant {
	vs := make([]variant, len(values))
	for i, v := range values {
		vs[i] = variant{v, func(u *sweep.UnitConfig) { set(u, v) }}
	}
	return vs
}

// figure evaluates every variant at every rate over eval, one series each:
// the units are each variant's change to the base unit at every rate.
func figure(ctx context.Context, eval sweep.Evaluator, pt experiments.Point, rates []float64, scale experiments.SimScale, vs []variant) ([]experiments.NetSeries, error) {
	units := make([]sweep.UnitConfig, 0, len(vs)*len(rates))
	for _, v := range vs {
		for _, rate := range rates {
			u := BaseUnit(pt, scale)
			v.set(&u)
			u.Rate = rate
			units = append(units, u)
		}
	}
	res, err := EvalUnits(ctx, eval, units, scale.Workers, nil)
	if err != nil {
		return nil, err
	}
	out := make([]experiments.NetSeries, len(vs))
	for i, v := range vs {
		out[i] = experiments.NetSeries{Name: v.name, Points: make([]experiments.NetPoint, len(rates))}
		for j := range rates {
			out[i].Points[j] = res[i*len(rates)+j].NetPoint()
		}
	}
	return out, nil
}

// Fig13 regenerates one subfigure of Fig. 13: average packet latency vs
// injection rate for the three switch allocator architectures (separable
// input-first VC allocation and pessimistic speculation, per §5.3.3).
func Fig13(ctx context.Context, eval sweep.Evaluator, pt experiments.Point, rates []float64, scale experiments.SimScale) ([]experiments.NetSeries, error) {
	return figure(ctx, eval, pt, rates, scale, axis(func(u *sweep.UnitConfig, v string) { u.SAArch = v }, "sep_if", "sep_of", "wf"))
}

// Fig14 regenerates one subfigure of Fig. 14: the three speculation schemes
// on a separable input-first switch allocator.
func Fig14(ctx context.Context, eval sweep.Evaluator, pt experiments.Point, rates []float64, scale experiments.SimScale) ([]experiments.NetSeries, error) {
	return figure(ctx, eval, pt, rates, scale, axis(func(u *sweep.UnitConfig, v string) { u.SpecMode = v }, "nonspec", "spec_gnt", "spec_req"))
}

// VASweep regenerates the §4.3.3 experiment the paper describes but omits
// for space: latency curves for the three VC allocator architectures, and the
// separable input-first one on sparse VC requests, demonstrating the
// network's insensitivity to the choice.
func VASweep(ctx context.Context, eval sweep.Evaluator, pt experiments.Point, rates []float64, scale experiments.SimScale) ([]experiments.NetSeries, error) {
	vs := axis(func(u *sweep.UnitConfig, v string) { u.VAArch = v }, "sep_if", "sep_of", "wf")
	vs = append(vs, variant{"sep_if(sparse)", func(u *sweep.UnitConfig) { u.VASparse = true }})
	for i := range vs {
		vs[i].name = "va=" + vs[i].name
	}
	return figure(ctx, eval, pt, rates, scale, vs)
}

// WorkloadCurve runs one design point under scale.Workload across the given
// rates: the latency-throughput curve for bursty and hotspot workloads.
func WorkloadCurve(ctx context.Context, eval sweep.Evaluator, pt experiments.Point, rates []float64, scale experiments.SimScale) ([]experiments.NetSeries, error) {
	return figure(ctx, eval, pt, rates, scale, []variant{{experiments.WorkloadName(scale.Workload), func(*sweep.UnitConfig) {}}})
}

// PatternSweep runs one design point under several synthetic traffic
// patterns at a fixed rate, one series per pattern; the paper reports that
// its conclusions are largely invariant to traffic pattern selection
// (§3.2). Each series runs scale.Workload with its Pattern set to the name.
func PatternSweep(ctx context.Context, eval sweep.Evaluator, pt experiments.Point, rate float64, scale experiments.SimScale, patterns []string) ([]experiments.NetSeries, error) {
	return figure(ctx, eval, pt, []float64{rate}, scale, axis(func(u *sweep.UnitConfig, v string) { u.Pattern = v }, patterns...))
}

// EvalUnits resolves units over eval, up to workers at a time, and returns
// their results in list order. It is the one place outside package sweep
// that fans units out over an evaluator: the figure drivers, TraceCurve and
// the design-space search all go through it. done, when non-nil, is called
// with each unit's position and result as it completes, on the goroutine
// that evaluated it. An error is that of the first unit, in list order, that
// failed; units not started when ctx is cancelled fail with ctx's error.
func EvalUnits(ctx context.Context, eval sweep.Evaluator, units []sweep.UnitConfig, workers int, done func(k int, res sweep.UnitResult)) ([]sweep.UnitResult, error) {
	results := make([]sweep.UnitResult, len(units))
	errs := make([]error, len(units))
	sem := make(chan struct{}, max(min(workers, len(units)), 1))
	var wg sync.WaitGroup
	for k, u := range units {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if errs[k] = ctx.Err(); errs[k] != nil {
				return
			}
			results[k], errs[k] = eval.EvalUnit(ctx, u)
			if errs[k] == nil && done != nil {
				done(k, results[k])
			}
		}()
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("unit %d (rate %g): %w", k, units[k].Rate, err)
		}
	}
	return results, nil
}
