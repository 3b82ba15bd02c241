// Package curve traces latency-throughput curves adaptively: a coarse scan
// over a quantized rate lattice brackets the saturation knee, bisection
// narrows the bracket to a target resolution, and a latency-slope refinement
// pass concentrates the remaining samples on the curve's bend — simulating a
// fraction of the fixed-grid points a uniform sweep would pay for while
// locating the knee to the same lattice resolution.
//
// Every sampled point is an ordinary, independent simulation unit at a
// canonical lattice rate (experiments.RateLattice.Rate), resolved through a
// sweep.Evaluator — normally *sweep.Server — so points are byte-equal to the
// batch CLIs, hit the sweep content store, coalesce with concurrent requests,
// and persist to the disk tier. Tracing curves for a Pareto frontier therefore
// reuses every point the search already simulated, and re-tracing after a
// restart is disk-warm.
package curve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/sweep"
)

// SpecVersion pins the curve-spec schema; it prefixes the content hash that
// names trace jobs, so changing the spec's fields or defaults rotates every
// job ID.
const SpecVersion = 1

// Spec describes one adaptive trace: the design point and workload to sweep
// (Base, whose Rate field is ignored — each sampled point overwrites it with
// a canonical lattice rate) plus the lattice and knee-search parameters.
type Spec struct {
	SpecVersion int `json:"spec_version,omitempty"`
	// Base is the unit template every sampled point shares; only Rate
	// varies between points. Base.Rate itself is cleared on normalization.
	Base sweep.UnitConfig `json:"base"`
	// Step is the rate-lattice quantum (experiments.DefaultLatticeStep when
	// zero). Every sampled rate is float64(i)*Step for an integer i.
	Step float64 `json:"step,omitempty"`
	// MinRate/MaxRate bound the scan; both are snapped to the lattice.
	// Defaults: one lattice step, and the top of the paper's fixed grid for
	// the design point (experiments.InjectionRates).
	MinRate float64 `json:"min_rate,omitempty"`
	MaxRate float64 `json:"max_rate,omitempty"`
	// Coarse is the number of evenly spaced coarse-scan points, endpoints
	// included (default 6, minimum 2).
	Coarse int `json:"coarse,omitempty"`
	// KneeResolution is the bisection termination bound in lattice steps
	// (default 1): bisection stops when the unsaturated/saturated bracket
	// is at most this many indices wide.
	KneeResolution int `json:"knee_resolution,omitempty"`
	// SlopeFactor drives the latency-slope refinement pass: after the knee
	// is bracketed, midpoints are inserted between adjacent samples whose
	// latency ratio exceeds this factor, concentrating points on the bend
	// (default 2; values <= 1 disable refinement).
	SlopeFactor float64 `json:"slope_factor,omitempty"`
	// MaxPoints bounds the total simulated points per trace (default 64, at
	// most sweep.MaxUnits).
	MaxPoints int `json:"max_points,omitempty"`
}

// Lattice returns the spec's rate lattice.
func (s Spec) Lattice() experiments.RateLattice {
	return experiments.RateLattice{Step: s.Step}
}

// Normalized fills every defaultable zero field. Hashing, validation and
// tracing all go through the normalized form.
func (s Spec) Normalized() Spec {
	if s.SpecVersion == 0 {
		s.SpecVersion = SpecVersion
	}
	s.Base.Rate = 0
	s.Base = s.Base.Normalized()
	if s.Step == 0 {
		s.Step = experiments.DefaultLatticeStep
	}
	lat := s.Lattice()
	if s.MinRate == 0 {
		s.MinRate = lat.Rate(1)
	}
	if s.MaxRate == 0 {
		if pt, err := experiments.PointByName(s.Base.Topo, s.Base.VCsPerClass); err == nil {
			grid := experiments.InjectionRates(pt)
			s.MaxRate = grid[len(grid)-1]
		}
	}
	s.MinRate = lat.Snap(s.MinRate)
	s.MaxRate = lat.Snap(s.MaxRate)
	if s.Coarse == 0 {
		s.Coarse = 6
	}
	if s.KneeResolution == 0 {
		s.KneeResolution = 1
	}
	if s.SlopeFactor == 0 {
		s.SlopeFactor = 2
	}
	if s.MaxPoints == 0 {
		s.MaxPoints = 64
	}
	return s
}

// Validate checks the normalized spec; the base unit is validated at the
// minimum rate (its own rate field is ignored by tracing).
func (s Spec) Validate() error {
	s = s.Normalized()
	if s.SpecVersion != SpecVersion {
		return fmt.Errorf("curve: spec version %d not supported (have %d)", s.SpecVersion, SpecVersion)
	}
	if s.Step <= 0 || s.Step > 1 {
		return fmt.Errorf("curve: lattice step %g outside (0, 1]", s.Step)
	}
	if s.MaxRate <= 0 {
		return fmt.Errorf("curve: max_rate %g must be positive", s.MaxRate)
	}
	lat := s.Lattice()
	if lat.Index(s.MinRate) < 1 {
		return fmt.Errorf("curve: min_rate %g below the first lattice point %g", s.MinRate, lat.Rate(1))
	}
	if lat.Index(s.MinRate) >= lat.Index(s.MaxRate) {
		return fmt.Errorf("curve: min_rate %g not below max_rate %g on the lattice", s.MinRate, s.MaxRate)
	}
	if s.Coarse < 2 {
		return fmt.Errorf("curve: coarse %d < 2", s.Coarse)
	}
	if s.KneeResolution < 1 {
		return fmt.Errorf("curve: knee_resolution %d < 1", s.KneeResolution)
	}
	if s.MaxPoints > sweep.MaxUnits {
		return fmt.Errorf("curve: max_points %d above %d", s.MaxPoints, sweep.MaxUnits)
	}
	if s.MaxPoints < s.Coarse {
		return fmt.Errorf("curve: max_points %d below coarse count %d", s.MaxPoints, s.Coarse)
	}
	base := s.Base
	base.Rate = s.MinRate
	return base.Validate()
}

// ID returns the spec's content address (the trace-job ID): the hex SHA-256
// of a versioned canonical JSON serialization of the normalized spec.
func (s Spec) ID() string {
	s = s.Normalized()
	b, _ := json.Marshal(s)
	sum := sha256.Sum256(append([]byte(fmt.Sprintf("noc-curve/v%d\n", SpecVersion)), b...))
	return hex.EncodeToString(sum[:])
}

// unitAt spells the simulation unit for lattice index i: the base config at
// the canonical lattice rate.
func (s Spec) unitAt(i int) sweep.UnitConfig {
	u := s.Base
	u.Rate = s.Lattice().Rate(i)
	return u.Normalized()
}

// Point is one sampled curve point.
type Point struct {
	// Index is the lattice index; Result.Rate == Step * Index exactly.
	Index int `json:"index"`
	// Stage records which tracer phase sampled the point: "coarse",
	// "bisect" or "refine".
	Stage string `json:"stage"`
	// Saturated is the knee criterion (experiments.Saturated) applied to
	// the point (the raw simulator flag is Result.Saturated).
	Saturated bool `json:"saturated"`
	// Result is the full simulation unit result, byte-equal to what the
	// batch CLIs compute for the same unit.
	Result sweep.UnitResult `json:"result"`
}

// Trace is the outcome of one adaptive trace.
type Trace struct {
	SpecVersion int  `json:"spec_version"`
	Spec        Spec `json:"spec"`
	// Points are the sampled curve points in ascending rate order; each
	// lattice index is simulated at most once.
	Points []Point `json:"points"`
	// KneeIndex/KneeRate locate the saturation knee: the highest sampled
	// lattice index still unsaturated under the knee criterion. KneeUpper
	// is the lowest sampled saturated index (the bracket's other edge;
	// KneeUpper-KneeIndex <= KneeResolution when KneeFound).
	KneeIndex int     `json:"knee_index"`
	KneeRate  float64 `json:"knee_rate"`
	KneeUpper int     `json:"knee_upper,omitempty"`
	// KneeFound reports whether the scan bracketed a knee inside
	// [MinRate, MaxRate]; false means the curve never saturated below
	// MaxRate (KneeIndex = the top index) or was already saturated at
	// MinRate (KneeIndex = the bottom index).
	KneeFound bool `json:"knee_found"`
	// Simulated counts distinct lattice points this trace evaluated;
	// FixedGridPoints is what a fixed grid at the same knee resolution
	// would have evaluated over the same range.
	Simulated       int `json:"simulated"`
	FixedGridPoints int `json:"fixed_grid_points"`
}

// Series converts the trace to a named experiments curve for rendering
// alongside batch output (FormatNetSeries handles the non-uniform grid).
func (t Trace) Series(name string) experiments.NetSeries {
	s := experiments.NetSeries{Name: name}
	for _, p := range t.Points {
		s.Points = append(s.Points, p.Result.NetPoint())
	}
	return s
}

// Options tunes a trace's execution, never its answer: the sampled points
// and knee are identical for every worker count.
type Options struct {
	// Workers bounds the trace's own simulation fan-out within the coarse
	// scan and each refinement round (default 1; the evaluator's pool
	// bounds true parallelism below it).
	Workers int
	// Progress, when non-nil, is called after every completed point with
	// the cumulative sampled count.
	Progress func(simulated int)
}

// NewService is the /curve job API: GOMAXPROCS-wide traces over eval.
func NewService(eval sweep.Evaluator) *jobs.Service[Spec, Trace] {
	return jobs.New(func(ctx context.Context, spec Spec, progress func(jobs.Progress)) (Trace, error) {
		return TraceCurve(ctx, eval, spec, Options{
			Workers:  runtime.GOMAXPROCS(0),
			Progress: func(simulated int) { progress(jobs.Progress{Simulated: simulated}) },
		})
	})
}

// tracer carries one trace's in-flight state.
type tracer struct {
	spec    Spec
	eval    sweep.Evaluator
	opts    Options
	mu      sync.Mutex // guards results and stages while evalAll's units complete
	results map[int]sweep.UnitResult
	stages  map[int]string
}

// TraceCurve runs one adaptive trace: coarse scan, knee bisection, then
// latency-slope refinement. The sampled point set and knee estimate are
// deterministic functions of the spec (worker count and evaluator caching
// never change them).
func TraceCurve(ctx context.Context, eval sweep.Evaluator, spec Spec, opts Options) (Trace, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return Trace{}, err
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	tr := &tracer{
		spec: spec, eval: eval, opts: opts,
		results: map[int]sweep.UnitResult{},
		stages:  map[int]string{},
	}
	lat := spec.Lattice()
	iMin, iMax := lat.Index(spec.MinRate), lat.Index(spec.MaxRate)

	// Coarse scan: evenly spaced lattice indices, endpoints included.
	var coarse []int
	for k := 0; k < spec.Coarse; k++ {
		i := iMin + k*(iMax-iMin)/(spec.Coarse-1)
		if len(coarse) == 0 || coarse[len(coarse)-1] != i {
			coarse = append(coarse, i)
		}
	}
	if err := tr.evalAll(ctx, coarse, "coarse"); err != nil {
		return Trace{}, err
	}

	// Bracket the knee from the coarse results: lo = the last index before
	// the first saturated one, hi = that saturated index.
	lo, hi := -1, -1
	for k, i := range coarse {
		if experiments.Saturated(tr.results[i].NetPoint(), spec.Step) {
			hi = i
			if k > 0 {
				lo = coarse[k-1]
			}
			break
		}
		lo = i
	}

	out := Trace{SpecVersion: SpecVersion, Spec: spec}
	switch {
	case hi == -1:
		// Never saturated below MaxRate: the knee is at or above the top.
		out.KneeIndex, out.KneeFound = iMax, false
	case lo == -1:
		// Already saturated at MinRate: the knee is below the bottom.
		out.KneeIndex, out.KneeUpper, out.KneeFound = iMin, iMin, false
	default:
		// Bisect the bracket on lattice indices. Each step halves hi-lo, so
		// this terminates in at most ceil(log2((iMax-iMin)/(Coarse-1))) -
		// log2(KneeResolution) evaluations.
		for hi-lo > spec.KneeResolution && len(tr.results) < spec.MaxPoints {
			mid := (lo + hi) / 2
			if mid == lo || mid == hi {
				break
			}
			if err := tr.evalAll(ctx, []int{mid}, "bisect"); err != nil {
				return Trace{}, err
			}
			if experiments.Saturated(tr.results[mid].NetPoint(), spec.Step) {
				hi = mid
			} else {
				lo = mid
			}
		}
		out.KneeIndex, out.KneeUpper, out.KneeFound = lo, hi, true
	}

	// Latency-slope refinement: insert midpoints between adjacent sampled
	// points whose latency ratio exceeds SlopeFactor, concentrating samples
	// on the bend. Each round halves the offending gaps, so the pass
	// terminates; MaxPoints bounds it regardless.
	if spec.SlopeFactor > 1 {
		for len(tr.results) < spec.MaxPoints {
			var inserts []int
			idxs := tr.sortedIndices()
			for k := 0; k+1 < len(idxs); k++ {
				a, b := idxs[k], idxs[k+1]
				if b-a <= spec.KneeResolution {
					continue
				}
				la, lb := tr.results[a].Latency, tr.results[b].Latency
				if la > 0 && lb > spec.SlopeFactor*la {
					inserts = append(inserts, (a+b)/2)
				}
				if len(tr.results)+len(inserts) >= spec.MaxPoints {
					break
				}
			}
			if len(inserts) == 0 {
				break
			}
			if err := tr.evalAll(ctx, inserts, "refine"); err != nil {
				return Trace{}, err
			}
		}
	}

	for _, i := range tr.sortedIndices() {
		r := tr.results[i]
		out.Points = append(out.Points, Point{
			Index: i, Stage: tr.stages[i], Saturated: experiments.Saturated(r.NetPoint(), spec.Step), Result: r,
		})
	}
	out.KneeRate = lat.Rate(out.KneeIndex)
	out.Simulated = len(out.Points)
	out.FixedGridPoints = (iMax-iMin)/spec.KneeResolution + 1
	return out, nil
}

// evalAll evaluates the given lattice indices (skipping any already
// sampled) with up to Workers units in flight.
func (t *tracer) evalAll(ctx context.Context, idxs []int, stage string) error {
	var todo []int
	var units []sweep.UnitConfig
	for _, i := range idxs {
		if _, done := t.results[i]; !done {
			todo = append(todo, i)
			units = append(units, t.spec.unitAt(i))
		}
	}
	_, err := EvalUnits(ctx, t.eval, units, t.opts.Workers, func(k int, res sweep.UnitResult) {
		t.mu.Lock()
		t.results[todo[k]] = res
		t.stages[todo[k]] = stage
		n := len(t.results)
		t.mu.Unlock()
		if t.opts.Progress != nil {
			t.opts.Progress(n)
		}
	})
	if err != nil {
		return fmt.Errorf("curve: %w", err)
	}
	return nil
}

// sortedIndices returns every sampled lattice index in ascending order.
func (t *tracer) sortedIndices() []int {
	idxs := make([]int, 0, len(t.results))
	for i := range t.results {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	return idxs
}
