// Package quality implements the open-loop matching-quality methodology of
// Becker & Dally (SC '09) §3.1: allocators are driven with sequences of
// pseudo-random request matrices at a configurable request rate, and the
// total number of grants is normalized against the number a maximum-size
// allocator produces for the same request sequence.
//
// The resulting rate→quality curves regenerate Fig. 7 (VC allocators) and
// Fig. 12 (switch allocators).
package quality

import (
	"fmt"
	"sync"

	"repro/internal/alloc"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/xrand"
)

// Point is one sample of a quality curve.
type Point struct {
	// Rate is the request probability per input VC per cycle (the paper's
	// "requests per VC per cycle").
	Rate float64
	// Quality is total grants divided by the maximum-size allocator's
	// grants for the same request sequence; 1.0 is ideal.
	Quality float64
	// Grants and MaxGrants are the raw totals behind Quality.
	Grants, MaxGrants int
}

// Series is a named quality curve.
type Series struct {
	Name   string
	Points []Point
}

// DefaultRates returns the request-rate sweep used in the paper's figures
// (0 < rate <= 1).
func DefaultRates() []float64 {
	rates := make([]float64, 20)
	for i := range rates {
		rates[i] = float64(i+1) * 0.05
	}
	return rates
}

// VCWorkload generates random, legal VC-allocation request sets: each input
// VC requests with the given probability, targeting a uniformly random
// output port and a uniformly random legal successor class (all VCs within
// the class, per §4.2).
type VCWorkload struct {
	Ports int
	Spec  core.VCSpec

	rng        *xrand.Source
	classMasks []core.VCMask // per (m, r) class
	reqs       []core.VCRequest
}

// NewVCWorkload builds a workload generator seeded deterministically.
func NewVCWorkload(ports int, spec core.VCSpec, seed uint64) *VCWorkload {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if spec.ResourceSucc == nil {
		spec.ResourceSucc = core.DefaultSuccessors(spec.ResourceClasses)
	}
	w := &VCWorkload{
		Ports: ports,
		Spec:  spec,
		rng:   xrand.New(seed),
		reqs:  make([]core.VCRequest, ports*spec.V()),
	}
	for m := 0; m < spec.MessageClasses; m++ {
		for r := 0; r < spec.ResourceClasses; r++ {
			w.classMasks = append(w.classMasks, spec.ClassMask(m, r))
		}
	}
	return w
}

// Next generates the next request set at the given rate. The returned slice
// is reused across calls.
func (w *VCWorkload) Next(rate float64) []core.VCRequest {
	v := w.Spec.V()
	for port := 0; port < w.Ports; port++ {
		for vc := 0; vc < v; vc++ {
			i := port*v + vc
			if !w.rng.Bool(rate) {
				w.reqs[i] = core.VCRequest{}
				continue
			}
			m, r, _ := w.Spec.Decompose(vc)
			succ := w.Spec.ResourceSucc[r]
			nr := succ[w.rng.Intn(len(succ))]
			w.reqs[i] = core.VCRequest{
				Active:     true,
				OutPort:    w.rng.Intn(w.Ports),
				Candidates: w.classMasks[w.Spec.ClassIndex(m, nr)],
			}
		}
	}
	return w.reqs
}

// Matrix writes the bipartite request matrix equivalent of reqs into m
// (rows: input VCs, cols: output VCs across all ports) for maximum-size
// normalization.
func (w *VCWorkload) Matrix(reqs []core.VCRequest, m *bitvec.Matrix) {
	v := w.Spec.V()
	m.Reset()
	for i, r := range reqs {
		if !r.Active {
			continue
		}
		m.Row(i).OrWordAt(r.OutPort*v, uint64(r.Candidates))
	}
}

// VCSeries measures the matching quality of the VC allocator configuration
// over the given rates, using trials request matrices per rate (the paper
// uses 10000).
func VCSeries(cfg core.VCAllocConfig, rates []float64, trials int, seed uint64) Series {
	return VCSeriesMulti([]core.VCAllocConfig{cfg}, rates, trials, seed, 1)[0]
}

// VCSeriesMulti measures several VC allocator configurations sharing one
// design point (Ports and Spec) over the given rates, sweeping up to
// `workers` rate points concurrently. Each rate point is an independent
// task: the workload re-seeds per rate so every point sees an identical
// request stream, and every allocator starts from its reset state, so the
// output is bit-identical to sequential per-config VCSeries calls for any
// worker count. Within a task the workload and the maximum-size reference
// are generated once and shared across all configurations.
func VCSeriesMulti(cfgs []core.VCAllocConfig, rates []float64, trials int, seed uint64, workers int) []Series {
	if len(cfgs) == 0 {
		return nil
	}
	p, v := cfgs[0].Ports, cfgs[0].Spec.V()
	for _, cfg := range cfgs {
		if cfg.Ports != p || cfg.Spec.V() != v {
			panic("quality: VCSeriesMulti configs must share Ports and Spec")
		}
	}
	out := make([]Series, len(cfgs))
	for k, cfg := range cfgs {
		out[k] = Series{Name: core.NewVCAllocator(cfg).Name(), Points: make([]Point, len(rates))}
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(rates) {
		workers = len(rates)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for ri, rate := range rates {
		ri, rate := ri, rate
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			// Fresh per-task instances: allocator construction is equivalent
			// to the per-rate Reset of the sequential code.
			allocs := make([]core.VCAllocator, len(cfgs))
			for k, cfg := range cfgs {
				allocs[k] = core.NewVCAllocator(cfg)
			}
			max := alloc.NewMaximum(p*v, p*v)
			reqMat := bitvec.NewMatrix(p*v, p*v)
			w := NewVCWorkload(p, cfgs[0].Spec, seed)
			grants := make([]int, len(cfgs))
			maxGrants := 0
			for trial := 0; trial < trials; trial++ {
				reqs := w.Next(rate)
				for k, a := range allocs {
					for _, g := range a.Allocate(reqs) {
						if g >= 0 {
							grants[k]++
						}
					}
				}
				w.Matrix(reqs, reqMat)
				maxGrants += max.Allocate(reqMat).Count()
			}
			for k := range cfgs {
				out[k].Points[ri] = Point{Rate: rate, Quality: quality(grants[k], maxGrants),
					Grants: grants[k], MaxGrants: maxGrants}
			}
		}()
	}
	wg.Wait()
	return out
}

// SwitchWorkload generates random switch-allocation request sets: each input
// VC requests a uniformly random output port with the given probability.
type SwitchWorkload struct {
	Ports, VCs int
	rng        *xrand.Source
	reqs       []core.SwitchRequest
}

// NewSwitchWorkload builds a workload generator seeded deterministically.
func NewSwitchWorkload(ports, vcs int, seed uint64) *SwitchWorkload {
	return &SwitchWorkload{
		Ports: ports,
		VCs:   vcs,
		rng:   xrand.New(seed),
		reqs:  make([]core.SwitchRequest, ports*vcs),
	}
}

// Next generates the next request set at the given rate. The returned slice
// is reused across calls.
func (w *SwitchWorkload) Next(rate float64) []core.SwitchRequest {
	for i := range w.reqs {
		if w.rng.Bool(rate) {
			w.reqs[i] = core.SwitchRequest{Active: true, OutPort: w.rng.Intn(w.Ports)}
		} else {
			w.reqs[i] = core.SwitchRequest{}
		}
	}
	return w.reqs
}

// Matrix writes the port-level request matrix (rows: input ports, cols:
// output ports) for maximum-size normalization. Switch allocation grants at
// most one flit per input port, so the reference is a P×P matching.
func (w *SwitchWorkload) Matrix(reqs []core.SwitchRequest, m *bitvec.Matrix) {
	m.Reset()
	for i, r := range reqs {
		if r.Active {
			m.Set(i/w.VCs, r.OutPort)
		}
	}
}

// SwitchSeries measures the matching quality of the switch allocator
// configuration over the given rates.
func SwitchSeries(cfg core.SwitchAllocConfig, rates []float64, trials int, seed uint64) Series {
	return SwitchSeriesMulti([]core.SwitchAllocConfig{cfg}, rates, trials, seed, 1)[0]
}

// SwitchSeriesMulti is the switch-allocation analogue of VCSeriesMulti:
// several configurations sharing one (Ports, VCs) point, swept over up to
// `workers` concurrent rate points, with the workload and the maximum-size
// reference shared per task. Quality is measured on the base allocator, so
// SpecMode is forced to SpecNone. Output is bit-identical to sequential
// per-config SwitchSeries calls for any worker count.
func SwitchSeriesMulti(cfgs []core.SwitchAllocConfig, rates []float64, trials int, seed uint64, workers int) []Series {
	if len(cfgs) == 0 {
		return nil
	}
	cfgs = append([]core.SwitchAllocConfig(nil), cfgs...) // SpecMode is forced below
	p, v := cfgs[0].Ports, cfgs[0].VCs
	out := make([]Series, len(cfgs))
	for k := range cfgs {
		if cfgs[k].Ports != p || cfgs[k].VCs != v {
			panic("quality: SwitchSeriesMulti configs must share Ports and VCs")
		}
		cfgs[k].SpecMode = core.SpecNone // quality is measured on the base allocator
		out[k] = Series{Name: core.NewSwitchAllocator(cfgs[k]).Name(), Points: make([]Point, len(rates))}
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(rates) {
		workers = len(rates)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for ri, rate := range rates {
		ri, rate := ri, rate
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			allocs := make([]core.SwitchAllocator, len(cfgs))
			for k := range cfgs {
				allocs[k] = core.NewSwitchAllocator(cfgs[k])
			}
			max := alloc.NewMaximum(p, p)
			reqMat := bitvec.NewMatrix(p, p)
			w := NewSwitchWorkload(p, v, seed)
			grants := make([]int, len(cfgs))
			maxGrants := 0
			for trial := 0; trial < trials; trial++ {
				reqs := w.Next(rate)
				for k, a := range allocs {
					for _, g := range a.Allocate(reqs) {
						if g.OutPort >= 0 {
							grants[k]++
						}
					}
				}
				w.Matrix(reqs, reqMat)
				maxGrants += max.Allocate(reqMat).Count()
			}
			for k := range cfgs {
				out[k].Points[ri] = Point{Rate: rate, Quality: quality(grants[k], maxGrants),
					Grants: grants[k], MaxGrants: maxGrants}
			}
		}()
	}
	wg.Wait()
	return out
}

func quality(grants, maxGrants int) float64 {
	if maxGrants == 0 {
		return 1
	}
	q := float64(grants) / float64(maxGrants)
	return q
}

// MinQuality returns the lowest quality sample in the series.
func (s Series) MinQuality() float64 {
	min := 1.0
	for _, p := range s.Points {
		if p.Quality < min {
			min = p.Quality
		}
	}
	return min
}

// QualityAt returns the quality at the sample closest to rate.
func (s Series) QualityAt(rate float64) float64 {
	if len(s.Points) == 0 {
		panic("quality: empty series")
	}
	best := s.Points[0]
	for _, p := range s.Points[1:] {
		if abs(p.Rate-rate) < abs(best.Rate-rate) {
			best = p
		}
	}
	return best.Quality
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// FormatSeries renders series as a fixed-width table, one row per rate,
// matching the layout used by cmd/matchquality.
func FormatSeries(series []Series) string {
	if len(series) == 0 {
		return ""
	}
	out := "rate"
	for _, s := range series {
		out += fmt.Sprintf("\t%s", s.Name)
	}
	out += "\n"
	for i, p := range series[0].Points {
		out += fmt.Sprintf("%.2f", p.Rate)
		for _, s := range series {
			out += fmt.Sprintf("\t%.4f", s.Points[i].Quality)
		}
		out += "\n"
	}
	return out
}
