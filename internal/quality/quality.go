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

	rng    *xrand.Source
	succ   [][]core.VCMask // per VC: the candidate set of each legal successor class
	reqs   []core.VCRequest
	active []int // the entries of reqs the last Next made active
}

// NewVCWorkload builds a workload generator seeded deterministically.
func NewVCWorkload(ports int, spec core.VCSpec, seed uint64) *VCWorkload {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	w := &VCWorkload{
		Ports: ports,
		Spec:  spec,
		rng:   xrand.New(seed),
		succ:  make([][]core.VCMask, spec.V()),
		reqs:  make([]core.VCRequest, ports*spec.V()),
	}
	for vc := range w.succ {
		m, r, _ := spec.Decompose(vc)
		lo, hi := spec.SuccessorClasses(r)
		for nr := lo; nr < hi; nr++ {
			w.succ[vc] = append(w.succ[vc], spec.ClassMask(m, nr))
		}
	}
	return w
}

// Next generates the next request set at the given rate. The returned slice
// is reused across calls and must not be modified.
//
// Each input VC requests with one Bool(rate) draw, in index order, and an
// active one then draws its successor class and its output port. FirstBelow
// makes the Bool draws of a whole run of idle VCs in one call and consumes
// exactly the draws they would, so the stream is the per-VC one; only the
// entries that were or become active are written.
func (w *VCWorkload) Next(rate float64) []core.VCRequest {
	for _, i := range w.active {
		w.reqs[i] = core.VCRequest{}
	}
	w.active = w.active[:0]
	v, th, n := w.Spec.V(), xrand.Threshold(rate), len(w.reqs)
	for i := nextActive(w.rng, th, 0, n); i >= 0; i = nextActive(w.rng, th, i+1, n) {
		succ := w.succ[i%v]
		cand := succ[w.rng.Intn(len(succ))]
		w.reqs[i] = core.VCRequest{Active: true, OutPort: w.rng.Intn(w.Ports), Candidates: cand}
		w.active = append(w.active, i)
	}
	return w.reqs
}

// nextActive returns the first of entries i..n-1 whose Bool draw against
// thresh = xrand.Threshold(rate) succeeds, or -1, having consumed exactly the
// draws those per-entry Bool(rate) calls would.
func nextActive(rng *xrand.Source, thresh uint64, i, n int) int {
	if k := rng.FirstBelow(thresh, n-i); k >= 0 {
		return i + k
	}
	return -1
}

// VCSeriesMulti measures several VC allocator configurations sharing one
// design point (Ports and Spec) over the given rates, using trials request
// sets per rate (the paper uses 10000) and sweeping up to `workers` rate
// points concurrently. Each rate point is an independent task: the workload
// re-seeds per rate so every point sees an identical request stream, and
// every allocator starts from its reset state, so the output is
// bit-identical to one single-config call per configuration with one worker,
// for any worker count. Within a task the workload and the maximum-size reference
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
			allocs := make([]*core.VCAllocator, len(cfgs))
			for k, cfg := range cfgs {
				allocs[k] = core.NewVCAllocator(cfg)
			}
			rows, blocks := make([]uint64, p*v), make([]wordBlock, p)
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
				maxGrants += vcMatchSize(reqs, rows, blocks)
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
	active     []int // the entries of reqs the last Next made active
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

// Next generates the next request set at the given rate, drawing as
// VCWorkload.Next does. The returned slice is reused across calls and must
// not be modified.
func (w *SwitchWorkload) Next(rate float64) []core.SwitchRequest {
	for _, i := range w.active {
		w.reqs[i] = core.SwitchRequest{}
	}
	w.active = w.active[:0]
	th, n := xrand.Threshold(rate), len(w.reqs)
	for i := nextActive(w.rng, th, 0, n); i >= 0; i = nextActive(w.rng, th, i+1, n) {
		w.reqs[i] = core.SwitchRequest{Active: true, OutPort: w.rng.Intn(w.Ports)}
		w.active = append(w.active, i)
	}
	return w.reqs
}

// SwitchSeriesMulti is the switch-allocation analogue of VCSeriesMulti:
// several configurations sharing one (Ports, VCs) point, swept over up to
// `workers` concurrent rate points, with the workload and the maximum-size
// reference shared per task. Quality is measured on the base allocator, so
// SpecMode is forced to SpecNone. Output is bit-identical to one
// single-config call per configuration with one worker, for any worker
// count.
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
			allocs := make([]*core.SwitchAllocator, len(cfgs))
			for k := range cfgs {
				allocs[k] = core.NewSwitchAllocator(cfgs[k])
			}
			rows := make([]uint64, p)
			var block wordBlock
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
				maxGrants += switchMatchSize(reqs, v, rows, &block)
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
