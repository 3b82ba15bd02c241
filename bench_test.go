// Benchmark harness: one target per table/figure of Becker & Dally (SC '09)
// plus ablation benches for the design choices called out in DESIGN.md.
// Each benchmark exercises the exact code path the corresponding experiment
// uses; the cmd/ tools produce the full-size data series.
package repro_test

import (
	"context"
	"runtime"
	"testing"

	"repro"
	"repro/internal/curve"
	"repro/internal/experiments"
	"repro/internal/sweep"
)

// --- Fig. 4 -------------------------------------------------------------------

func BenchmarkFig04VCTransitions(b *testing.B) {
	spec := repro.NewVCSpec(2, 2, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := spec.TransitionMatrix()
		if m.Count() != 96 {
			b.Fatalf("legal transitions = %d, want 96", m.Count())
		}
	}
}

// --- Figs. 5 & 6: VC allocator synthesis cost ----------------------------------

func BenchmarkFig05VCAllocAreaDelay(b *testing.B) {
	tech := repro.Default45nm()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := experiments.VCCost(tech)
		if len(rows) != 60 {
			b.Fatal("incomplete cost table")
		}
	}
}

func BenchmarkFig06VCAllocPowerDelay(b *testing.B) {
	b.ReportAllocs()
	// Power and area derive from the same synthesis pass; this target keeps
	// the figure-to-bench mapping one-to-one.
	tech := repro.Default45nm()
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.VCCost(tech) {
			if r.Est.Synthesized && r.Est.PowerMW <= 0 {
				b.Fatal("bad power estimate")
			}
		}
	}
}

// --- Fig. 7: VC allocator matching quality -------------------------------------

func BenchmarkFig07VCQuality(b *testing.B) {
	for _, pt := range experiments.Points() {
		pt := pt
		b.Run(pt.String(), func(b *testing.B) {
			b.ReportAllocs()
			rates := []float64{0.5}
			for i := 0; i < b.N; i++ {
				series := experiments.VCQuality(pt, rates, 50, uint64(i)+1, runtime.NumCPU())
				if len(series) != 3 {
					b.Fatal("want 3 series")
				}
			}
		})
	}
}

// --- Figs. 10 & 11: switch allocator synthesis cost -----------------------------

func BenchmarkFig10SwitchAllocAreaDelay(b *testing.B) {
	tech := repro.Default45nm()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := experiments.SwitchCost(tech)
		if len(rows) != 90 {
			b.Fatal("incomplete cost table")
		}
	}
}

func BenchmarkFig11SwitchAllocPowerDelay(b *testing.B) {
	b.ReportAllocs()
	tech := repro.Default45nm()
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.SwitchCost(tech) {
			if r.Est.Synthesized && r.Est.PowerMW <= 0 {
				b.Fatal("bad power estimate")
			}
		}
	}
}

// --- Fig. 12: switch allocator matching quality ---------------------------------

func BenchmarkFig12SwitchQuality(b *testing.B) {
	for _, pt := range experiments.Points() {
		pt := pt
		b.Run(pt.String(), func(b *testing.B) {
			b.ReportAllocs()
			rates := []float64{0.5}
			for i := 0; i < b.N; i++ {
				series := experiments.SwitchQuality(pt, rates, 50, uint64(i)+1, runtime.NumCPU())
				if len(series) != 3 {
					b.Fatal("want 3 series")
				}
			}
		})
	}
}

// --- Figs. 13 & 14: network simulations ------------------------------------------

// benchScale keeps a single benchmark iteration to a short but
// representative simulation.
var benchScale = experiments.SimScale{Warmup: 200, Measure: 400, Drain: 1500, Seed: 42}

// reportCyclesPerSec attributes the simulated cycles of every point in the
// series to the benchmark's wall clock, giving a scheduler-speed metric that
// stays comparable as the simulation core changes.
func reportCyclesPerSec(b *testing.B, cycles int64) {
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/sec")
}

func BenchmarkFig13SwitchAllocatorNetwork(b *testing.B) {
	for _, pt := range experiments.Points() {
		pt := pt
		b.Run(pt.String(), func(b *testing.B) {
			b.ReportAllocs()
			rates := []float64{0.2}
			var cycles int64
			for i := 0; i < b.N; i++ {
				series := repro.Fig13(pt, rates, benchScale)
				if len(series) != 3 {
					b.Fatal("want 3 series")
				}
				for _, s := range series {
					for _, p := range s.Points {
						cycles += p.Cycles
					}
				}
			}
			reportCyclesPerSec(b, cycles)
		})
	}
}

func BenchmarkFig14SpeculationNetwork(b *testing.B) {
	for _, pt := range experiments.Points() {
		pt := pt
		b.Run(pt.String(), func(b *testing.B) {
			b.ReportAllocs()
			rates := []float64{0.2}
			var cycles int64
			for i := 0; i < b.N; i++ {
				series := repro.Fig14(pt, rates, benchScale)
				if len(series) != 3 {
					b.Fatal("want 3 series")
				}
				for _, s := range series {
					for _, p := range s.Points {
						cycles += p.Cycles
					}
				}
			}
			reportCyclesPerSec(b, cycles)
		})
	}
}

// --- §4.3.3: VC allocator sensitivity sweep ---------------------------------------

func BenchmarkVASweepNetwork(b *testing.B) {
	b.ReportAllocs()
	pt, err := experiments.PointByName("mesh", 2)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		// A server of its own per iteration: a warm one would answer from
		// its cache.
		srv, err := sweep.NewServer(sweep.Options{})
		if err != nil {
			b.Fatal(err)
		}
		series, err := curve.VASweep(context.Background(), srv, pt, []float64{0.2}, benchScale)
		srv.Close()
		if err != nil || len(series) != 4 {
			b.Fatalf("%d series, %v; want 4", len(series), err)
		}
	}
}

// --- Ablations (DESIGN.md §5) -------------------------------------------------------

// BenchmarkAblationPriorityUpdate measures separable allocation with the
// paper's conditional (iSLIP-style) priority updates; the rule's effect on
// grants is exercised by tests, here we measure the allocator's speed.
func BenchmarkAblationPriorityUpdate(b *testing.B) {
	a := repro.NewAllocator(repro.AllocConfig{Arch: repro.SepIF, Rows: 16, Cols: 16, ArbKind: repro.RoundRobin})
	req := randomMatrix(16, 16, 0.4, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Allocate(req)
	}
}

// BenchmarkAblationWavefrontImpl compares the synthesis cost of the paper's
// loop-free replicated wavefront against the full-custom single-array bound
// (§2.2).
func BenchmarkAblationWavefrontImpl(b *testing.B) {
	tech := repro.Default45nm()
	b.Run("replicated", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tech.WavefrontGE(40) <= tech.WavefrontCustomGE(40) {
				b.Fatal("replicated must cost more")
			}
		}
	})
	b.Run("custom", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = tech.WavefrontCustomDelay(40)
		}
	})
}

// BenchmarkAblationTreeArbiter compares tree vs flat arbitration for the
// P×V-input output stage of VC allocators (§4.1).
func BenchmarkAblationTreeArbiter(b *testing.B) {
	req := repro.NewVec(160)
	for i := 0; i < 160; i += 7 {
		req.Set(i)
	}
	b.Run("flat160", func(b *testing.B) {
		b.ReportAllocs()
		a := repro.NewArbiter(repro.RoundRobin, 160)
		for i := 0; i < b.N; i++ {
			a.Pick(req)
		}
	})
	b.Run("tree10x16", func(b *testing.B) {
		b.ReportAllocs()
		a := repro.NewTreeArbiter(repro.RoundRobin, 10, 16)
		for i := 0; i < b.N; i++ {
			a.Pick(req)
		}
	})
}

// BenchmarkAblationSparseVCAlloc compares dense and sparse VC allocation
// throughput at the fbfly 2x2x4 design point (the sparse scheme also wins
// in software because the per-class engines are smaller).
func BenchmarkAblationSparseVCAlloc(b *testing.B) {
	spec := repro.NewVCSpec(2, 2, 4)
	reqs := make([]repro.VCRequest, 10*spec.V())
	rng := repro.NewRand(3)
	for i := range reqs {
		if rng.Bool(0.5) {
			m, r, _ := spec.Decompose(i % spec.V())
			lo, hi := spec.SuccessorClasses(r)
			reqs[i] = repro.VCRequest{
				Active:     true,
				OutPort:    rng.Intn(10),
				Candidates: spec.ClassMask(m, lo+rng.Intn(hi-lo)),
			}
		}
	}
	for _, sparse := range []bool{false, true} {
		sparse := sparse
		name := "dense"
		if sparse {
			name = "sparse"
		}
		b.Run(name, func(b *testing.B) {
			a := repro.NewVCAllocator(repro.VCAllocConfig{
				Ports: 10, Spec: spec, Arch: repro.SepIF, ArbKind: repro.RoundRobin, Sparse: sparse,
			})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.Allocate(reqs)
			}
		})
	}
}

// BenchmarkAblationSpeculationModes measures the switch allocator's cycle
// cost per speculation scheme.
func BenchmarkAblationSpeculationModes(b *testing.B) {
	for _, mode := range []repro.SpecMode{repro.SpecNone, repro.SpecReq, repro.SpecGnt} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			a := repro.NewSwitchAllocator(repro.SwitchAllocConfig{
				Ports: 10, VCs: 16, Arch: repro.SepIF, ArbKind: repro.RoundRobin, SpecMode: mode,
			})
			reqs := make([]repro.SwitchRequest, 160)
			rng := repro.NewRand(5)
			for i := range reqs {
				if rng.Bool(0.4) {
					reqs[i] = repro.SwitchRequest{Active: true, OutPort: rng.Intn(10), Spec: rng.Bool(0.3) && mode != repro.SpecNone}
				}
			}
			for i := 0; i < b.N; i++ {
				a.Allocate(reqs)
			}
		})
	}
}

func randomMatrix(rows, cols int, p float64, seed uint64) *repro.Matrix {
	rng := repro.NewRand(seed)
	m := repro.NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Bool(p) {
				m.Set(i, j)
			}
		}
	}
	return m
}
