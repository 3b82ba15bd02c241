package curve

import (
	"context"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// figureFunc is the signature Fig13, Fig14 and VASweep share.
type figureFunc func(context.Context, sweep.Evaluator, experiments.Point, []float64, experiments.SimScale) ([]experiments.NetSeries, error)

// TestFiguresShareUnits: Figs. 13 and 14 and the VC allocator sweep of one
// design point request 70 units on one server, and it simulates each of the
// 56 distinct ones once: the baseline unit (sep_if VC and switch allocation,
// spec_req) is Fig. 13's sep_if, Fig. 14's spec_req and the sweep's va=sep_if
// series. A variant spelled differently in two figures would split the cache
// and run more.
func TestFiguresShareUnits(t *testing.T) {
	pt, _ := experiments.PointByName("mesh", 1)
	rates := experiments.InjectionRates(pt)
	scale := experiments.SimScale{Warmup: 20, Measure: 40, Drain: 100, Seed: 1, Workers: 2}
	srv, err := sweep.NewServer(sweep.Options{Workers: scale.Workers})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	requested := 0
	for _, fig := range []figureFunc{Fig13, Fig14, VASweep} {
		series, err := fig(context.Background(), srv, pt, rates, scale)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range series {
			requested += len(s.Points)
		}
	}
	if len(rates) != 7 || requested != 70 {
		t.Fatalf("%d rates, %d units requested; want 7 and 70", len(rates), requested)
	}
	if runs := srv.SimRuns(); runs != 56 {
		t.Fatalf("%d simulations for 56 distinct units", runs)
	}
}

// benchScale keeps a single benchmark iteration to a short but
// representative simulation.
var benchScale = experiments.SimScale{Warmup: 200, Measure: 400, Drain: 1500, Seed: 42}

// evalFresh runs fig at rate 0.2 on a server of its own: a warm one would
// answer from its cache, and the benchmark would time hits, not simulations.
func evalFresh(b *testing.B, fig figureFunc, pt experiments.Point, want int) []experiments.NetSeries {
	srv, err := sweep.NewServer(sweep.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	series, err := fig(context.Background(), srv, pt, []float64{0.2}, benchScale)
	if err != nil || len(series) != want {
		b.Fatalf("%d series, %v; want %d", len(series), err, want)
	}
	return series
}

// benchFigure times fig on every design point and attributes the simulated
// cycles of every point to the wall clock, a scheduler-speed metric that
// stays comparable as the simulation core changes.
func benchFigure(b *testing.B, fig figureFunc) {
	for _, pt := range experiments.Points() {
		b.Run(pt.String(), func(b *testing.B) {
			b.ReportAllocs()
			var cycles int64
			for i := 0; i < b.N; i++ {
				for _, s := range evalFresh(b, fig, pt, 3) {
					for _, p := range s.Points {
						cycles += p.Cycles
					}
				}
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/sec")
		})
	}
}

func BenchmarkFig13SwitchAllocatorNetwork(b *testing.B) { benchFigure(b, Fig13) }

func BenchmarkFig14SpeculationNetwork(b *testing.B) { benchFigure(b, Fig14) }

func BenchmarkVASweepNetwork(b *testing.B) {
	b.ReportAllocs()
	pt, err := experiments.PointByName("mesh", 2)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		evalFresh(b, VASweep, pt, 4)
	}
}
