package curve

import (
	"context"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

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
	for _, fig := range []func(context.Context, sweep.Evaluator, experiments.Point, []float64, experiments.SimScale) ([]experiments.NetSeries, error){Fig13, Fig14, VASweep} {
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
