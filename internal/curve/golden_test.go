package curve

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// tinySpec is the golden-test trace spec: short phases, a 0.05 lattice, and
// the paper-grid top for the topology.
func tinySpec(topo, process string) Spec {
	maxRate := 0.45
	if topo == "fbfly" {
		maxRate = 0.50
	}
	return Spec{
		Base: sweep.UnitConfig{
			Topo: topo, Process: process, Seed: 42,
			Warmup: 150, Measure: 300, Drain: 1500,
		},
		Step: 0.05, MinRate: 0.05, MaxRate: maxRate, Coarse: 4,
	}
}

// TestTracerPointsByteEqualBatch pins the tracer's core contract: every
// sampled point is an ordinary simulation unit at a canonical lattice rate,
// byte-equal to what the batch CLI path (sweep.RunUnit via
// experiments.BuildSim, on one shard) computes for the same unit — on both
// topologies, served by a one-worker server (every unit on one shard) and by
// a four-worker one (a heavy unit borrows an idle worker and splits), for
// bernoulli and bursty arrivals.
func TestTracerPointsByteEqualBatch(t *testing.T) {
	ctx := context.Background()
	for _, topo := range []string{"mesh", "fbfly"} {
		for _, leg := range []struct {
			name    string
			workers int
		}{{"shards=1", 1}, {"lent", 4}} {
			for _, process := range []string{"bernoulli", "mmp"} {
				t.Run(fmt.Sprintf("%s/%s/%s", topo, leg.name, process), func(t *testing.T) {
					srv, err := sweep.NewServer(sweep.Options{Workers: leg.workers})
					if err != nil {
						t.Fatal(err)
					}
					defer srv.Close()
					tr, err := TraceCurve(ctx, srv, tinySpec(topo, process), Options{Workers: 4})
					if err != nil {
						t.Fatal(err)
					}
					if tr.Simulated == 0 {
						t.Fatal("trace sampled nothing")
					}
					for _, p := range tr.Points {
						u := tr.Spec.Base
						u.Rate = tr.Spec.Lattice().Rate(p.Index)
						batch, _, err := sweep.RunUnit(ctx, u, nil)
						if err != nil {
							t.Fatal(err)
						}
						got, _ := json.Marshal(p.Result)
						want, _ := json.Marshal(batch)
						if string(got) != string(want) {
							t.Fatalf("point %d (rate %g): tracer result differs from batch:\n%s\n%s",
								p.Index, u.Rate, got, want)
						}
					}
				})
			}
		}
	}
}

// TestAdaptiveKneeMatchesFixedGrid pins the acceptance criterion on real
// simulations: on both topologies the adaptive trace simulates at most half
// the fixed-grid points while locating the knee within one lattice step of
// the fixed grid's answer.
func TestAdaptiveKneeMatchesFixedGrid(t *testing.T) {
	ctx := context.Background()
	for _, topo := range []string{"mesh", "fbfly"} {
		t.Run(topo, func(t *testing.T) {
			srv, err := sweep.NewServer(sweep.Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			spec := tinySpec(topo, "bernoulli")
			spec.Step, spec.MinRate, spec.Coarse = 0.02, 0.02, 5
			tr, err := TraceCurve(ctx, srv, spec, Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !tr.KneeFound {
				t.Fatalf("no knee found below %g", tr.Spec.MaxRate)
			}
			// Fixed-grid reference: every lattice index in range (the points
			// the trace already sampled come back as cache hits), its knee
			// read by NetSeries under the same criterion the tracer applies.
			lat := tr.Spec.Lattice()
			iMin, iMax := lat.Index(tr.Spec.MinRate), lat.Index(tr.Spec.MaxRate)
			var grid experiments.NetSeries
			for i := iMin; i <= iMax; i++ {
				u := tr.Spec.Base
				u.Rate = lat.Rate(i)
				res, err := srv.EvalUnit(ctx, u)
				if err != nil {
					t.Fatal(err)
				}
				grid.Points = append(grid.Points, res.NetPoint())
			}
			fixedKnee := iMin + grid.Knee(tr.Spec.Step)
			if d := tr.KneeIndex - fixedKnee; d < -tr.Spec.KneeResolution || d > tr.Spec.KneeResolution {
				t.Fatalf("adaptive knee index %d vs fixed-grid %d: outside one lattice step", tr.KneeIndex, fixedKnee)
			}
			if 2*tr.Simulated > tr.FixedGridPoints {
				t.Fatalf("adaptive trace simulated %d of %d fixed-grid points (> 50%%)",
					tr.Simulated, tr.FixedGridPoints)
			}
			t.Logf("%s: adaptive %d points vs fixed %d, knee %g", topo, tr.Simulated, tr.FixedGridPoints, tr.KneeRate)
		})
	}
}

// TestSharedTopologyUnmutated proves the immutability contract of the shared
// networks directly: BuildSim hands every caller the same topology instance,
// and its serialized form is unchanged after concurrent Validate-mode
// simulations ran on it.
func TestSharedTopologyUnmutated(t *testing.T) {
	pt, err := experiments.PointByName("mesh", 1)
	if err != nil {
		t.Fatal(err)
	}
	scale := experiments.SimScale{Warmup: 150, Measure: 300, Drain: 1500, Seed: 42}
	cfg1 := experiments.BuildSim(pt, 0.2, scale)
	cfg2 := experiments.BuildSim(pt, 0.3, scale)
	if cfg1.Topology != cfg2.Topology {
		t.Fatal("BuildSim returned distinct topology instances")
	}
	before, _ := json.Marshal(cfg1.Topology)
	done := make(chan sim.Result, 2)
	for _, cfg := range []sim.Config{cfg1, cfg2} {
		cfg := cfg
		cfg.Validate = true
		go func() { done <- sim.New(cfg).Run() }()
	}
	for i := 0; i < 2; i++ {
		if res := <-done; res.FlitsDelivered == 0 {
			t.Fatal("no traffic moved")
		}
	}
	after, _ := json.Marshal(cfg1.Topology)
	if string(before) != string(after) {
		t.Fatal("concurrent simulations mutated the shared topology")
	}
}
