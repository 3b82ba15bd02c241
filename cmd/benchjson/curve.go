package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/curve"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// curveTopoBench times one topology's adaptive trace cold (empty caches:
// every point simulates) and disk-warm (a fresh server on the cold run's
// cache directory: every point is a disk hit, zero simulations).
type curveTopoBench struct {
	Topo string     `json:"topo"`
	Spec curve.Spec `json:"spec"`
	// AdaptivePoints vs FixedGridPoints is the tracer's point saving; the
	// knee is identical in both regimes (golden-pinned).
	AdaptivePoints  int     `json:"adaptive_points"`
	FixedGridPoints int     `json:"fixed_grid_points"`
	KneeFound       bool    `json:"knee_found"`
	KneeRate        float64 `json:"knee_rate"`

	ColdWallNS     float64 `json:"cold_wall_ns"`
	DiskWarmWallNS float64 `json:"disk_warm_wall_ns"`
	// DiskWarmHits counts the disk tier's hits in the warm run;
	// DiskWarmSimRuns must be 0.
	DiskWarmHits    int64 `json:"disk_warm_hits"`
	DiskWarmSimRuns int64 `json:"disk_warm_sim_runs"`

	// Setup cost per simulation (BuildSim + sim.New, SetupIters runs) and
	// the BuildSim share of it (a lookup of the shared topology and routing
	// function plus the config literal).
	SetupIters    int     `json:"setup_iters"`
	SetupNsPerSim float64 `json:"setup_ns_per_sim"`
	BuildNsPerOp  float64 `json:"build_ns_per_op"`
}

type curveReport struct {
	env
	Points []curveTopoBench `json:"points"`
}

// curveScale is the per-point simulation scale for the curve benchmark:
// reduced phases (the snapshot tracks the tracer and cache mechanisms, not
// simulation fidelity) at the golden tests' seed.
var curveScale = struct{ warmup, measure, drain int }{200, 400, 2000}

func curveBench(setupIters int) curveReport {
	rep := curveReport{env: newEnv()}
	workers := runtime.GOMAXPROCS(0)
	for _, topo := range []string{"mesh", "fbfly"} {
		spec := curve.Spec{
			Base: sweep.UnitConfig{
				Topo: topo, Seed: 42,
				Warmup: curveScale.warmup, Measure: curveScale.measure, Drain: curveScale.drain,
			},
			Step: 0.02, Coarse: 5,
		}.Normalized()
		b := curveTopoBench{Topo: topo, Spec: spec, SetupIters: setupIters}

		trace := func(cacheDir string) (curve.Trace, time.Duration, *sweep.Server) {
			srv, err := sweep.NewServer(sweep.Options{Workers: workers, CacheDir: cacheDir})
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson: curve:", err)
				os.Exit(1)
			}
			start := time.Now()
			tr, err := curve.TraceCurve(context.Background(), srv, spec, curve.Options{Workers: workers})
			elapsed := time.Since(start)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson: curve:", err)
				os.Exit(1)
			}
			return tr, elapsed, srv
		}
		dir, err := os.MkdirTemp("", "benchjson-curve-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)

		tr, coldWall, srv := trace(dir)
		srv.Close()
		b.AdaptivePoints, b.FixedGridPoints = tr.Simulated, tr.FixedGridPoints
		b.KneeFound, b.KneeRate = tr.KneeFound, tr.KneeRate
		b.ColdWallNS = float64(coldWall.Nanoseconds())

		// Disk-warm: a fresh server on the cold run's directory.
		_, warmWall, srv2 := trace(dir)
		b.DiskWarmWallNS = float64(warmWall.Nanoseconds())
		b.DiskWarmHits = srv2.Disk().Stats().Hits
		b.DiskWarmSimRuns = srv2.SimRuns()
		srv2.Close()

		pt, err := experiments.PointByName(topo, spec.Base.VCsPerClass)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: curve:", err)
			os.Exit(1)
		}
		scale := experiments.SimScale{
			Warmup: curveScale.warmup, Measure: curveScale.measure, Drain: curveScale.drain,
			Seed: 42,
		}
		setup := func(construct bool) float64 {
			start := time.Now()
			for i := 0; i < setupIters; i++ {
				cfg := experiments.BuildSim(pt, spec.MinRate, scale)
				if construct {
					sim.New(cfg)
				}
			}
			return float64(time.Since(start).Nanoseconds()) / float64(setupIters)
		}
		b.SetupNsPerSim = setup(true)
		b.BuildNsPerOp = setup(false)
		rep.Points = append(rep.Points, b)
	}
	return rep
}
