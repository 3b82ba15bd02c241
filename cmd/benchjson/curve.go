package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/curve"
	"repro/internal/experiments"
	"repro/internal/sharecache"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// curveTopoBench times one topology's adaptive trace through three regimes
// that differ only in which cache tier carries the setup or the points:
//
//   - cold: share cache disabled, empty caches — every point builds its own
//     topology and routing state and simulates (the pre-sharing behavior).
//   - share: share cache enabled — concurrent points build the immutable
//     per-config state once and share it read-only; same simulations.
//   - disk-warm: a fresh server on the share run's cache directory — every
//     point is a disk hit, zero simulations.
//
// SetupColdNS/SetupSharedNS isolate the shared-precompute win from the
// simulation itself: amortized BuildSim + sim.New cost per simulation with
// sharing off vs on.
type curveTopoBench struct {
	Topo string     `json:"topo"`
	Spec curve.Spec `json:"spec"`
	// AdaptivePoints vs FixedGridPoints is the tracer's point saving; the
	// knee is identical in all three regimes (golden-pinned).
	AdaptivePoints  int     `json:"adaptive_points"`
	FixedGridPoints int     `json:"fixed_grid_points"`
	KneeFound       bool    `json:"knee_found"`
	KneeRate        float64 `json:"knee_rate"`

	ColdWallNS     float64 `json:"cold_wall_ns"`
	ShareWallNS    float64 `json:"share_wall_ns"`
	DiskWarmWallNS float64 `json:"disk_warm_wall_ns"`
	// ShareBuilds/ShareHits are the share-cache counters over the share
	// run: builds is the number of distinct immutable artifacts constructed,
	// hits the constructions avoided.
	ShareBuilds int64 `json:"share_builds"`
	ShareHits   int64 `json:"share_hits"`
	// DiskWarmHits counts the disk tier's hits in the warm run;
	// DiskWarmSimRuns must be 0.
	DiskWarmHits    int64 `json:"disk_warm_hits"`
	DiskWarmSimRuns int64 `json:"disk_warm_sim_runs"`

	// Setup cost per simulation (BuildSim + sim.New, SetupIters runs),
	// sharing off vs on; SetupSpeedup = cold / shared. sim.New's mutable
	// per-sim state (buffers, router pipelines) is deliberately not shared,
	// so this ratio bounds the whole-setup win.
	SetupIters          int     `json:"setup_iters"`
	SetupColdNsPerSim   float64 `json:"setup_cold_ns_per_sim"`
	SetupSharedNsPerSim float64 `json:"setup_shared_ns_per_sim"`
	SetupSpeedup        float64 `json:"setup_speedup"`
	// Build cost per config (BuildSim only: topology wiring + routing
	// tables, exactly the immutable artifacts the share cache holds);
	// BuildSpeedup is the isolated shared-precompute win.
	BuildColdNsPerOp   float64 `json:"build_cold_ns_per_op"`
	BuildSharedNsPerOp float64 `json:"build_shared_ns_per_op"`
	BuildSpeedup       float64 `json:"build_speedup"`
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

		trace := func(cacheDir string, sharing bool) (curve.Trace, time.Duration, *sweep.Server) {
			sharecache.Default.SetEnabled(sharing)
			sharecache.Default.Reset()
			srv, err := sweep.NewServer(sweep.Options{
				Exec: sweep.Exec{Leap: true}, Workers: workers, CacheDir: cacheDir,
			})
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
		tmp := func() string {
			dir, err := os.MkdirTemp("", "benchjson-curve-")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return dir
		}

		// Cold: sharing off, own empty cache directory.
		coldDir := tmp()
		tr, coldWall, srv := trace(coldDir, false)
		srv.Close()
		os.RemoveAll(coldDir)
		b.AdaptivePoints, b.FixedGridPoints = tr.Simulated, tr.FixedGridPoints
		b.KneeFound, b.KneeRate = tr.KneeFound, tr.KneeRate
		b.ColdWallNS = float64(coldWall.Nanoseconds())

		// Share: sharing on, fresh empty cache directory (same disk-write
		// cost as the cold pass; the only variable is the share cache).
		shareDir := tmp()
		defer os.RemoveAll(shareDir)
		_, shareWall, srv2 := trace(shareDir, true)
		srv2.Close()
		b.ShareWallNS = float64(shareWall.Nanoseconds())
		st := sharecache.Default.Stats()
		b.ShareBuilds, b.ShareHits = int64(st.Builds), int64(st.Hits)

		// Disk-warm: a fresh server on the share run's directory.
		_, warmWall, srv3 := trace(shareDir, true)
		b.DiskWarmWallNS = float64(warmWall.Nanoseconds())
		b.DiskWarmHits = srv3.Disk().Stats().Hits
		b.DiskWarmSimRuns = srv3.SimRuns()
		srv3.Close()

		// Setup-only cost: amortized BuildSim + sim.New per simulation, the
		// immutable-precompute path the share cache exists for.
		pt, err := experiments.PointByName(topo, spec.Base.VCsPerClass)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: curve:", err)
			os.Exit(1)
		}
		scale := experiments.SimScale{
			Warmup: curveScale.warmup, Measure: curveScale.measure, Drain: curveScale.drain,
			Seed: 42, Leap: true,
		}
		setup := func(sharing, construct bool) float64 {
			sharecache.Default.SetEnabled(sharing)
			sharecache.Default.Reset()
			start := time.Now()
			for i := 0; i < setupIters; i++ {
				cfg := experiments.BuildSim(pt, spec.MinRate, scale)
				if construct {
					sim.New(cfg)
				}
			}
			return float64(time.Since(start).Nanoseconds()) / float64(setupIters)
		}
		b.SetupColdNsPerSim = setup(false, true)
		b.SetupSharedNsPerSim = setup(true, true)
		b.SetupSpeedup = b.SetupColdNsPerSim / b.SetupSharedNsPerSim
		b.BuildColdNsPerOp = setup(false, false)
		b.BuildSharedNsPerOp = setup(true, false)
		b.BuildSpeedup = b.BuildColdNsPerOp / b.BuildSharedNsPerOp

		sharecache.Default.SetEnabled(true)
		sharecache.Default.Reset()
		rep.Points = append(rep.Points, b)
	}
	return rep
}
