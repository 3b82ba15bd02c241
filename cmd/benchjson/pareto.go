package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/dse"
	"repro/internal/sweep"
)

// paretoReport tracks the design-space search's perf mechanisms end to end:
// how many simulations pruning + dedup save against exhaustive enumeration,
// and how much a disk-warm re-run saves against a cold one.
type paretoReport struct {
	env
	// Spec is the searched space (BENCH scale: reduced phases, full axes).
	Spec dse.Spec `json:"spec"`
	// Enumerated raw points collapse to Distinct keys; Infeasible fail the
	// synthesis budget; ColdSimulated of the Feasible rest actually ran,
	// ColdPruned were skipped with a dominance proof.
	Enumerated    int `json:"enumerated"`
	Distinct      int `json:"distinct"`
	Infeasible    int `json:"infeasible"`
	Feasible      int `json:"feasible"`
	ColdSimulated int `json:"cold_simulated"`
	ColdPruned    int `json:"cold_pruned"`
	// ColdWallNS is the cold search against an empty disk cache;
	// WarmWallNS re-runs the identical search in a fresh server sharing the
	// cache directory (every simulation a disk hit). The acceptance floor
	// for WarmSpeedup is 10x.
	ColdWallNS  float64 `json:"cold_wall_ns"`
	WarmWallNS  float64 `json:"warm_wall_ns"`
	WarmSpeedup float64 `json:"warm_speedup"`
	// WarmDiskHits counts the warm run's disk-tier hits; WarmSimRuns must
	// be 0 (the cold run populated every key the warm run needs).
	WarmDiskHits int64 `json:"warm_disk_hits"`
	WarmSimRuns  int64 `json:"warm_sim_runs"`
	// Frontier is the Pareto-optimal set (identical cold and warm; the
	// golden test in internal/dse pins worker-count and cache-tier
	// invariance, and equality with the brute-force frontier).
	Frontier []dse.FrontierPoint `json:"frontier"`
}

func paretoBench() paretoReport {
	// Full allocator axes on both topologies at a reduced per-point scale:
	// the snapshot tracks the search mechanisms, not simulation fidelity.
	spec := dse.Spec{
		Warmup: 200, Measure: 400, Drain: 2000,
	}.Normalized()

	cacheDir, err := os.MkdirTemp("", "benchjson-pareto-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(cacheDir)
	workers := runtime.GOMAXPROCS(0)
	newServer := func() *sweep.Server {
		srv, err := sweep.NewServer(sweep.Options{
			Workers:  workers,
			CacheDir: cacheDir,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return srv
	}

	run := func(srv *sweep.Server) (dse.Result, time.Duration) {
		start := time.Now()
		res, err := dse.Search(context.Background(), srv, spec, dse.SearchOptions{Workers: workers})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: pareto:", err)
			os.Exit(1)
		}
		return res, time.Since(start)
	}

	cold := newServer()
	coldRes, coldWall := run(cold)
	cold.Close()

	// A fresh server on the same directory models a process restart: the
	// memory tier is empty, every unit comes back from disk.
	warm := newServer()
	warmRes, warmWall := run(warm)
	warmStats := warm.Disk().Stats()
	warmSims := warm.SimRuns()
	warm.Close()
	if len(warmRes.Frontier) != len(coldRes.Frontier) {
		fmt.Fprintln(os.Stderr, "benchjson: pareto: warm frontier diverged from cold")
		os.Exit(1)
	}

	return paretoReport{
		env:           newEnv(),
		Spec:          spec,
		Enumerated:    coldRes.Enumerated,
		Distinct:      coldRes.Distinct,
		Infeasible:    coldRes.Infeasible,
		Feasible:      coldRes.Feasible,
		ColdSimulated: coldRes.Simulated,
		ColdPruned:    coldRes.Pruned,
		ColdWallNS:    float64(coldWall.Nanoseconds()),
		WarmWallNS:    float64(warmWall.Nanoseconds()),
		WarmSpeedup:   float64(coldWall) / float64(warmWall),
		WarmDiskHits:  warmStats.Hits,
		WarmSimRuns:   warmSims,
		Frontier:      coldRes.Frontier,
	}
}
