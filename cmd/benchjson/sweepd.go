package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/sweep"
)

// sweepdReport tracks the sweep service's three perf layers at the handler
// level (httptest recorder, no TCP): the cold-miss cost of one simulated
// unit, the warm-hit cost of serving the same unit from the content store,
// and how N concurrent identical requests coalesce onto one simulation.
type sweepdReport struct {
	env
	// Unit is the benchmarked unit config (a -quick Fig. 13 point).
	Unit sweep.UnitConfig `json:"unit"`
	Key  string           `json:"key"`
	// ColdMissNS is the end-to-end handler latency of the first request
	// (runs the simulation); WarmHitNS averages HitIters cache-hit serves
	// of the identical request.
	ColdMissNS float64 `json:"cold_miss_ns"`
	WarmHitNS  float64 `json:"warm_hit_ns"`
	HitIters   int     `json:"hit_iters"`
	// HitSpeedup = ColdMissNS / WarmHitNS. The acceptance floor is 1000x.
	HitSpeedup float64 `json:"hit_speedup"`
	// Coalesced measures ConcurrentRequests identical cold requests against
	// a fresh server: SimRuns counts actual simulations (1 when coalescing
	// works), WallNS the batch wall-clock, RequestsPerSec its throughput.
	ConcurrentRequests int     `json:"concurrent_requests"`
	SimRuns            int64   `json:"sim_runs"`
	CoalescedWallNS    float64 `json:"coalesced_wall_ns"`
	RequestsPerSec     float64 `json:"requests_per_sec"`
}

// benchUnit is the cold/warm/coalescing measurement unit: the mid-load
// mesh point of Fig. 13 at cmd/repro's -quick scale.
func benchUnit() sweep.UnitConfig {
	return sweep.UnitConfig{
		Topo: "mesh", Rate: 0.3, Seed: 42, Warmup: 500, Measure: 1000, Drain: 4000,
	}
}

// postUnit drives one request through the handler via a recorder and
// returns its elapsed time.
func postUnit(h http.Handler, body []byte) time.Duration {
	req := httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		fmt.Fprintf(os.Stderr, "benchjson: sweepd handler: %d: %s\n", rec.Code, rec.Body.String())
		os.Exit(1)
	}
	return elapsed
}

func sweepdBench(hitIters int) sweepdReport {
	unit := benchUnit()
	body, err := json.Marshal(sweep.Request{Base: unit})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep := sweepdReport{
		env:      newEnv(),
		Unit:     unit.Normalized(),
		Key:      unit.Key(),
		HitIters: hitIters,
	}

	srv, err := sweep.NewServer(sweep.Options{Workers: 2})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer srv.Close()
	h := srv.Handler()
	rep.ColdMissNS = float64(postUnit(h, body).Nanoseconds())
	var warm time.Duration
	for i := 0; i < hitIters; i++ {
		warm += postUnit(h, body)
	}
	rep.WarmHitNS = float64(warm.Nanoseconds()) / float64(hitIters)
	rep.HitSpeedup = rep.ColdMissNS / rep.WarmHitNS

	// Coalescing throughput needs a cold server so every request races for
	// the same in-flight simulation.
	srv2, err := sweep.NewServer(sweep.Options{Workers: 2})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer srv2.Close()
	h2 := srv2.Handler()
	const n = 8
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postUnit(h2, body)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	rep.ConcurrentRequests = n
	rep.SimRuns = srv2.SimRuns()
	rep.CoalescedWallNS = float64(wall.Nanoseconds())
	rep.RequestsPerSec = n / wall.Seconds()
	return rep
}
