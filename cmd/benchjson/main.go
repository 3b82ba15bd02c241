// Command benchjson times the repository's three performance surfaces and
// writes them as machine-readable JSON, so the perf trajectory stays
// comparable across changes without parsing `go test -bench` output:
//
//   - BENCH_net.json: full warmup/measure/drain network simulations of the
//     Fig. 13 mesh 2x1x1 design from a drain-dominated low rate to a
//     near-saturation rate, under the simulator's default schedule (serial
//     and sharded) and its reference schedule.
//   - BENCH_quality.json: quality-harness timings — the matching-quality
//     sweeps behind the Fig. 5/6 reproductions, serial and parallel.
//   - BENCH_sweepd.json: sweep-service layer timings — cold miss vs warm
//     content-store hit, and coalescing of concurrent identical requests.
//   - BENCH_pareto.json: design-space search mechanisms — pruned-vs-brute
//     simulation counts and disk-cold vs disk-warm search wall time.
//   - BENCH_curve.json: adaptive curve tracer — adaptive vs fixed-grid point
//     counts, trace wall time cold vs disk-warm, and the per-simulation
//     setup cost.
//
// Usage:
//
//	benchjson                     # default iteration counts, writes every file
//	benchjson -quick -out -       # reduced counts, net JSON to stdout
//
// Runs are deterministic (seed 42), so the ns/op fields are the only ones
// expected to move between revisions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/quality"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// env captures the machine context shared by every report.
type env struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
}

func newEnv() env {
	return env{GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
}

// netPoint is one timed network-simulation configuration.
type netPoint struct {
	Name string `json:"name"`
	// Workload names a non-baseline injection workload (empty for the
	// bernoulli/uniform baseline points).
	Workload       string  `json:"workload,omitempty"`
	Rate           float64 `json:"rate"`
	Reference      bool    `json:"reference"`
	Shards         int     `json:"shards"`
	Iters          int     `json:"iters"`
	NsPerOp        float64 `json:"ns_per_op"`
	Cycles         int64   `json:"cycles_per_op"`
	CyclesPerSec   float64 `json:"cycles_per_sec"`
	FlitsDelivered int64   `json:"flits_delivered_per_op"`
	// LeapEvents and CyclesLeapt average the leap gate's firings and the
	// cycles it skipped per run (zero under the reference schedule).
	LeapEvents  int64 `json:"leap_events_per_op,omitempty"`
	CyclesLeapt int64 `json:"cycles_leapt_per_op,omitempty"`
	// ConcurrentCycles averages the stepped cycles whose shards ran on
	// separate goroutines (zero on one shard and wherever the break-even
	// rule kept the cycles inline).
	ConcurrentCycles int64 `json:"concurrent_cycles_per_op,omitempty"`
}

type netReport struct {
	env
	Points []netPoint `json:"points"`
}

// benchScale is the phase-length/seed baseline every network point runs
// at; the shared -warmup/-measure/-drain/-seed flags adjust it, while each
// point's own shards/reference matrix overrides the execution axes.
var benchScale = experiments.SimScale{Warmup: 500, Measure: 1500, Drain: 8000, Seed: 42}

// runNetPoint times iters runs of one configuration. Only Run() is on the
// clock: network construction costs ~1.5 ms regardless of configuration,
// which on short low-rate points would dilute every stepper-level ratio
// the snapshot exists to track.
func runNetPoint(name string, pt experiments.Point, rate float64, shards int, reference bool, iters int, w traffic.Workload) netPoint {
	scale := benchScale
	scale.Shards, scale.Reference = shards, reference
	scale.Workload = w
	cfg := experiments.BuildSim(pt, rate, scale)
	var cycles, flits, leaps, leapt, concurrent int64
	var elapsed time.Duration
	for i := 0; i < iters; i++ {
		n := sim.New(cfg)
		start := time.Now()
		res := n.Run()
		elapsed += time.Since(start)
		if res.FlitsDelivered == 0 {
			fmt.Fprintf(os.Stderr, "benchjson: no traffic moved at rate %g\n", rate)
			os.Exit(1)
		}
		cycles += res.Cycles
		flits += res.FlitsDelivered
		ev, cy := n.LeapStats()
		leaps += ev
		leapt += cy
		concurrent += n.ParallelStats().Concurrent
	}
	wname := ""
	if w.Process != "" || w.Pattern != "" {
		wname = experiments.WorkloadName(w.Normalized())
	}
	return netPoint{
		Name:           name,
		Workload:       wname,
		Rate:           rate,
		Reference:      reference,
		Shards:         shards,
		Iters:          iters,
		NsPerOp:        float64(elapsed.Nanoseconds()) / float64(iters),
		Cycles:         cycles / int64(iters),
		CyclesPerSec:   float64(cycles) / elapsed.Seconds(),
		FlitsDelivered: flits / int64(iters),
		LeapEvents:     leaps / int64(iters),
		CyclesLeapt:    leapt / int64(iters),

		ConcurrentCycles: concurrent / int64(iters),
	}
}

func netBench(iters int) netReport {
	pt, err := experiments.PointByName("mesh", 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep := netReport{env: newEnv()}
	// 0.0005 is the drain-dominated point: across 64 terminals the aggregate
	// arrival gaps dwarf a transaction's round trip, so the network is fully
	// idle most cycles and the leap gate carries the run.
	for _, rate := range []float64{0.0005, 0.005, 0.05, 0.30} {
		for _, sched := range []string{"reference", "default"} {
			for _, shards := range []int{1, 2, 4} {
				if sched == "reference" && shards != 1 {
					continue // the reference × sharded cross is covered by tests, not tracked perf
				}
				name := fmt.Sprintf("mesh_2x1x1/rate=%g/%s/shards=%d", rate, sched, shards)
				rep.Points = append(rep.Points,
					runNetPoint(name, pt, rate, shards, sched == "reference", iters, traffic.Workload{}))
			}
		}
	}
	// Workload axis: the bursty (mmp) and hotspot injection workloads, so the
	// arrival-process layer's cost stays tracked against the
	// bernoulli/uniform baseline above. 0.05 is low enough that mmp's OFF
	// periods leave real idle stretches for the leap gate to skip.
	for _, wl := range []struct {
		name string
		w    traffic.Workload
	}{
		{"mmp", traffic.Workload{Process: "mmp"}},
		{"hotspot", traffic.Workload{Pattern: "hotspot"}},
	} {
		for _, sched := range []string{"reference", "default"} {
			name := fmt.Sprintf("mesh_2x1x1/rate=0.05/%s/%s/shards=1", wl.name, sched)
			rep.Points = append(rep.Points,
				runNetPoint(name, pt, 0.05, 1, sched == "reference", iters, wl.w))
		}
	}
	return rep
}

// qualityPoint is one timed quality-harness sweep.
type qualityPoint struct {
	Name       string  `json:"name"`
	Kind       string  `json:"kind"` // "vc" or "switch"
	Workers    int     `json:"workers"`
	Configs    int     `json:"configs"`
	Rates      int     `json:"rates"`
	Trials     int     `json:"trials"`
	NsPerSweep float64 `json:"ns_per_sweep"`
	MinQuality float64 `json:"min_quality"`
}

type qualityReport struct {
	env
	Points []qualityPoint `json:"points"`
}

func qualityBench(trials int) qualityReport {
	const ports = 5
	spec := core.NewVCSpec(2, 1, 4)
	rates := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	rep := qualityReport{env: newEnv()}

	vcCfgs := []core.VCAllocConfig{
		{Ports: ports, Spec: spec, Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin},
		{Ports: ports, Spec: spec, Arch: alloc.SepOF, ArbKind: arbiter.RoundRobin},
		{Ports: ports, Spec: spec, Arch: alloc.Wavefront},
	}
	saCfgs := []core.SwitchAllocConfig{
		{Ports: ports, VCs: spec.V(), Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin, SpecMode: core.SpecNone},
		{Ports: ports, VCs: spec.V(), Arch: alloc.Wavefront, ArbKind: arbiter.RoundRobin, SpecMode: core.SpecNone},
	}
	// One row per distinct worker count: on a 1-CPU host NumCPU is 1 too.
	workerCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		start := time.Now()
		series := quality.VCSeriesMulti(vcCfgs, rates, trials, 42, workers)
		elapsed := time.Since(start)
		rep.Points = append(rep.Points, qualityPoint{
			Name: "quality/vc_sweep", Kind: "vc", Workers: workers,
			Configs: len(vcCfgs), Rates: len(rates), Trials: trials,
			NsPerSweep: float64(elapsed.Nanoseconds()), MinQuality: minQuality(series),
		})

		start = time.Now()
		series = quality.SwitchSeriesMulti(saCfgs, rates, trials, 42, workers)
		elapsed = time.Since(start)
		rep.Points = append(rep.Points, qualityPoint{
			Name: "quality/switch_sweep", Kind: "switch", Workers: workers,
			Configs: len(saCfgs), Rates: len(rates), Trials: trials,
			NsPerSweep: float64(elapsed.Nanoseconds()), MinQuality: minQuality(series),
		})
	}
	return rep
}

func minQuality(series []quality.Series) float64 {
	m := 1.0
	for _, s := range series {
		if q := s.MinQuality(); q < m {
			m = q
		}
	}
	return m
}

func emit(v any, out string) {
	enc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", out)
}

func main() {
	out := flag.String("out", "BENCH_net.json", "network report output ('-' for stdout, '' to skip)")
	qualityOut := flag.String("qualityout", "BENCH_quality.json", "quality report output ('-' for stdout, '' to skip)")
	quick := flag.Bool("quick", false, "reduced iteration/cycle/trial counts per point (CI smoke)")
	iters := flag.Int("iters", 3, "iterations per network point")
	trials := flag.Int("trials", 2000, "request matrices per quality rate point")
	sweepdOut := flag.String("sweepdout", "BENCH_sweepd.json", "sweep service report output ('-' for stdout, '' to skip)")
	hitIters := flag.Int("hititers", 200, "cache-hit serves averaged per sweepd measurement")
	paretoOut := flag.String("paretoout", "BENCH_pareto.json", "design-space search report output ('-' for stdout, '' to skip)")
	curveOut := flag.String("curveout", "BENCH_curve.json", "adaptive curve tracer report output ('-' for stdout, '' to skip)")
	setupIters := flag.Int("setupiters", 100, "BuildSim+sim.New constructions averaged per curve setup measurement")
	scaleOf := experiments.ScaleFlags(flag.CommandLine, benchScale)
	flag.Parse()
	benchScale = scaleOf()
	if *quick {
		*iters, *trials, *hitIters, *setupIters = 1, 100, 50, 20
	}

	if *out != "" {
		emit(netBench(*iters), *out)
	}
	if *qualityOut != "" {
		emit(qualityBench(*trials), *qualityOut)
	}
	if *sweepdOut != "" {
		emit(sweepdBench(*hitIters), *sweepdOut)
	}
	if *paretoOut != "" {
		emit(paretoBench(), *paretoOut)
	}
	if *curveOut != "" {
		emit(curveBench(*setupIters), *curveOut)
	}
}
