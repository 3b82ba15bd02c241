// Command pareto runs the pruned Pareto design-space search over the
// allocator zoo of Becker & Dally (SC '09): every VC-allocator architecture
// × arbiter × sparse mode crossed with every switch-allocator architecture
// × arbiter × speculation scheme, per VC count and topology. Each design
// point is screened with the analytical cost model (delay, area, power) and
// evaluated for accepted throughput by the cycle-accurate simulator at a
// fixed offered load; the output is the per-topology Pareto-optimal set
// over all four axes.
//
// Dominance pruning skips simulations it can prove cannot change the
// frontier, canonical-hash dedup collapses equivalent spellings, and
// -cachedir persists every simulated point so re-runs and refinements are
// warm across processes (the same directory format sweepd serves from).
//
// Usage:
//
//	pareto                          # full space, table to stdout
//	pareto -out pareto.json         # full result as JSON
//	pareto -cachedir ~/.noc-sweep   # disk-warm across runs
//	pareto -topos mesh -vcs 1,2 -noprune
//	pareto -patterns uniform,hotspot -processes bernoulli,mmp
//	pareto -curves                  # adaptive latency-throughput curve per frontier point
//	pareto -smoke                   # reduced space + tiny scale (CI)
//
// The -patterns/-processes axes default to the paper baseline singletons
// (uniform × bernoulli); -burstlen/-duty/-hotspots/-hotfrac fix the mmp
// and hotspot parameters for the whole search. Dominance comparisons are
// scoped to one evaluation condition (topology × workload × rate), so
// mixing workloads never lets a benign-traffic point prune a bursty one.
// Trace replay is batch-only and rejected here.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/curve"
	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/sweep"
)

func main() {
	out := flag.String("out", "", "write the full search result as JSON to this file ('-' = stdout)")
	cacheDir := flag.String("cachedir", "", "disk cache directory shared with sweepd (empty = memory-only)")
	topos := flag.String("topos", "", "comma-separated topologies to search (default mesh,fbfly)")
	vcs := flag.String("vcs", "", "comma-separated VCs-per-class values (default 1,2,4)")
	meshRate := flag.Float64("meshrate", 0, "mesh evaluation load (default 0.44)")
	fbflyRate := flag.Float64("fbflyrate", 0, "fbfly evaluation load (default 0.60)")
	patterns := flag.String("patterns", "", "comma-separated traffic patterns to search (default uniform)")
	processes := flag.String("processes", "", "comma-separated arrival processes to search (default bernoulli; trace is batch-only)")
	burstLen := flag.Float64("burstlen", 0, "mmp mean burst length when the processes axis includes mmp (default 32)")
	duty := flag.Float64("duty", 0, "mmp duty cycle when the processes axis includes mmp (default 0.25)")
	hotspots := flag.String("hotspots", "", "comma-separated hotspot terminals when the patterns axis includes hotspot (default 0)")
	hotFrac := flag.Float64("hotfrac", 0, "fraction of traffic aimed at the hotspot set (default 0.2)")
	curves := flag.Bool("curves", false, "after the search, trace an adaptive latency-throughput curve for every frontier point (each curve reuses the search's cached evaluation point)")
	curveStep := flag.Float64("curvestep", experiments.DefaultLatticeStep, "rate-lattice step for -curves; every sampled rate is an exact multiple")
	curvePoints := flag.Int("curvepoints", 0, "simulated-point budget per curve for -curves (default 64)")
	noPrune := flag.Bool("noprune", false, "disable dominance pruning (simulate every feasible point; frontier is identical)")
	smoke := flag.Bool("smoke", false, "reduced space at a tiny scale (CI smoke)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	scaleOf := experiments.ScaleFlags(flag.CommandLine,
		experiments.SimScale{Warmup: 500, Measure: 1000, Drain: 4000, Seed: 42,
			Workers: runtime.GOMAXPROCS(0)})
	flag.Parse()
	scale := scaleOf()
	stop, err := prof.StartAll(prof.Profiles{CPU: *cpuprofile, Mem: *memprofile})
	if err != nil {
		log.Fatal("pareto: ", err)
	}
	defer func() {
		if err := stop(); err != nil {
			log.Fatal("pareto: ", err)
		}
	}()

	if *curves {
		// Snap the evaluation loads onto the curve lattice: the search then
		// simulates its frontier points at canonical lattice rates, so every
		// curve traced afterwards gets its evaluation point back as a cache
		// hit instead of a fresh simulation.
		lat := experiments.RateLattice{Step: *curveStep}
		mr, fr := *meshRate, *fbflyRate
		if mr == 0 {
			mr = 0.44
		}
		if fr == 0 {
			fr = 0.60
		}
		*meshRate, *fbflyRate = lat.Snap(mr), lat.Snap(fr)
	}

	spec := dse.Spec{
		Topos:     splitCSV(*topos),
		VCs:       splitInts("-vcs", *vcs),
		MeshRate:  *meshRate,
		FbflyRate: *fbflyRate,
		Patterns:  splitCSV(*patterns),
		Processes: splitCSV(*processes),
		BurstLen:  *burstLen, Duty: *duty,
		Hotspots: splitInts("-hotspots", *hotspots), HotspotFraction: *hotFrac,
		Warmup: scale.Warmup, Measure: scale.Measure, Drain: scale.Drain,
		Seed:    scale.Seed,
		NoPrune: *noPrune,
	}
	if *smoke {
		spec.Topos = []string{"mesh"}
		spec.VCs = []int{1, 2}
		spec.VAArbs = []string{"rr"}
		spec.SAArbs = []string{"rr"}
		spec.Warmup, spec.Measure, spec.Drain = 200, 400, 2000
	}

	srv, err := sweep.NewServer(sweep.Options{
		Workers:  scale.Workers,
		CacheDir: *cacheDir,
	})
	if err != nil {
		log.Fatal("pareto: ", err)
	}
	defer srv.Close()

	start := time.Now()
	res, err := dse.Search(context.Background(), srv, spec, dse.SearchOptions{
		Workers: scale.Workers,
		Progress: func(simulated, pruned, feasible int) {
			fmt.Fprintf(os.Stderr, "\rpareto: %d simulated, %d pruned / %d feasible", simulated, pruned, feasible)
		},
	})
	fmt.Fprintln(os.Stderr)
	if err != nil {
		log.Fatal("pareto: ", err)
	}
	elapsed := time.Since(start)

	fmt.Printf("design space: %d enumerated → %d distinct (%d dup spellings), %d infeasible, %d feasible\n",
		res.Enumerated, res.Distinct, res.Enumerated-res.Distinct, res.Infeasible, res.Feasible)
	fmt.Printf("search: %d simulated, %d pruned (%.0f%% of feasible skipped), %v",
		res.Simulated, res.Pruned, 100*float64(res.Pruned)/float64(max(res.Feasible, 1)), elapsed.Round(time.Millisecond))
	if d := srv.Disk(); d != nil {
		ds := d.Stats()
		fmt.Printf(" — disk cache %s: %d hits, %d writes", ds.Dir, ds.Hits, ds.Writes)
	}
	fmt.Printf("\n\nPareto frontier (%d points):\n", len(res.Frontier))
	fmt.Printf("%-52s %9s %12s %9s %8s %8s\n", "design point", "delay ns", "area µm²", "power mW", "perf", "latency")
	for _, p := range res.Frontier {
		fmt.Printf("%-52s %9.3f %12.0f %9.2f %8.4f %8.1f\n",
			p.Label, p.DelayNS, p.AreaUM2, p.PowerMW, p.Perf, p.Latency)
	}

	var traced []namedTrace
	if *curves {
		if traced, err = traceFrontier(srv, res.Frontier, *curveStep, *curvePoints, scale.Workers); err != nil {
			log.Fatal("pareto: ", err)
		}
	}

	if *out != "" {
		var v any = res
		if *curves {
			v = struct {
				dse.Result
				Curves []namedTrace `json:"curves"`
			}{res, traced}
		}
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			log.Fatal("pareto: ", err)
		}
		b = append(b, '\n')
		if *out == "-" {
			os.Stdout.Write(b)
		} else if err := os.WriteFile(*out, b, 0o644); err != nil {
			log.Fatal("pareto: ", err)
		}
	}
}

// namedTrace pairs a frontier point's label with its adaptive trace in the
// -out JSON.
type namedTrace struct {
	Label string      `json:"label"`
	Trace curve.Trace `json:"trace"`
}

// traceFrontier traces one adaptive latency-throughput curve per frontier
// point through the same server the search ran on — the evaluation points
// the search already simulated come back as cache hits — and prints one
// union-grid table per topology plus a knee summary per curve.
func traceFrontier(srv *sweep.Server, frontier []dse.FrontierPoint, step float64, maxPoints, workers int) ([]namedTrace, error) {
	var traced []namedTrace
	byTopo := map[string][]experiments.NetSeries{}
	var topoOrder []string
	start := time.Now()
	for i, p := range frontier {
		spec := curve.Spec{Base: p.Unit, Step: step, MaxPoints: maxPoints}
		fmt.Fprintf(os.Stderr, "\rpareto: tracing curve %d/%d (%s)", i+1, len(frontier), p.Label)
		tr, err := curve.TraceCurve(context.Background(), srv, spec, curve.Options{Workers: workers})
		if err != nil {
			fmt.Fprintln(os.Stderr)
			return nil, err
		}
		traced = append(traced, namedTrace{Label: p.Label, Trace: tr})
		if _, ok := byTopo[p.Unit.Topo]; !ok {
			topoOrder = append(topoOrder, p.Unit.Topo)
		}
		byTopo[p.Unit.Topo] = append(byTopo[p.Unit.Topo], tr.Series(p.Label))
	}
	fmt.Fprintln(os.Stderr)

	fmt.Printf("\nadaptive curves (%d traced, %v):\n", len(traced), time.Since(start).Round(time.Millisecond))
	fmt.Printf("%-52s %9s %10s %12s\n", "design point", "knee", "simulated", "fixed grid")
	for _, nt := range traced {
		knee := fmt.Sprintf("%.*f", 2, nt.Trace.KneeRate)
		if !nt.Trace.KneeFound {
			knee = ">" + knee
		}
		fmt.Printf("%-52s %9s %10d %12d\n", nt.Label, knee, nt.Trace.Simulated, nt.Trace.FixedGridPoints)
	}
	for _, topo := range topoOrder {
		fmt.Printf("\n%s curves:\n%s", topo, experiments.FormatNetSeries(byTopo[topo]))
	}
	return traced, nil
}

func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func splitInts(flagName, s string) []int {
	var out []int
	for _, p := range splitCSV(s) {
		n, err := strconv.Atoi(p)
		if err != nil {
			log.Fatalf("pareto: %s: %v", flagName, err)
		}
		out = append(out, n)
	}
	return out
}
