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
//	pareto -topos mesh -vcs 1,2
//	pareto -patterns uniform,hotspot -processes bernoulli,mmp
//	pareto -curves                  # adaptive latency-throughput curve per frontier point
//	pareto -smoke                   # reduced space + tiny scale (CI)
//	pareto -smoke -vcs 4            # the smoke preset, but for C = 4
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
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/curve"
	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/sweep"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the tables (and -out -
// JSON) to stdout and progress and diagnostics to stderr, and returns the
// exit status — 2 for a usage error, 1 for any other.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("pareto", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "write the full search result as JSON to this file ('-' = stdout)")
	cacheDir := fs.String("cachedir", "", "disk cache directory shared with sweepd (empty = memory-only)")
	topos := fs.String("topos", "", "comma-separated topologies to search (default mesh,fbfly)")
	vcs := fs.String("vcs", "", "comma-separated VCs-per-class values (default 1,2,4)")
	def := dse.Spec{}.Normalized()
	meshRate := fs.Float64("meshrate", 0, fmt.Sprintf("mesh evaluation load (default %.2f)", def.MeshRate))
	fbflyRate := fs.Float64("fbflyrate", 0, fmt.Sprintf("fbfly evaluation load (default %.2f)", def.FbflyRate))
	patterns := fs.String("patterns", "", "comma-separated traffic patterns to search (default uniform)")
	processes := fs.String("processes", "", "comma-separated arrival processes to search (default bernoulli; trace is batch-only)")
	burstLen := fs.Float64("burstlen", 0, "mmp mean burst length when the processes axis includes mmp (default 32)")
	duty := fs.Float64("duty", 0, "mmp duty cycle when the processes axis includes mmp (default 0.25)")
	hotspots := fs.String("hotspots", "", "comma-separated hotspot terminals when the patterns axis includes hotspot (default 0)")
	hotFrac := fs.Float64("hotfrac", 0, "fraction of traffic aimed at the hotspot set (default 0.2)")
	curves := fs.Bool("curves", false, "after the search, trace an adaptive latency-throughput curve for every frontier point (each curve reuses the search's cached evaluation point)")
	curveStep := fs.Float64("curvestep", experiments.DefaultLatticeStep, "rate-lattice step for -curves; every sampled rate is an exact multiple")
	curvePoints := fs.Int("curvepoints", 0, "simulated-point budget per curve for -curves (default 64)")
	smoke := fs.Bool("smoke", false, "reduced space at a tiny scale (CI smoke); an explicit -topos, -vcs, -warmup, -measure or -drain overrides its part")
	profiles := prof.Flags(fs)
	scaleOf := experiments.ScaleFlags(fs,
		experiments.SimScale{Warmup: 500, Measure: 1000, Drain: 4000, Seed: 42,
			Workers: runtime.GOMAXPROCS(0)})
	if code, ok := experiments.ParseArgs(fs, args); !ok {
		return code
	}
	if *smoke {
		experiments.Preset(fs, map[string]string{"topos": "mesh", "vcs": "1,2", "warmup": "200", "measure": "400", "drain": "2000"})
	}
	vcList, err := experiments.ParseIntsCSV(*vcs)
	if err != nil {
		return experiments.UsageError(fs, "-vcs: %v", err)
	}
	hotList, err := experiments.ParseIntsCSV(*hotspots)
	if err != nil {
		return experiments.UsageError(fs, "-hotspots: %v", err)
	}
	scale := scaleOf()
	spec := dse.Spec{
		Topos:     experiments.SplitCSV(*topos),
		VCs:       vcList,
		MeshRate:  *meshRate,
		FbflyRate: *fbflyRate,
		Patterns:  experiments.SplitCSV(*patterns),
		Processes: experiments.SplitCSV(*processes),
		BurstLen:  *burstLen, Duty: *duty,
		Hotspots: hotList, HotspotFraction: *hotFrac,
		Warmup: scale.Warmup, Measure: scale.Measure, Drain: scale.Drain,
		Seed: scale.Seed,
	}
	if *smoke {
		spec.VAArbs = []string{"rr"}
		spec.SAArbs = []string{"rr"}
	}
	if *curves {
		// Snap the evaluation loads onto the curve lattice: the search then
		// simulates its frontier points at canonical lattice rates, so every
		// curve traced afterwards gets its evaluation point back as a cache
		// hit instead of a fresh simulation.
		lat := experiments.RateLattice{Step: *curveStep}
		n := spec.Normalized()
		spec.MeshRate, spec.FbflyRate = lat.Snap(n.MeshRate), lat.Snap(n.FbflyRate)
	}
	if err := spec.Validate(); err != nil {
		return experiments.UsageError(fs, "%v", err)
	}

	stop, err := prof.StartAll(profiles())
	if err != nil {
		fmt.Fprintln(stderr, "pareto:", err)
		return 1
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(stderr, "pareto:", err)
			code = 1
		}
	}()

	srv, err := sweep.NewServer(sweep.Options{
		Workers:  scale.Workers,
		CacheDir: *cacheDir,
	})
	if err != nil {
		fmt.Fprintln(stderr, "pareto:", err)
		return 1
	}
	defer srv.Close()

	start := time.Now()
	res, err := dse.Search(context.Background(), srv, spec, dse.SearchOptions{
		Workers: scale.Workers,
		Progress: func(simulated, pruned, feasible int) {
			fmt.Fprintf(stderr, "\rpareto: %d simulated, %d pruned / %d feasible", simulated, pruned, feasible)
		},
	})
	fmt.Fprintln(stderr)
	if err != nil {
		fmt.Fprintln(stderr, "pareto:", err)
		return 1
	}
	elapsed := time.Since(start)

	fmt.Fprintf(stdout, "design space: %d enumerated → %d distinct (%d dup spellings), %d infeasible, %d feasible\n",
		res.Enumerated, res.Distinct, res.Enumerated-res.Distinct, res.Infeasible, res.Feasible)
	fmt.Fprintf(stdout, "search: %d simulated, %d pruned (%.0f%% of feasible skipped), %v",
		res.Simulated, res.Pruned, 100*float64(res.Pruned)/float64(max(res.Feasible, 1)), elapsed.Round(time.Millisecond))
	if d := srv.Disk(); d != nil {
		ds := d.Stats()
		fmt.Fprintf(stdout, " — disk cache %s: %d hits, %d writes", ds.Dir, ds.Hits, ds.Writes)
	}
	fmt.Fprintf(stdout, "\n\nPareto frontier (%d points):\n", len(res.Frontier))
	fmt.Fprintf(stdout, "%-52s %9s %12s %9s %8s %8s\n", "design point", "delay ns", "area µm²", "power mW", "perf", "latency")
	for _, p := range res.Frontier {
		fmt.Fprintf(stdout, "%-52s %9.3f %12.0f %9.2f %8.4f %8.1f\n",
			p.Label, p.DelayNS, p.AreaUM2, p.PowerMW, p.Perf, p.Latency)
	}

	var traced []namedTrace
	if *curves {
		if traced, err = traceFrontier(stdout, stderr, srv, res.Frontier, *curveStep, *curvePoints, scale.Workers); err != nil {
			fmt.Fprintln(stderr, "pareto:", err)
			return 1
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
			fmt.Fprintln(stderr, "pareto:", err)
			return 1
		}
		b = append(b, '\n')
		if *out == "-" {
			_, err = stdout.Write(b)
		} else {
			err = os.WriteFile(*out, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "pareto:", err)
			return 1
		}
	}
	return 0
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
func traceFrontier(stdout, stderr io.Writer, srv *sweep.Server, frontier []dse.FrontierPoint, step float64, maxPoints, workers int) ([]namedTrace, error) {
	var traced []namedTrace
	byTopo := map[string][]experiments.NetSeries{}
	var topoOrder []string
	start := time.Now()
	for i, p := range frontier {
		spec := curve.Spec{Base: p.Unit, Step: step, MaxPoints: maxPoints}
		fmt.Fprintf(stderr, "\rpareto: tracing curve %d/%d (%s)", i+1, len(frontier), p.Label)
		tr, err := curve.TraceCurve(context.Background(), srv, spec, curve.Options{Workers: workers})
		if err != nil {
			fmt.Fprintln(stderr)
			return nil, err
		}
		traced = append(traced, namedTrace{Label: p.Label, Trace: tr})
		if _, ok := byTopo[p.Unit.Topo]; !ok {
			topoOrder = append(topoOrder, p.Unit.Topo)
		}
		byTopo[p.Unit.Topo] = append(byTopo[p.Unit.Topo], tr.Series(p.Label))
	}
	fmt.Fprintln(stderr)

	fmt.Fprintf(stdout, "\nadaptive curves (%d traced, %v):\n", len(traced), time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "%-52s %9s %10s %12s\n", "design point", "knee", "simulated", "fixed grid")
	for _, nt := range traced {
		knee := fmt.Sprintf("%.*f", 2, nt.Trace.KneeRate)
		if !nt.Trace.KneeFound {
			knee = ">" + knee
		}
		fmt.Fprintf(stdout, "%-52s %9s %10d %12d\n", nt.Label, knee, nt.Trace.Simulated, nt.Trace.FixedGridPoints)
	}
	for _, topo := range topoOrder {
		fmt.Fprintf(stdout, "\n%s curves:\n%s", topo, experiments.FormatNetSeries(byTopo[topo]))
	}
	return traced, nil
}
