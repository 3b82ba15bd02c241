// Command matchquality regenerates the matching-quality curves of Figs. 7
// (VC allocators) and 12 (switch allocators) of Becker & Dally (SC '09):
// open-loop simulation with pseudo-random request matrices, normalized
// against a maximum-size allocator (§3.1; the paper uses 10000 matrices per
// point). The maximum is sized straight from each request set, one word per
// row, without building the matrix (internal/quality/matchsize.go); the
// tables are those alloc.NewMaximum gives on the materialised matrices.
//
// Usage:
//
//	matchquality -unit vc -topo mesh -c 4 [-trials 10000] [-seed 1] [-workers N] [-json]
//	matchquality -unit sw -topo fbfly -c 2
//
// -trials below 1, an unknown -unit or design point, or any positional
// argument is a usage error (exit 2).
//
// go build compiles the program with default.pgo, a CPU profile of the
// benchmark's quality classes; sh internal/prof/genpgo.sh regenerates it
// (DESIGN.md §18).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/quality"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the tables (or JSON) to
// stdout and diagnostics to stderr, and returns the exit status — 2 for a
// usage error, 1 for any other.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("matchquality", flag.ContinueOnError)
	fs.SetOutput(stderr)
	unit := fs.String("unit", "vc", "allocator unit: vc or sw")
	topo := fs.String("topo", "mesh", "design point topology: mesh or fbfly")
	c := fs.Int("c", 1, "VCs per class (1, 2 or 4)")
	trials := fs.Int("trials", 10000, "request matrices per rate point (at least 1)")
	seed := fs.Uint64("seed", 1, "workload seed")
	workers := fs.Int("workers", runtime.NumCPU(), "concurrently swept rate points (results are identical for any value)")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON instead of tables")
	profiles := prof.Flags(fs)
	if code, ok := experiments.ParseArgs(fs, args); !ok {
		return code
	}
	// No trials normalise nothing: every quality would print as 1.
	if *trials < 1 {
		return experiments.UsageError(fs, "-trials must be at least 1, got %d", *trials)
	}
	if *unit != "vc" && *unit != "sw" {
		return experiments.UsageError(fs, "unknown -unit %q; want vc or sw", *unit)
	}
	pt, err := experiments.PointByName(*topo, *c)
	if err != nil {
		return experiments.UsageError(fs, "%v", err)
	}

	stop, err := prof.StartAll(profiles())
	if err != nil {
		fmt.Fprintln(stderr, "matchquality:", err)
		return 1
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(stderr, "matchquality:", err)
			code = 1
		}
	}()

	rates := quality.DefaultRates()
	var series []quality.Series
	var figure string
	if *unit == "vc" {
		figure = "fig7"
		if !*asJSON {
			fmt.Fprintf(stdout, "VC allocator matching quality (Fig. 7), %s, %d trials/point\n", pt, *trials)
		}
		series = experiments.VCQuality(pt, rates, *trials, *seed, *workers)
	} else {
		figure = "fig12"
		if !*asJSON {
			fmt.Fprintf(stdout, "switch allocator matching quality (Fig. 12), %s, %d trials/point\n", pt, *trials)
		}
		series = experiments.SwitchQuality(pt, rates, *trials, *seed, *workers)
	}
	if *asJSON {
		if err := experiments.QualityReport(figure, pt, series).WriteJSON(stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	fmt.Fprint(stdout, quality.FormatSeries(series))
	return 0
}
