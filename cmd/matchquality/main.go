// Command matchquality regenerates the matching-quality curves of Figs. 7
// (VC allocators) and 12 (switch allocators) of Becker & Dally (SC '09):
// open-loop simulation with pseudo-random request matrices, normalized
// against a maximum-size allocator (§3.1; the paper uses 10000 matrices per
// point).
//
// Usage:
//
//	matchquality -unit vc -topo mesh -c 4 [-trials 10000]
//	matchquality -unit sw -topo fbfly -c 2
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/quality"
)

func main() {
	unit := flag.String("unit", "vc", "allocator unit: vc or sw")
	topo := flag.String("topo", "mesh", "design point topology: mesh or fbfly")
	c := flag.Int("c", 1, "VCs per class (1, 2 or 4)")
	trials := flag.Int("trials", 10000, "request matrices per rate point")
	seed := flag.Uint64("seed", 1, "workload seed")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrently swept rate points (results are identical for any value)")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	blockprofile := flag.String("blockprofile", "", "write a goroutine-blocking profile to this file on exit")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
	flag.Parse()

	stop := prof.StartAll(prof.Profiles{CPU: *cpuprofile, Mem: *memprofile, Block: *blockprofile, Mutex: *mutexprofile})
	defer stop()

	pt, err := experiments.PointByName(*topo, *c)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rates := quality.DefaultRates()
	var series []quality.Series
	var figure string
	switch *unit {
	case "vc":
		figure = "fig7"
		if !*asJSON {
			fmt.Printf("VC allocator matching quality (Fig. 7), %s, %d trials/point\n", pt, *trials)
		}
		series = experiments.VCQuality(pt, rates, *trials, *seed, *workers)
	case "sw":
		figure = "fig12"
		if !*asJSON {
			fmt.Printf("switch allocator matching quality (Fig. 12), %s, %d trials/point\n", pt, *trials)
		}
		series = experiments.SwitchQuality(pt, rates, *trials, *seed, *workers)
	default:
		fmt.Fprintf(os.Stderr, "unknown unit %q (want vc or sw)\n", *unit)
		os.Exit(1)
	}
	if *asJSON {
		if err := experiments.QualityReport(figure, pt, series).WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Print(quality.FormatSeries(series))
}
