// Command nocsim runs the cycle-accurate network simulations behind Figs.
// 13 and 14 of Becker & Dally (SC '09): average packet latency versus flit
// injection rate on the 8×8 mesh and the 4×4 flattened butterfly under
// uniform-random request–reply traffic.
//
// Usage:
//
//	nocsim -exp fig13 -topo fbfly -c 4       # switch allocator comparison
//	nocsim -exp fig14 -topo mesh -c 1        # speculation scheme comparison
//	nocsim -exp vasweep -topo mesh -c 2      # VC allocator (in)sensitivity
//	nocsim -exp workload -process mmp        # bursty-injection latency curve
//	nocsim -record t.txt -rate 0.2           # record a packet trace ...
//	nocsim -exp workload -trace t.txt        # ... and replay it
//
// Latency entries marked with '*' did not drain within the drain budget
// (the offered load exceeds saturation throughput).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

func main() {
	exp := flag.String("exp", "fig13", "experiment: fig13, fig14, vasweep, patterns or workload")
	topo := flag.String("topo", "mesh", "design point topology: mesh or fbfly")
	c := flag.Int("c", 1, "VCs per class (1, 2 or 4)")
	scaleOf := experiments.ScaleFlags(flag.CommandLine,
		experiments.SimScale{Warmup: 3000, Measure: 6000, Drain: 20000, Seed: 42, Workers: 4})
	workloadOf := experiments.WorkloadFlags(flag.CommandLine, traffic.Workload{})
	record := flag.String("record", "", "run once under the selected workload (at -rate, default mid-sweep), write the arrival trace to this file and exit")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	blockprofile := flag.String("blockprofile", "", "write a goroutine-blocking profile to this file on exit")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
	flag.Parse()

	stop, err := prof.StartAll(prof.Profiles{CPU: *cpuprofile, Mem: *memprofile, Block: *blockprofile, Mutex: *mutexprofile})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocsim:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "nocsim:", err)
			os.Exit(1)
		}
	}()

	pt, err := experiments.PointByName(*topo, *c)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	scale := scaleOf()
	workload, err := workloadOf()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	scale.Workload = workload
	rates := experiments.InjectionRates(pt)

	if *record != "" {
		if err := recordTrace(*record, pt, workload, rates, scale); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	header := func(format string, args ...any) {
		if !*asJSON {
			fmt.Printf(format, args...)
		}
	}
	ctx, exec := experiments.WithExecStats(context.Background())
	var series []experiments.NetSeries
	switch *exp {
	case "fig13":
		header("switch allocator performance (Fig. 13), %s, uniform request-reply traffic\n", pt)
		series = experiments.Fig13(ctx, pt, rates, scale)
	case "fig14":
		header("speculative switch allocation (Fig. 14), %s, sep_if switch allocator\n", pt)
		series = experiments.Fig14(ctx, pt, rates, scale)
	case "vasweep":
		header("VC allocator sensitivity (§4.3.3), %s\n", pt)
		series = experiments.VASweep(ctx, pt, rates, scale)
	case "patterns":
		header("traffic pattern sweep (§3.2), %s at rate %.2f\n", pt, rates[len(rates)/2])
		var err error
		series, err = experiments.PatternSweep(ctx, pt, rates[len(rates)/2], scale,
			[]string{"uniform", "transpose", "bitcomp", "bitrev", "shuffle", "tornado", "neighbor", "hotspot"})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "workload":
		header("workload latency-throughput sweep, %s, %s\n", pt, experiments.WorkloadName(workload))
		wrates := rates
		if workload.Process == "trace" {
			// Replay's offered load is data carried by the trace, not a
			// swept parameter: one point regenerates the recorded run.
			wrates = []float64{0}
		}
		series = experiments.WorkloadCurve(ctx, pt, wrates, scale)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(1)
	}
	if *asJSON {
		report := experiments.NetworkReport(*exp, pt, series)
		report.Execution = exec
		if err := report.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Print(experiments.FormatNetSeries(series))
	fmt.Println()
	for _, s := range series {
		fmt.Printf("%s: saturation throughput ~%.3f flits/cycle/terminal\n", s.Name, s.SaturationRate())
	}
}

// recordTrace runs one simulation under the selected workload with arrival
// recording on and writes the packet trace to path. Replaying that file
// (-trace path) regenerates the recorded injection stream exactly; on the
// mesh (RNG-free routing) the replayed run is byte-identical to this one.
func recordTrace(path string, pt experiments.Point, w traffic.Workload, rates []float64, scale experiments.SimScale) error {
	rate := w.Rate
	if rate <= 0 {
		rate = rates[len(rates)/2]
	}
	cfg := experiments.BuildSim(pt, rate, scale)
	cfg.RecordArrivals = true
	net := sim.New(cfg)
	res := net.Run()
	ptr := net.ArrivalTrace()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteArrivals(f, ptr); err != nil {
		return err
	}
	fmt.Printf("recorded %d arrivals from %d terminals (%s at rate %.3f, avg latency %.1f) to %s\n",
		len(ptr.Arrivals), ptr.Terminals, pt, rate, res.AvgLatency, path)
	return nil
}
