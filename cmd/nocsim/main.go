// Command nocsim runs the cycle-accurate network simulations behind Figs.
// 13 and 14 of Becker & Dally (SC '09) for one design point: average packet
// latency versus flit injection rate on the 8×8 mesh or the 4×4 flattened
// butterfly under uniform-random request–reply traffic, or under a chosen
// workload. It also traces one packet through the router pipeline.
//
// Usage:
//
//	nocsim -exp fig13 -topo fbfly -c 4       # switch allocator comparison
//	nocsim -exp fig14 -topo mesh -c 1        # speculation scheme comparison
//	nocsim -exp vasweep -topo mesh -c 2      # VC allocator (in)sensitivity
//	nocsim -exp workload -process mmp        # bursty-injection latency curve
//	nocsim -record t.txt -rate 0.2           # record a packet trace ...
//	nocsim -exp workload -trace t.txt        # ... and replay it
//	nocsim -exp story -topo fbfly -c 2 -rate 0.3 -packet 50   # one packet's pipeline story
//
// A -rate of 0 (the default) means the middle of the design point's sweep,
// for -record and -exp story, the two runs at one rate.
//
// An unknown -exp or design point, or any positional argument, is a usage
// error (exit 2).
//
// Latency entries marked with '*' did not drain within the drain budget
// (the offered load exceeds saturation throughput).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/curve"
	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// exps are the experiments -exp accepts.
var exps = []string{"fig13", "fig14", "vasweep", "patterns", "workload", "story"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the tables (or JSON) to
// stdout and diagnostics to stderr, and returns the exit status — 2 for a
// usage error, 1 for any other.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("nocsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "fig13", "experiment: "+strings.Join(exps, ", "))
	topo := fs.String("topo", "mesh", "design point topology: mesh or fbfly")
	c := fs.Int("c", 1, "VCs per class (1, 2 or 4)")
	scaleOf := experiments.ScaleFlags(fs,
		experiments.SimScale{Warmup: 3000, Measure: 6000, Drain: 20000, Seed: 42, Workers: 4})
	workloadOf := experiments.WorkloadFlags(fs, traffic.Workload{})
	record := fs.String("record", "", "run once under the selected workload (at -rate, default mid-sweep), write the arrival trace to this file and exit")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON instead of tables")
	pkt := fs.Int64("packet", 0, "-exp story: packet id to trace (0 = first fully traced packet)")
	profiles := prof.Flags(fs)
	if code, ok := experiments.ParseArgs(fs, args); !ok {
		return code
	}
	if !slices.Contains(exps, *exp) {
		return experiments.UsageError(fs, "unknown -exp %q; want one of %s", *exp, strings.Join(exps, ", "))
	}
	pt, err := experiments.PointByName(*topo, *c)
	if err != nil {
		return experiments.UsageError(fs, "%v", err)
	}

	stop, err := prof.StartAll(profiles())
	if err != nil {
		fmt.Fprintln(stderr, "nocsim:", err)
		return 1
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(stderr, "nocsim:", err)
			code = 1
		}
	}()

	scale := scaleOf()
	workload, err := workloadOf()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	scale.Workload = workload
	rates := experiments.InjectionRates(pt)
	rate := workload.Rate
	if rate <= 0 {
		rate = rates[len(rates)/2]
	}

	if *record != "" {
		if err := recordTrace(stdout, *record, pt, rate, scale); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	if *exp == "story" {
		return story(stdout, stderr, pt, rate, scale, *pkt)
	}

	if workload.Process == "trace" && *exp != "workload" {
		// A trace is one recorded run: it has no offered rate to sweep and
		// no unit to vary, and the sweep server cannot carry it.
		return experiments.UsageError(fs, "-exp %s cannot replay a trace; use -exp workload or -exp story", *exp)
	}

	header := func(format string, args ...any) {
		if !*asJSON {
			fmt.Fprintf(stdout, format, args...)
		}
	}
	srv, err := sweep.NewServer(sweep.Options{Workers: scale.Workers})
	if err != nil {
		fmt.Fprintln(stderr, "nocsim:", err)
		return 1
	}
	defer srv.Close()
	ctx := context.Background()
	var series []experiments.NetSeries
	var exec experiments.ExecStats
	switch *exp {
	case "fig13":
		header("switch allocator performance (Fig. 13), %s, uniform request-reply traffic\n", pt)
		series, err = curve.Fig13(ctx, srv, pt, rates, scale)
	case "fig14":
		header("speculative switch allocation (Fig. 14), %s, sep_if switch allocator\n", pt)
		series, err = curve.Fig14(ctx, srv, pt, rates, scale)
	case "vasweep":
		header("VC allocator sensitivity (§4.3.3), %s\n", pt)
		series, err = curve.VASweep(ctx, srv, pt, rates, scale)
	case "patterns":
		header("traffic pattern sweep (§3.2), %s at rate %.2f\n", pt, rates[len(rates)/2])
		series, err = curve.PatternSweep(ctx, srv, pt, rates[len(rates)/2], scale,
			[]string{"uniform", "transpose", "bitcomp", "bitrev", "shuffle", "tornado", "neighbor", "hotspot"})
	case "workload":
		header("workload latency-throughput sweep, %s, %s\n", pt, experiments.WorkloadName(workload))
		if workload.Process == "trace" {
			series, exec = replay(pt, scale)
		} else {
			series, err = curve.WorkloadCurve(ctx, srv, pt, rates, scale)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "nocsim:", err)
		return 1
	}
	exec.Add(srv.Exec())
	if *asJSON {
		report := experiments.NetworkReport(*exp, pt, series)
		report.Execution = &exec
		if err := report.WriteJSON(stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	fmt.Fprint(stdout, experiments.FormatNetSeries(series))
	fmt.Fprintln(stdout)
	for _, s := range series {
		fmt.Fprintf(stdout, "%s: saturation throughput ~%.3f flits/cycle/terminal\n", s.Name, s.SaturationRate())
	}
	return 0
}

// replay runs the trace workload once: its offered load is data carried by
// the trace, not a swept parameter, so one point at rate 0 regenerates the
// recorded run.
func replay(pt experiments.Point, scale experiments.SimScale) ([]experiments.NetSeries, experiments.ExecStats) {
	n := sim.New(experiments.BuildSim(pt, 0, scale))
	res := n.Run()
	p := experiments.NetPoint{Latency: res.AvgLatency, Throughput: res.Throughput, Saturated: res.Saturated, Cycles: res.Cycles}
	return []experiments.NetSeries{{Name: experiments.WorkloadName(scale.Workload), Points: []experiments.NetPoint{p}}}, experiments.Execution(n)
}

// recordTrace runs one simulation under the selected workload at rate with
// arrival recording on and writes the packet trace to path. Replaying that
// file (-trace path) regenerates the recorded injection stream exactly, and
// at the same seed the replayed run reproduces this run's result on either
// topology: routing draws from streams of its own, which a replay draws from
// as the recording did.
func recordTrace(out io.Writer, path string, pt experiments.Point, rate float64, scale experiments.SimScale) error {
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
	fmt.Fprintf(out, "recorded %d arrivals from %d terminals (%s at rate %.3f, avg latency %.1f) to %s\n",
		len(ptr.Arrivals), ptr.Terminals, pt, rate, res.AvgLatency, path)
	return nil
}

// storyCandidates bounds the packet ids -exp story picks from by default.
const storyCandidates = 500

// story runs one traced simulation at rate and prints the complete pipeline
// story of packet id: injection, per-router route computation, VC-allocation
// grant, switch grants (speculative or not), misspeculations and ejection.
// It is the debugging lens for the router pipeline. id 0 picks the first
// packet among the first storyCandidates whose retained story is complete.
func story(stdout, stderr io.Writer, pt experiments.Point, rate float64, scale experiments.SimScale, id int64) int {
	// Keep only the packets the story can be about, so that a long run does
	// not evict them from the collector.
	keep := func(e trace.Event) bool { return e.Packet >= 1 && e.Packet < storyCandidates }
	if id != 0 {
		keep = func(e trace.Event) bool { return e.Packet == id }
	}
	collector := trace.NewCollector(1 << 20)
	cfg := experiments.BuildSim(pt, rate, scale)
	cfg.Trace = trace.New(collector, keep)
	res := sim.New(cfg).Run()

	fmt.Fprintf(stdout, "%s at rate %.2f: %d packets measured, avg latency %.1f cycles\n\n",
		pt, rate, res.MeasuredPackets, res.AvgLatency)

	if id == 0 {
		// Pick the first packet whose retained story is complete.
		for candidate := int64(1); candidate < storyCandidates; candidate++ {
			evs := collector.PacketEvents(candidate)
			if len(evs) >= 4 && evs[0].Kind == trace.Inject && evs[len(evs)-1].Kind == trace.Eject {
				id = candidate
				break
			}
		}
	}
	events := collector.PacketEvents(id)
	if len(events) == 0 {
		fmt.Fprintf(stderr, "no trace events retained for packet %d\n", id)
		return 1
	}
	fmt.Fprintf(stdout, "packet %d pipeline story:\n", id)
	for _, e := range events {
		fmt.Fprintln(stdout, "  "+e.String())
	}
	inj, ej := events[0], events[len(events)-1]
	if inj.Kind == trace.Inject && ej.Kind == trace.Eject {
		fmt.Fprintf(stdout, "\nin-network time: %d cycles\n", ej.Cycle-inj.Cycle)
	}
	return 0
}
