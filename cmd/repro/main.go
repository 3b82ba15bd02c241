// Command repro regenerates the data for every table and figure in Becker &
// Dally (SC '09) in one pass and prints it to stdout. It is the one-shot
// driver behind EXPERIMENTS.md; expect the full run to take a few minutes
// at the default simulation scale.
//
// Usage:
//
//	repro                   # everything
//	repro -quick            # reduced trials/cycles for a fast sanity pass
//	repro -only fig13       # one experiment family
//	repro -only saturation  # saturation throughput per switch allocator
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/quality"
	"repro/internal/traffic"
)

func main() {
	quick := flag.Bool("quick", false, "reduced trials and cycles")
	def := experiments.DefaultScale()
	def.Workers = 4
	scaleOf := experiments.ScaleFlags(flag.CommandLine, def)
	workloadOf := experiments.WorkloadFlags(flag.CommandLine, traffic.Workload{})
	only := flag.String("only", "", "restrict to one experiment: fig4, fig5, fig6, fig7, fig10, fig11, fig12, fig13, fig14, vasweep, saturation, summary")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	blockprofile := flag.String("blockprofile", "", "write a goroutine-blocking profile to this file on exit")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
	flag.Parse()

	stop, err := prof.StartAll(prof.Profiles{CPU: *cpuprofile, Mem: *memprofile, Block: *blockprofile, Mutex: *mutexprofile})
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
	}()

	trials := 10000
	scale := scaleOf()
	workload, err := workloadOf()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	scale.Workload = workload
	if *quick {
		// -quick overrides the phase-length defaults but not an explicit
		// -warmup/-measure/-drain on the command line.
		trials = 500
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["warmup"] {
			scale.Warmup = 500
		}
		if !set["measure"] {
			scale.Measure = 1000
		}
		if !set["drain"] {
			scale.Drain = 4000
		}
	}

	want := func(name string) bool { return *only == "" || *only == name }
	ctx := context.Background()
	tech := costmodel.Default45nm()

	if want("fig4") {
		section("Fig. 4: VC transition matrix (fbfly 2x2x4)")
		spec := core.NewVCSpec(2, 2, 4)
		fmt.Printf("legal transitions: %d of %d (paper: 96 of 256)\n",
			spec.CountLegalTransitions(), spec.V()*spec.V())
		fmt.Printf("max successors per VC: %d (paper: 8)\n", spec.MaxSuccessorsPerVC())
	}

	if want("fig5") || want("fig6") {
		section("Figs. 5 & 6: VC allocator delay / area / power")
		for _, r := range experiments.VCCost(tech) {
			scheme := "dense"
			if r.Sparse {
				scheme = "sparse"
			}
			if !r.Est.Synthesized {
				fmt.Printf("%-12s %-9s %-6s synthesis failed\n", r.Point, r.Variant, scheme)
				continue
			}
			fmt.Printf("%-12s %-9s %-6s delay %.3f ns, area %.0f µm², power %.2f mW\n",
				r.Point, r.Variant, scheme, r.Est.DelayNS, r.Est.AreaUM2, r.Est.PowerMW)
		}
	}

	if want("fig7") {
		section("Fig. 7: VC allocator matching quality")
		for _, pt := range experiments.Points() {
			fmt.Printf("-- %s --\n", pt)
			fmt.Print(quality.FormatSeries(experiments.VCQuality(pt, sparseRates(), trials, 1, scale.Workers)))
		}
	}

	if want("fig10") || want("fig11") {
		section("Figs. 10 & 11: switch allocator delay / area / power")
		for _, r := range experiments.SwitchCost(tech) {
			if !r.Est.Synthesized {
				fmt.Printf("%-12s %-9s %-8s synthesis failed\n", r.Point, r.Variant, r.Mode)
				continue
			}
			fmt.Printf("%-12s %-9s %-8s delay %.3f ns, area %.0f µm², power %.2f mW\n",
				r.Point, r.Variant, r.Mode, r.Est.DelayNS, r.Est.AreaUM2, r.Est.PowerMW)
		}
	}

	if want("fig12") {
		section("Fig. 12: switch allocator matching quality")
		for _, pt := range experiments.Points() {
			fmt.Printf("-- %s --\n", pt)
			fmt.Print(quality.FormatSeries(experiments.SwitchQuality(pt, sparseRates(), trials, 1, scale.Workers)))
		}
	}

	if want("fig13") {
		section("Fig. 13: network performance of switch allocators")
		for _, pt := range experiments.Points() {
			fmt.Printf("-- %s --\n", pt)
			series := experiments.Fig13(ctx, pt, experiments.InjectionRates(pt), scale)
			fmt.Print(experiments.FormatNetSeries(series))
			for _, s := range series {
				fmt.Printf("%s saturation ~%.3f\n", s.Name, s.SaturationRate())
			}
		}
	}

	if want("fig14") {
		section("Fig. 14: speculative switch allocation schemes")
		for _, pt := range experiments.Points() {
			fmt.Printf("-- %s --\n", pt)
			series := experiments.Fig14(ctx, pt, experiments.InjectionRates(pt), scale)
			fmt.Print(experiments.FormatNetSeries(series))
		}
	}

	if want("vasweep") {
		section("§4.3.3: VC allocator sensitivity sweep")
		for _, pt := range experiments.Points()[:3] { // mesh points suffice
			fmt.Printf("-- %s --\n", pt)
			series := experiments.VASweep(ctx, pt, experiments.InjectionRates(pt), scale)
			fmt.Print(experiments.FormatNetSeries(series))
		}
	}

	if want("saturation") {
		section("Conclusions: saturation throughput per switch allocator")
		archs := []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront}
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "design point\tsep_if\tsep_of\twf\twf vs sep_if")
		for _, pt := range experiments.Points() {
			sats := map[alloc.Arch]float64{}
			for _, arch := range archs {
				sats[arch] = experiments.SaturationThroughput(pt, arch, scale)
			}
			fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t%+.1f%%\n",
				pt, sats[alloc.SepIF], sats[alloc.SepOF], sats[alloc.Wavefront],
				100*(sats[alloc.Wavefront]/sats[alloc.SepIF]-1))
			w.Flush()
		}
		fmt.Println("\npaper conclusions: wf ≈ sep_if on the mesh with few VCs; +15% at")
		fmt.Println("fbfly 2x2x2 and +21% at fbfly 2x2x4 (this model reproduces the")
		fmt.Println("ordering and growth with roughly half the peak magnitude).")
	}

	if want("summary") {
		section("Headline numbers")
		d, a, p := experiments.SparseSavings(tech)
		fmt.Printf("sparse VC allocation savings: delay %.0f%%, area %.0f%%, power %.0f%% (paper: 41/90/83)\n",
			d*100, a*100, p*100)
		s, row := experiments.PessimisticDelaySaving(tech)
		fmt.Printf("pessimistic speculation delay saving: %.0f%% at %s (paper: up to 23%%)\n", s*100, row)
	}
}

func section(title string) {
	fmt.Printf("\n==== %s ====\n", title)
}

// sparseRates trims the quality sweep to the shape-relevant samples so the
// full driver finishes in reasonable time.
func sparseRates() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
}
