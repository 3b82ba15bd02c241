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
//	repro -only fig4        # the VC transition matrix
//	repro -only saturation  # saturation throughput (knee) per switch allocator
//
// An -only name that selects no section, or any positional argument, is a
// usage error (exit 2).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/curve"
	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/quality"
	"repro/internal/sweep"
)

// sections are the names -only accepts, in the order a full run prints them;
// fig6 and fig11 select the fig5 and fig10 sections.
var sections = []string{"fig4", "fig5", "fig6", "fig7", "fig10", "fig11", "fig12", "fig13", "fig14", "vasweep", "saturation", "summary"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes every selected section to
// stdout and diagnostics to stderr, and returns the exit status — 2 for a
// usage error, 1 for any other.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "reduced trials and cycles")
	def := experiments.DefaultScale()
	def.Workers = 4
	scaleOf := experiments.ScaleFlags(fs, def)
	only := fs.String("only", "", "restrict to one experiment: "+strings.Join(sections, ", "))
	profiles := prof.Flags(fs)
	if code, ok := experiments.ParseArgs(fs, args); !ok {
		return code
	}
	if *only != "" && !slices.Contains(sections, *only) {
		return experiments.UsageError(fs, "unknown -only %q; want one of %s", *only, strings.Join(sections, ", "))
	}

	stop, err := prof.StartAll(profiles())
	if err != nil {
		fmt.Fprintln(stderr, "repro:", err)
		return 1
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(stderr, "repro:", err)
			code = 1
		}
	}()

	trials := 10000
	if *quick {
		trials = 500
		experiments.Preset(fs, map[string]string{"warmup": "500", "measure": "1000", "drain": "4000"})
	}
	scale := scaleOf()

	want := func(name string) bool { return *only == "" || *only == name }
	ctx := context.Background()
	tech := costmodel.Default45nm()
	// One sweep server runs every network simulation of the process, so a
	// unit two sections share (the baseline series of Figs. 13 and 14 and the
	// VC allocator sweep, and the knees' lattice points on the grid) runs once.
	srv, err := sweep.NewServer(sweep.Options{Workers: scale.Workers})
	if err != nil {
		fmt.Fprintln(stderr, "repro:", err)
		return 1
	}
	defer srv.Close()
	netSection := func(title string, pts []experiments.Point, fig func(context.Context, sweep.Evaluator, experiments.Point, []float64, experiments.SimScale) ([]experiments.NetSeries, error), knees bool) bool {
		section(stdout, title)
		for _, pt := range pts {
			fmt.Fprintf(stdout, "-- %s --\n", pt)
			series, err := fig(ctx, srv, pt, experiments.InjectionRates(pt), scale)
			if err != nil {
				fmt.Fprintln(stderr, "repro:", err)
				return false
			}
			fmt.Fprint(stdout, experiments.FormatNetSeries(series))
			if knees {
				for _, s := range series {
					fmt.Fprintf(stdout, "%s saturation ~%.3f\n", s.Name, s.SaturationRate())
				}
			}
		}
		return true
	}

	if want("fig4") {
		section(stdout, "Fig. 4: VC transition matrix (fbfly 2x2x4)")
		spec := core.NewVCSpec(2, 2, 4)
		printTransitions(stdout, spec)
		fmt.Fprintf(stdout, "legal transitions: %d of %d (paper: 96 of 256)\n",
			spec.CountLegalTransitions(), spec.V()*spec.V())
		fmt.Fprintf(stdout, "max successors per VC: %d (paper: 8)\n", spec.MaxSuccessorsPerVC())
	}

	if want("fig5") || want("fig6") {
		section(stdout, "Figs. 5 & 6: VC allocator delay / area / power")
		for _, r := range experiments.VCCost(tech) {
			scheme := "dense"
			if r.Sparse {
				scheme = "sparse"
			}
			if !r.Est.Synthesized {
				fmt.Fprintf(stdout, "%-12s %-9s %-6s synthesis failed\n", r.Point, r.Variant, scheme)
				continue
			}
			fmt.Fprintf(stdout, "%-12s %-9s %-6s delay %.3f ns, area %.0f µm², power %.2f mW\n",
				r.Point, r.Variant, scheme, r.Est.DelayNS, r.Est.AreaUM2, r.Est.PowerMW)
		}
	}

	if want("fig7") {
		section(stdout, "Fig. 7: VC allocator matching quality")
		for _, pt := range experiments.Points() {
			fmt.Fprintf(stdout, "-- %s --\n", pt)
			fmt.Fprint(stdout, quality.FormatSeries(experiments.VCQuality(pt, sparseRates(), trials, 1, scale.Workers)))
		}
	}

	if want("fig10") || want("fig11") {
		section(stdout, "Figs. 10 & 11: switch allocator delay / area / power")
		for _, r := range experiments.SwitchCost(tech) {
			if !r.Est.Synthesized {
				fmt.Fprintf(stdout, "%-12s %-9s %-8s synthesis failed\n", r.Point, r.Variant, r.Mode)
				continue
			}
			fmt.Fprintf(stdout, "%-12s %-9s %-8s delay %.3f ns, area %.0f µm², power %.2f mW\n",
				r.Point, r.Variant, r.Mode, r.Est.DelayNS, r.Est.AreaUM2, r.Est.PowerMW)
		}
	}

	if want("fig12") {
		section(stdout, "Fig. 12: switch allocator matching quality")
		for _, pt := range experiments.Points() {
			fmt.Fprintf(stdout, "-- %s --\n", pt)
			fmt.Fprint(stdout, quality.FormatSeries(experiments.SwitchQuality(pt, sparseRates(), trials, 1, scale.Workers)))
		}
	}

	if want("fig13") && !netSection("Fig. 13: network performance of switch allocators", experiments.Points(), curve.Fig13, true) {
		return 1
	}
	if want("fig14") && !netSection("Fig. 14: speculative switch allocation schemes", experiments.Points(), curve.Fig14, false) {
		return 1
	}
	// The mesh points suffice for the VC allocator sweep.
	if want("vasweep") && !netSection("§4.3.3: VC allocator sensitivity sweep", experiments.Points()[:3], curve.VASweep, false) {
		return 1
	}

	if want("saturation") {
		section(stdout, "Conclusions: saturation throughput per switch allocator")
		if _, err := saturationTable(ctx, stdout, srv, experiments.Points(), scale); err != nil {
			fmt.Fprintln(stderr, "repro:", err)
			return 1
		}
		fmt.Fprintln(stdout, "\npaper conclusions: wf ≈ sep_if on the mesh with few VCs; +15% at")
		fmt.Fprintln(stdout, "fbfly 2x2x2 and +21% at fbfly 2x2x4 (this model reproduces the")
		fmt.Fprintln(stdout, "ordering and growth with roughly half the peak magnitude).")
	}

	if want("summary") {
		section(stdout, "Headline numbers")
		d, a, p := experiments.SparseSavings(tech)
		fmt.Fprintf(stdout, "sparse VC allocation savings: delay %.0f%%, area %.0f%%, power %.0f%% (paper: 41/90/83)\n",
			d*100, a*100, p*100)
		s, row := experiments.PessimisticDelaySaving(tech)
		fmt.Fprintf(stdout, "pessimistic speculation delay saving: %.0f%% at %s (paper: up to 23%%)\n", s*100, row)
	}
	return 0
}

// saturationTable prints the conclusions table for pts to w: per design point
// and switch allocator (sep_if, sep_of, wf), the saturation throughput — the
// accepted throughput at the knee (experiments.Saturated) that
// curve.TraceCurve bisects over eval — and returns those throughputs.
func saturationTable(ctx context.Context, w io.Writer, eval sweep.Evaluator, pts []experiments.Point, scale experiments.SimScale) ([][3]float64, error) {
	fmt.Fprintf(w, "%-12s %7s %7s %7s  %s\n", "design point", "sep_if", "sep_of", "wf", "wf vs sep_if")
	var rows [][3]float64
	for _, pt := range pts {
		base := curve.BaseUnit(pt, scale)
		var thr [3]float64
		var cells [3]string
		for i, arch := range []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront} {
			base.SAArch = arch.String()
			// Refinement runs after bisection and never moves the knee.
			tr, err := curve.TraceCurve(ctx, eval, curve.Spec{Base: base, SlopeFactor: 1}, curve.Options{Workers: scale.Workers})
			if err != nil {
				return nil, err
			}
			thr[i], cells[i] = knee(tr)
		}
		fmt.Fprintf(w, "%-12s %7s %7s %7s  %+.1f%%\n", pt, cells[0], cells[1], cells[2], 100*(thr[2]/thr[0]-1))
		rows = append(rows, thr)
	}
	return rows, nil
}

// knee returns the accepted throughput of tr's knee point and its table
// cell, marked '>' when the curve never saturated below the scan's top rate
// and '<' when it was saturated at the bottom one.
func knee(tr curve.Trace) (float64, string) {
	k := slices.IndexFunc(tr.Points, func(p curve.Point) bool { return p.Index == tr.KneeIndex })
	thr, mark := tr.Points[k].Result.Throughput, ""
	if !tr.KneeFound {
		mark = ">"
		if tr.KneeUpper == tr.KneeIndex {
			mark = "<"
		}
	}
	return thr, fmt.Sprintf("%s%.3f", mark, thr)
}

// printTransitions prints spec's legal VC-to-VC transitions (Fig. 4) to w:
// one row per input VC, one column per output VC, ● where the transition is
// legal. Every cell is three wide with its mark in the middle, under the
// last digit of its column number.
func printTransitions(w io.Writer, spec core.VCSpec) {
	tm, v := spec.TransitionMatrix(), spec.V()
	label := func(vc int) string {
		m, r, c := spec.Decompose(vc)
		return fmt.Sprintf("%2d (m%d,r%d,c%d) ", vc, m, r, c)
	}
	fmt.Fprintf(w, "VC transition matrix (Fig. 4), %s VCs: rows = input VC, columns = output VC\n\n", spec)
	fmt.Fprint(w, strings.Repeat(" ", len(label(0))))
	for to := 0; to < v; to++ {
		fmt.Fprintf(w, "%2d ", to)
	}
	fmt.Fprintln(w)
	for from := 0; from < v; from++ {
		fmt.Fprint(w, label(from))
		for to := 0; to < v; to++ {
			if tm.Get(from, to) {
				fmt.Fprint(w, " ● ")
			} else {
				fmt.Fprint(w, " · ")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n==== %s ====\n", title)
}

// sparseRates trims the quality sweep to the shape-relevant samples so the
// full driver finishes in reasonable time.
func sparseRates() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
}
