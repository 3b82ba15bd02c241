package experiments

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/trace"
	"repro/internal/traffic"
)

// ScaleFlags registers the standard simulation-scale flag set — phase
// lengths, seed and parallelism — on fs with the given defaults, and returns
// a function that resolves the final SimScale after fs.Parse. Every batch
// tool that simulates shares this one definition, so the scale surface
// cannot drift between entry points; tools with extra conventions (-quick
// presets) adjust the returned value.
func ScaleFlags(fs *flag.FlagSet, def SimScale) func() SimScale {
	warmup := fs.Int("warmup", def.Warmup, "warmup cycles")
	measure := fs.Int("measure", def.Measure, "measurement cycles")
	drain := fs.Int("drain", def.Drain, "drain cycle budget")
	seed := fs.Uint64("seed", def.Seed, "simulation seed")
	workers := fs.Int("workers", def.Workers, "concurrent simulations per curve")
	return func() SimScale {
		return SimScale{
			Warmup:   *warmup,
			Measure:  *measure,
			Drain:    *drain,
			Seed:     *seed,
			Workers:  *workers,
			Workload: def.Workload,
		}
	}
}

// WorkloadFlags registers the standard injection-workload flag set —
// arrival process, traffic pattern, and their parameters — on fs with the
// given defaults, and returns a function that resolves the final
// traffic.Workload after fs.Parse (loading the -trace file when one is
// named). It mirrors ScaleFlags: every command-line tool shares this one
// definition, so the workload surface cannot drift between entry points.
func WorkloadFlags(fs *flag.FlagSet, def traffic.Workload) func() (traffic.Workload, error) {
	def = def.Normalized()
	process := fs.String("process", def.Process, "arrival process: bernoulli, mmp (bursty on/off), or trace (replay -trace)")
	pattern := fs.String("pattern", def.Pattern, "traffic pattern: uniform, transpose, bitcomp, bitrev, shuffle, tornado, neighbor, hotspot")
	rate := fs.Float64("rate", def.Rate, "offered load in flits/cycle/terminal (tools that sweep the x-axis ignore it)")
	burstLen := fs.Float64("burstlen", def.BurstLen, "mmp mean ON-burst length in cycles (0 = default 32)")
	duty := fs.Float64("duty", def.Duty, "mmp long-run ON fraction in (0, 1] (0 = default 0.25)")
	hotspots := fs.String("hotspots", intsCSV(def.Hotspots), "hotspot pattern: comma-separated hot terminal ids (empty = terminal 0)")
	hotFrac := fs.Float64("hotfrac", def.HotspotFraction, "hotspot pattern: traffic share sent to the hot set (0 = default 0.2)")
	tracePath := fs.String("trace", "", "packet-trace file to replay (selects the trace process unless -process says otherwise)")
	return func() (traffic.Workload, error) {
		w := traffic.Workload{
			Process:         *process,
			Rate:            *rate,
			Pattern:         *pattern,
			BurstLen:        *burstLen,
			Duty:            *duty,
			HotspotFraction: *hotFrac,
		}
		// The explicit trace flag overrides a defaulted process name, so
		// "-trace t.txt" alone selects replay.
		if *tracePath != "" && w.Process == "bernoulli" && def.Process == "bernoulli" {
			w.Process = ""
		}
		hs, err := parseIntsCSV(*hotspots)
		if err != nil {
			return traffic.Workload{}, fmt.Errorf("-hotspots: %w", err)
		}
		w.Hotspots = hs
		if *tracePath != "" {
			f, err := os.Open(*tracePath)
			if err != nil {
				return traffic.Workload{}, err
			}
			defer f.Close()
			pt, err := trace.ReadArrivals(f)
			if err != nil {
				return traffic.Workload{}, fmt.Errorf("%s: %w", *tracePath, err)
			}
			w.Trace = pt
		}
		w = w.Normalized()
		if w.Process == "trace" && w.Trace == nil {
			return traffic.Workload{}, fmt.Errorf("-process trace needs -trace <file>")
		}
		return w, nil
	}
}

// intsCSV renders an int slice as the comma-separated flag default.
func intsCSV(vs []int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

// parseIntsCSV parses a comma-separated int list ("" = nil).
func parseIntsCSV(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
