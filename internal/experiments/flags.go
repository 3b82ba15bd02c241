package experiments

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/trace"
	"repro/internal/traffic"
)

// ParseArgs parses a command's args into fs and reports whether the command
// goes on; if not, code is its exit status: 0 after -h, 2 for a usage error.
// No command takes a positional argument, so the first one is a usage error
// that names it.
func ParseArgs(fs *flag.FlagSet, args []string) (code int, ok bool) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 2, false
	}
	if fs.NArg() > 0 {
		return UsageError(fs, "unexpected argument %q", fs.Arg(0)), false
	}
	return 0, true
}

// UsageError writes a usage error — the command's name and the message, then
// fs's usage — to fs's output and returns the exit status 2.
func UsageError(fs *flag.FlagSet, format string, args ...any) int {
	fmt.Fprintf(fs.Output(), "%s: %s\n", fs.Name(), fmt.Sprintf(format, args...))
	fs.Usage()
	return 2
}

// Preset sets each named flag of fs to its value unless the command line set
// it: a preset such as repro -quick or pareto -smoke never overrides an
// explicit flag. It runs after fs.Parse and before the flags are read.
func Preset(fs *flag.FlagSet, values map[string]string) {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for name, v := range values {
		if set[name] {
			continue
		}
		if err := fs.Set(name, v); err != nil {
			panic(err) // a preset naming no flag, or a bad value, is a bug
		}
	}
}

// ScaleFlags registers the standard simulation-scale flag set — phase
// lengths, seed and parallelism — on fs with the given defaults, and returns
// a function that resolves the final SimScale after fs.Parse. Every batch
// tool that simulates shares this one definition, so the scale surface
// cannot drift between entry points; tools with extra conventions (-quick
// presets) adjust the returned value. A negative phase length fails
// fs.Parse, which every command reports as a usage error.
func ScaleFlags(fs *flag.FlagSet, def SimScale) func() SimScale {
	warmup, measure, drain := nonNegInt(def.Warmup), nonNegInt(def.Measure), nonNegInt(def.Drain)
	fs.Var(&warmup, "warmup", "warmup `cycles`")
	fs.Var(&measure, "measure", "measurement `cycles`")
	fs.Var(&drain, "drain", "drain budget in `cycles`")
	seed := fs.Uint64("seed", def.Seed, "simulation seed")
	workers := fs.Int("workers", def.Workers, "size of the process's sweep-server pool: simulations run at once (repro's quality sweeps use it too)")
	return func() SimScale {
		return SimScale{
			Warmup:   int(warmup),
			Measure:  int(measure),
			Drain:    int(drain),
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
// A negative -rate fails fs.Parse, like a negative phase in ScaleFlags.
func WorkloadFlags(fs *flag.FlagSet, def traffic.Workload) func() (traffic.Workload, error) {
	def = def.Normalized()
	process := fs.String("process", def.Process, "arrival process: bernoulli, mmp (bursty on/off), or trace (replay -trace)")
	pattern := fs.String("pattern", def.Pattern, "traffic pattern: uniform, transpose, bitcomp, bitrev, shuffle, tornado, neighbor, hotspot")
	rate := nonNegFloat(def.Rate)
	fs.Var(&rate, "rate", "offered `load` in flits/cycle/terminal (tools that sweep the x-axis ignore it)")
	burstLen := fs.Float64("burstlen", def.BurstLen, "mmp mean ON-burst length in cycles (0 = default 32)")
	duty := fs.Float64("duty", def.Duty, "mmp long-run ON fraction in (0, 1] (0 = default 0.25)")
	hotspots := fs.String("hotspots", intsCSV(def.Hotspots), "hotspot pattern: comma-separated hot terminal ids (empty = terminal 0)")
	hotFrac := fs.Float64("hotfrac", def.HotspotFraction, "hotspot pattern: traffic share sent to the hot set (0 = default 0.2)")
	tracePath := fs.String("trace", "", "packet-trace file to replay (selects the trace process unless -process says otherwise)")
	return func() (traffic.Workload, error) {
		w := traffic.Workload{
			Process:         *process,
			Rate:            float64(rate),
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
		hs, err := ParseIntsCSV(*hotspots)
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

// nonNegInt and nonNegFloat are int and float64 flag values that refuse a
// negative number while parsing, so a command reports it as a usage error
// instead of simulating with it.
type (
	nonNegInt   int
	nonNegFloat float64
)

var errNegative = errors.New("must not be negative")

func (v *nonNegInt) String() string { return strconv.Itoa(int(*v)) }

func (v *nonNegInt) Set(s string) error {
	n, err := strconv.ParseInt(s, 0, strconv.IntSize)
	if err != nil {
		return errors.Unwrap(err)
	}
	if n < 0 {
		return errNegative
	}
	*v = nonNegInt(n)
	return nil
}

func (v *nonNegFloat) String() string { return strconv.FormatFloat(float64(*v), 'g', -1, 64) }

func (v *nonNegFloat) Set(s string) error {
	x, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return errors.Unwrap(err)
	}
	if !(x >= 0) {
		return errNegative
	}
	*v = nonNegFloat(x)
	return nil
}

// intsCSV renders an int slice as the comma-separated flag default.
func intsCSV(vs []int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

// SplitCSV splits a comma-separated flag value into its trimmed parts; a
// blank value is nil.
func SplitCSV(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// ParseIntsCSV parses a comma-separated int list; a blank value is nil.
func ParseIntsCSV(s string) ([]int, error) {
	var out []int
	for _, part := range SplitCSV(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
