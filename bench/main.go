// Command bench is the repository's benchmark: five workloads driven through
// the built sweepd and matchquality programs (end-to-end metrics, tracing
// off) and a separate traced run that replays a prefix of the same generated
// operations in-process for per-layer metrics. See README.md.
//
//	bash bench/run.sh                                   # everything, one seed
//	bash bench/run.sh --workload sim_lowload --seed 7 --seconds 12 --trace 0
//	bash bench/run.sh --trace 1                         # per-layer run only
//	bash bench/run.sh -sets 2                           # self-agreement check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds must equal run_seconds in BENCHMARK.json (bench_test.go
// checks it).
const defaultSeconds = 12

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all five)")
		seed         = flag.Uint64("seed", 42, "the only input to the request generators")
		seconds      = flag.Float64("seconds", defaultSeconds, "run length; fixes the operation count (ops = seconds x the workload's nominal rate)")
		trace        = flag.Int("trace", -1, "0: end-to-end run only, 1: traced per-layer run only, -1: both")
		sets         = flag.Int("sets", 1, "run everything this many times, alternating order, and check every later set agrees with the first")
		srcDir       = flag.String("src", "bench", "the bench module directory, where go build runs")
		workDir      = flag.String("workdir", ".bench_build", "scratch directory for built programs, cachedirs and the JSON output")
		spec         = flag.Bool("spec", false, "print BENCHMARK.json as the metric and workload tables define it, and exit")
	)
	flag.Parse()
	if *spec {
		fmt.Println(benchmarkJSON())
		return
	}
	os.Exit(run(options{
		workload: *workloadName, seed: *seed, seconds: *seconds, trace: *trace, sets: *sets,
		srcDir: *srcDir, workDir: *workDir,
	}))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	sets     int
	srcDir   string
	workDir  string
}

// hostRecord says where the numbers were taken.
type hostRecord struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	LoadAvg    string  `json:"loadavg_at_start"`
	Workers    int     `json:"sweepd_workers"`
	BuildS     float64 `json:"build_s"`
}

func host() hostRecord {
	load, _ := os.ReadFile("/proc/loadavg") // absent off Linux: recorded as empty
	return hostRecord{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		LoadAvg: strings.TrimSpace(string(load)), Workers: workers(),
	}
}

// buildPrograms compiles the two programs under test from the checkout's
// source. It is reported as build_s and is part of no metric.
func buildPrograms(srcDir, binDir string) error {
	abs, err := filepath.Abs(binDir)
	if err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", abs+string(filepath.Separator), "repro/cmd/sweepd", "repro/cmd/matchquality")
	cmd.Dir = srcDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

// setResult is everything one pass over the selected workloads produced.
type setResult struct {
	EndToEnd []*report    `json:"end_to_end,omitempty"`
	Layers   *layerReport `json:"per_layer,omitempty"`
}

func run(o options) int {
	var selected []*workload
	if o.workload == "" {
		for i := range workloadTable {
			selected = append(selected, &workloadTable[i])
		}
	} else if w := findWorkload(o.workload); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	h := host()
	binDir := filepath.Join(o.workDir, "bin")
	t0 := time.Now()
	if err := buildPrograms(o.srcDir, binDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	h.BuildS = time.Since(t0).Seconds()
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s loadavg=%q clients=1 sweepd_workers=%d build_s=%.2f\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.LoadAvg, h.Workers, h.BuildS)

	e := newEnv(binDir, filepath.Join(o.workDir, "tmp"))
	defer e.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(1)
	}()

	var all []setResult
	for set := 0; set < o.sets; set++ {
		order := append([]*workload(nil), selected...)
		if set%2 == 1 { // alternate the order so drift does not favour one side
			slices.Reverse(order)
		}
		var res setResult
		for _, w := range order {
			if o.trace == 1 {
				break
			}
			rep, err := w.run(e, o.seed, w.opsFor(o.seconds))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			rep.print(w)
			res.EndToEnd = append(res.EndToEnd, rep)
		}
		if o.trace != 0 {
			// One pass over every layer, whichever workloads were selected.
			lr, err := runTraced(e, o.seed, o.seconds, filepath.Join(o.workDir, "trace.json"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: traced run: %v\n", err)
				return 1
			}
			lr.print()
			res.Layers = lr
		}
		all = append(all, res)
	}

	code := 0
	for _, later := range all[1:] {
		if !compareSets(all[0], later) {
			code = 1
		}
	}
	if err := writeJSON(filepath.Join(o.workDir, "bench.json"), map[string]any{"host": h, "seed": o.seed, "sets": all}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// The contract line: the last line of standard output is one JSON object
	// for the last run made (the only one when --workload and --trace are
	// both given).
	last := all[len(all)-1]
	if o.trace == 1 {
		fmt.Println(last.Layers.contractLine())
	} else {
		fmt.Println(last.EndToEnd[len(last.EndToEnd)-1].contractLine())
	}
	return code
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// contractValue is one metric as the contract line carries it.
type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func contractJSON(failed, attempted int, correct bool, table []metric, values map[string]float64) string {
	m := map[string]contractValue{}
	for _, mt := range table {
		m[mt.name] = contractValue{values[mt.name], mt.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": m,
	})
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return string(b)
}

func (r *report) contractLine() string {
	return contractJSON(r.Failed, r.Attempted, r.Failed == 0, endToEnd, r.Metrics)
}

// print writes every end-to-end metric of a run by name with its unit, and
// every timing with its n and percentile.
func (r *report) print(w *workload) {
	fmt.Printf("\n== %s  seed=%d  %s=%d  attempted=%d failed=%d fail_ratio=%.4g  wall=%.2fs\n",
		r.Workload, r.Seed, w.opsName, r.Ops, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.WallS)
	fmt.Printf("   op   = %s\n   alt  = %s\n   work = %s\n", w.op, w.alt, w.work)
	for _, m := range endToEnd {
		fmt.Printf("   %-12s %12.6g %-4s (%s is better, bound %.2f)\n", m.name, r.Metrics[m.name], m.unit, m.better, m.bound)
	}
	for _, name := range sortedKeys(r.Timings) {
		fmt.Printf("   timing %-6s %s\n", name, r.Timings[name])
	}
	for _, name := range sortedKeys(r.Exact) {
		fmt.Printf("   exact  %-16s %d\n", name, r.Exact[name])
	}
	fmt.Printf("   result_digest %s\n", r.ResultDigest)
	for _, f := range r.Failures {
		fmt.Printf("   FAILED: %s\n", f)
	}
}
