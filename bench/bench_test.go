package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the metric and
// workload tables the benchmark prints from. Regenerate the file with
// `go run . -spec > ../BENCHMARK.json`.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(got)) != benchmarkJSON() {
		t.Errorf("BENCHMARK.json differs from the tables in spec.go; want:\n%s", benchmarkJSON())
	}
}

// contract is the last line of standard output, as the driver reads it.
type contract struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

func checkContract(t *testing.T, what, line string, table []metric) {
	t.Helper()
	var c contract
	if err := json.Unmarshal([]byte(line), &c); err != nil {
		t.Fatalf("%s: contract line %q: %v", what, line, err)
	}
	if !c.Correct || c.Failed != 0 || c.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, c.Correct, c.Attempted, c.Failed)
	}
	if len(c.Metrics) != len(table) {
		t.Errorf("%s: %d metrics printed, %d defined", what, len(c.Metrics), len(table))
	}
	for _, m := range table {
		v, ok := c.Metrics[m.name]
		if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: metric %s = %+v (present %v), want a number in %s", what, m.name, v, ok, m.unit)
		}
	}
}

// TestSmoke builds the two programs and runs one round / 200 requests / one
// cycle of every workload plus a minimal traced run: no operation may fail
// and every metric BENCHMARK.json names must be printed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs under test")
	}
	bin := t.TempDir()
	if err := buildPrograms(".", bin); err != nil {
		t.Fatal(err)
	}
	e := newEnv(bin, t.TempDir())
	defer e.cleanup()
	for i := range workloadTable {
		w := &workloadTable[i]
		ops := 1
		if w.name == "service_mixed" {
			ops = 200
		}
		rep, err := w.run(e, 42, ops)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rep.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, rep.Failed, rep.Attempted, rep.Failures)
		}
		if rep.ResultDigest == "" {
			t.Errorf("%s: no result_digest", w.name)
		}
		for _, m := range endToEnd {
			if v := rep.Metrics[m.name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, m.name, v)
			}
		}
		checkContract(t, w.name, rep.contractLine(), endToEnd)
	}

	lr, err := runTraced(e, 42, defaultSeconds/20.0, filepath.Join(t.TempDir(), "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if lr.Failed != 0 {
		t.Errorf("traced run: %d of %d checks failed: %v", lr.Failed, lr.Attempted, lr.Failures)
	}
	if lr.Metrics["router.step_allocs"] != 0 || lr.Metrics["sweep.coalesce_sim_runs"] != 1 || lr.Metrics["sweep.disk_load_errors"] != 0 {
		t.Errorf("traced run: step_allocs=%v coalesce_sim_runs=%v disk_load_errors=%v, want 0 1 0",
			lr.Metrics["router.step_allocs"], lr.Metrics["sweep.coalesce_sim_runs"], lr.Metrics["sweep.disk_load_errors"])
	}
	checkContract(t, "traced run", lr.contractLine(), perLayer)
	var spans []span
	b, err := os.ReadFile(lr.TraceFile)
	if err == nil {
		err = json.Unmarshal(b, &spans)
	}
	if err != nil || len(spans) != lr.Spans || lr.Spans == 0 {
		t.Errorf("trace file: %d spans read, %d recorded: %v", len(spans), lr.Spans, err)
	}
	for i, sp := range spans {
		if sp.End < sp.Start || sp.Parent >= i {
			t.Fatalf("span %d malformed: %+v", i, sp)
		}
	}
	if left, _ := os.ReadDir(e.workDir); len(left) != 0 {
		t.Errorf("%d temp directories left behind", len(left))
	}
	if len(e.children) != 0 {
		t.Errorf("%d children still registered", len(e.children))
	}
}

func TestTracerSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 1, Start: 15, End: 25},
		{Name: "a", Parent: 0, Start: 50, End: 90},
	}}
	rows := tr.selfTimes()
	want := []selfRow{
		{"op", "op", 1, 100e-6, 30e-6},
		{"op", "a", 2, 70e-6, 60e-6},
		{"op", "b", 1, 10e-6, 10e-6},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %+v", rows)
	}
	var self float64
	for i, r := range rows {
		if r.Root != want[i].Root || r.Name != want[i].Name || r.N != want[i].N ||
			math.Abs(r.TotalMS-want[i].TotalMS) > 1e-12 || math.Abs(r.SelfMS-want[i].SelfMS) > 1e-12 {
			t.Errorf("row %d = %+v, want %+v", i, r, want[i])
		}
		self += r.SelfMS
	}
	if math.Abs(self-100e-6) > 1e-12 {
		t.Errorf("self times add up to %g ms, want the root span's 100e-6", self)
	}
	if got := tr.under("op", "a"); len(got) != 2 || got[0] != 30 || got[1] != 40 {
		t.Errorf("under(op, a) = %v", got)
	}
}
