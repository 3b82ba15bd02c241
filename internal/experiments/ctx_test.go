package experiments

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/traffic"
)

// TestScaleFlags pins the shared flag surface: defaults pass through
// untouched, every registered flag lands in the resolved SimScale, and no
// flag picks how a simulation is executed — the mode switches are gone, and
// so is -shards: a simulation is one shard unless a lender splits it.
func TestScaleFlags(t *testing.T) {
	def := SimScale{Warmup: 100, Measure: 200, Drain: 300, Seed: 7, Workers: 2}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	get := ScaleFlags(fs, def)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if got := get(); !reflect.DeepEqual(got, def) {
		t.Fatalf("defaults did not pass through: got %+v want %+v", got, def)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	get = ScaleFlags(fs, def)
	args := []string{
		"-warmup", "11", "-measure", "22", "-drain", "33", "-seed", "44",
		"-workers", "5",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want := SimScale{Warmup: 11, Measure: 22, Drain: 33, Seed: 44, Workers: 5}
	if got := get(); !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed flags: got %+v want %+v", got, want)
	}

	for _, gone := range []string{"-leap", "-dense", "-denserequests", "-shards", "-reference"} {
		fs = flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		ScaleFlags(fs, def)
		if err := fs.Parse([]string{gone}); err == nil {
			t.Errorf("%s still parses; want it rejected as an unknown flag", gone)
		}
	}
}

// TestWorkloadFlags pins the shared workload flag surface: defaults pass
// through normalized, and every registered flag lands in the resolved
// Workload.
func TestWorkloadFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	get := WorkloadFlags(fs, traffic.Workload{Rate: 0.2})
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	got, err := get()
	if err != nil {
		t.Fatal(err)
	}
	want := traffic.Workload{Process: "bernoulli", Pattern: "uniform", Rate: 0.2}.Normalized()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("defaults: got %+v want %+v", got, want)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	get = WorkloadFlags(fs, traffic.Workload{})
	args := []string{"-process", "mmp", "-rate", "0.3", "-burstlen", "64", "-duty", "0.5"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if got, err = get(); err != nil {
		t.Fatal(err)
	}
	want = traffic.Workload{Process: "mmp", Rate: 0.3, Pattern: "uniform", BurstLen: 64, Duty: 0.5}.Normalized()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mmp flags: got %+v want %+v", got, want)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	get = WorkloadFlags(fs, traffic.Workload{})
	args = []string{"-pattern", "hotspot", "-hotspots", "3,7", "-hotfrac", "0.4", "-rate", "0.1"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if got, err = get(); err != nil {
		t.Fatal(err)
	}
	want = traffic.Workload{Pattern: "hotspot", Rate: 0.1, Hotspots: []int{3, 7}, HotspotFraction: 0.4}.Normalized()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hotspot flags: got %+v want %+v", got, want)
	}

	// -trace alone selects the trace process and loads the file.
	dir := t.TempDir()
	path := filepath.Join(dir, "t.txt")
	ptr := &traffic.PacketTrace{Terminals: 4, Arrivals: []traffic.Arrival{
		{Cycle: 0, Src: 1, Dst: 2, Type: traffic.ReadRequest},
		{Cycle: 3, Src: 0, Dst: 3, Type: traffic.WriteRequest},
	}}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteArrivals(f, ptr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	get = WorkloadFlags(fs, traffic.Workload{})
	if err := fs.Parse([]string{"-trace", path}); err != nil {
		t.Fatal(err)
	}
	if got, err = get(); err != nil {
		t.Fatal(err)
	}
	if got.Process != "trace" || got.Trace == nil || len(got.Trace.Arrivals) != 2 {
		t.Fatalf("trace flag: got %+v", got)
	}

	// -process trace without -trace is an error, not a panic downstream.
	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	get = WorkloadFlags(fs, traffic.Workload{})
	if err := fs.Parse([]string{"-process", "trace"}); err != nil {
		t.Fatal(err)
	}
	if _, err := get(); err == nil {
		t.Fatal("process trace without a trace file resolved")
	}
}
