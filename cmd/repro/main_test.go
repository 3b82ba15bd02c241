package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// TestSaturationThroughputOrdering: the conclusions table's fbfly 2x2x4 row
// reads the paper's ordering off the traced knees — wf's saturation
// throughput above sep_if's with 16 VCs.
func TestSaturationThroughputOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("knee traces are slow")
	}
	pt, _ := experiments.PointByName("fbfly", 4)
	scale := experiments.SimScale{Warmup: 500, Measure: 1200, Drain: 1500, Seed: 9, Workers: 2}
	srv, err := sweep.NewServer(sweep.Options{Workers: scale.Workers})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var out strings.Builder
	rows, err := saturationTable(context.Background(), &out, srv, []experiments.Point{pt}, scale)
	if err != nil {
		t.Fatal(err)
	}
	sif, wf := rows[0][0], rows[0][2]
	t.Logf("fbfly 2x2x4 knee throughput: wf %.3f vs sep_if %.3f (%+.0f%%; paper: +21%%)\n%s",
		wf, sif, 100*(wf/sif-1), out.String())
	// Both knees bracketed: the row carries no '<' or '>' mark.
	if row := strings.SplitN(out.String(), "\n", 3)[1]; !strings.HasPrefix(row, "fbfly 2x2x4 ") || strings.ContainsAny(row, "<>") {
		t.Fatalf("want a bracketed fbfly 2x2x4 row, got %q", row)
	}
	if wf <= sif {
		t.Fatalf("wf knee throughput %.3f should exceed sep_if %.3f", wf, sif)
	}
}

// TestTraceIsUsageError: a trace is one recorded run with no offered rate to
// sweep, so repro refuses -trace and -process trace before simulating
// anything, instead of replaying the one run at every rate of every figure.
func TestTraceIsUsageError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ptr := &traffic.PacketTrace{Terminals: 64, Arrivals: []traffic.Arrival{{Cycle: 3, Src: 1, Dst: 2, Type: traffic.ReadRequest}}}
	if err := trace.WriteArrivals(f, ptr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for _, args := range [][]string{
		{"-only", "fig13", "-trace", path},
		{"-only", "saturation", "-process", "trace", "-trace", path},
		{"-quick", "-trace", path},
	} {
		var out, errOut bytes.Buffer
		code := run(args, &out, &errOut)
		if code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), "repro: cannot replay a trace") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, no output and a usage error", args, code, out.String(), errOut.String())
		}
	}
}

// TestUnknownSectionIsUsageError: an -only name that selects no section is a
// usage error that lists the valid names, not a run that prints nothing.
func TestUnknownSectionIsUsageError(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-only", "bogus"}, &out, &errOut)
	if code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), strings.Join(sections, ", ")) {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2, no output and the valid sections", code, out.String(), errOut.String())
	}
}

// TestNegativePhaseIsUsageError: a negative phase length is a usage error,
// not a run that measures nothing.
func TestNegativePhaseIsUsageError(t *testing.T) {
	for _, flag := range []string{"-warmup", "-measure", "-drain"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-only", "saturation", "-quick", flag, "-3"}, &out, &errOut)
		if code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), flag+": must not be negative") {
			t.Errorf("%s -3: exit %d, stdout %q, stderr %q; want exit 2, no output and a usage error", flag, code, out.String(), errOut.String())
		}
	}
}

// TestPositionalArgIsUsageError: repro takes no positional argument, so
// "-only fig4 fig5" is a usage error naming fig5, not a run that prints Fig. 4
// alone.
func TestPositionalArgIsUsageError(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-only", "fig4", "fig5"}, &out, &errOut)
	if code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), `repro: unexpected argument "fig5"`) {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2, no output and the argument named", code, out.String(), errOut.String())
	}
}
