package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dse"
)

// TestBadListIsUsageError: a -vcs or -hotspots entry that is not an integer
// is a usage error, reported before any search starts.
func TestBadListIsUsageError(t *testing.T) {
	for _, args := range [][]string{{"-vcs", "1,x"}, {"-hotspots", "0,y"}} {
		var out, errOut bytes.Buffer
		code := run(args, &out, &errOut)
		if code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), "pareto: "+args[0]+":") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, no output and the flag named", args, code, out.String(), errOut.String())
		}
	}
}

// TestSmokeJSON: -smoke -out - prints the table and then the full result as
// JSON, and the JSON's frontier has as many points as the table says.
func TestSmokeJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a pruned search")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-smoke", "-out", "-", "-workers", "2"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	table, body, ok := strings.Cut(out.String(), "\n{\n")
	if !ok {
		t.Fatalf("no JSON after the table:\n%s", out.String())
	}
	var res dse.Result
	if err := json.Unmarshal([]byte("{\n"+body), &res); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`\nPareto frontier \(([0-9]+) points\):\n`).FindStringSubmatch(table)
	if m == nil {
		t.Fatalf("no frontier count in the table:\n%s", table)
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 || n != len(res.Frontier) {
		t.Fatalf("table says %s frontier points, JSON has %d", m[1], len(res.Frontier))
	}
}

// TestNegativePhaseIsUsageError: a negative phase length is a usage error,
// reported before any search starts.
func TestNegativePhaseIsUsageError(t *testing.T) {
	for _, flag := range []string{"-warmup", "-measure", "-drain"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-smoke", flag, "-3"}, &out, &errOut)
		if code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), flag+": must not be negative") {
			t.Errorf("%s -3: exit %d, stdout %q, stderr %q; want exit 2, no output and a usage error", flag, code, out.String(), errOut.String())
		}
	}
}

// TestPositionalArgIsUsageError: pareto takes no positional argument.
func TestPositionalArgIsUsageError(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-smoke", "extra"}, &out, &errOut)
	if code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), `pareto: unexpected argument "extra"`) {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2, no output and the argument named", code, out.String(), errOut.String())
	}
}

// TestSmokeKeepsExplicitFlags: the -smoke preset fills only the flags the
// command line leaves unset. An explicit -vcs 3 is kept and refused as a
// usage error before anything runs, as it is without -smoke, and explicit
// -vcs and -warmup are the ones searched.
func TestSmokeKeepsExplicitFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-smoke", "-vcs", "3"}, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "no design point mesh C=3") {
		t.Errorf("-smoke -vcs 3: exit %d, stderr %q; want a usage error (exit 2) refusing mesh C=3", code, errOut.String())
	}
	if testing.Short() {
		t.Skip("runs a pruned search")
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-smoke", "-vcs", "1", "-warmup", "150", "-out", "-", "-workers", "2"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	_, body, ok := strings.Cut(out.String(), "\n{\n")
	if !ok {
		t.Fatalf("no JSON after the table:\n%s", out.String())
	}
	var res dse.Result
	if err := json.Unmarshal([]byte("{\n"+body), &res); err != nil {
		t.Fatal(err)
	}
	s := res.Spec
	if !slices.Equal(s.Topos, []string{"mesh"}) || !slices.Equal(s.VCs, []int{1}) || s.Warmup != 150 || s.Measure != 400 || s.Drain != 2000 {
		t.Fatalf("searched topos %v, VCs %v, phases %d/%d/%d; want mesh, [1], 150/400/2000", s.Topos, s.VCs, s.Warmup, s.Measure, s.Drain)
	}
}
