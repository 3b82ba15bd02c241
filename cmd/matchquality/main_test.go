package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTrialsBelowOneIsUsageError: zero or negative trials normalise nothing
// and would print every quality as 1.0000, so they are refused with a usage
// error, a non-zero exit and nothing on stdout.
func TestTrialsBelowOneIsUsageError(t *testing.T) {
	for _, n := range []string{"0", "-1", "-10000"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-unit", "sw", "-topo", "mesh", "-c", "1", "-trials", n}, &out, &errOut)
		if code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), "-trials must be at least 1") {
			t.Errorf("-trials %s: exit %d, stdout %q, stderr %q; want exit 2, no output and a usage error", n, code, out.String(), errOut.String())
		}
	}
}

// TestOneTrialPrintsTable: the smallest accepted count still prints the
// title and one row per rate.
func TestOneTrialPrintsTable(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-unit", "sw", "-topo", "mesh", "-c", "1", "-trials", "1", "-workers", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 22 || !strings.HasPrefix(lines[1], "rate\t") || !strings.HasPrefix(lines[21], "1.00\t") {
		t.Fatalf("want a title, a header and 20 rate rows, got:\n%s", out.String())
	}
}

// TestUnwritableProfileFails: a profile that cannot be created is an error
// run reports and returns, with exit status 1 and nothing on stdout, rather
// than one that ends the process.
func TestUnwritableProfileFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "cpu.prof")
	var out, errOut bytes.Buffer
	code := run([]string{"-unit", "sw", "-topo", "mesh", "-c", "1", "-trials", "1", "-workers", "1", "-cpuprofile", path}, &out, &errOut)
	if code != 1 || out.Len() != 0 || !strings.Contains(errOut.String(), "prof: open "+path) {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1, no output and the open error", code, out.String(), errOut.String())
	}
}

// TestProfileWritten: a writable -cpuprofile leaves a non-empty profile and
// changes neither the exit status nor the table.
func TestProfileWritten(t *testing.T) {
	args := []string{"-unit", "sw", "-topo", "mesh", "-c", "1", "-trials", "1", "-workers", "1"}
	var plain, profiled, errOut bytes.Buffer
	if code := run(args, &plain, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	path := filepath.Join(t.TempDir(), "cpu.prof")
	if code := run(append(args, "-cpuprofile", path), &profiled, &errOut); code != 0 {
		t.Fatalf("profiled: exit %d, stderr %q", code, errOut.String())
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("profile not written: %v", err)
	}
	if plain.String() != profiled.String() {
		t.Fatalf("profiling changed the output:\n%s\nvs\n%s", plain.String(), profiled.String())
	}
}
