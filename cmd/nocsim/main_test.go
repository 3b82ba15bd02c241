package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestStdoutGolden pins the SHA-256 of stdout for a tiny Fig. 14 run and two
// packet stories. The story digests were taken from the separate pkttrace
// command's -cycles 400 runs, whose phases were -cycles/4, /2 and ×1 at
// seed 1; the fbfly one is the CI smoke.
func TestStdoutGolden(t *testing.T) {
	for _, g := range []struct {
		args string
		want string
	}{
		{"-exp fig14 -topo mesh -c 1 -warmup 100 -measure 200 -drain 800 -workers 2", "83de2a410b2de663dada7113932f0e9b3599c1906fdceba10884504d00351b9f"},
		{"-exp story -topo fbfly -c 2 -rate 0.3 -warmup 100 -measure 200 -drain 400 -seed 1", "c04bd7ddd0a25b72936220882bb79ab55594c9c659a5305b859983ed8b2ecf9e"},
		{"-exp story -topo mesh -c 1 -rate 0.2 -warmup 100 -measure 200 -drain 400 -seed 1", "93ffe2a59cbb50ee27dd0538658f3dd05e3568ba5a61ad453b6d2328a53eaf13"},
	} {
		var out, errOut bytes.Buffer
		if code := run(strings.Fields(g.args), &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", g.args, code, errOut.String())
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != g.want {
			t.Errorf("%s: stdout digest %s, want %s\n%s", g.args, got, g.want, out.String())
		}
	}
}

// TestStoryAtDefaultScale: at nocsim's own phase lengths and the mid-sweep
// rate, the default story still finds a complete packet, and -packet picks
// a late one; the run is long enough to have evicted both from an unfiltered
// collector.
func TestStoryAtDefaultScale(t *testing.T) {
	lastLine := regexp.MustCompile(`\nin-network time: [0-9]+ cycles\n$`)
	for _, args := range []string{"-exp story", "-exp story -topo fbfly -c 2 -packet 30000"} {
		var out, errOut bytes.Buffer
		if code := run(strings.Fields(args), &out, &errOut); code != 0 || !lastLine.MatchString(out.String()) {
			t.Fatalf("%s: exit %d, stderr %q, stdout:\n%s", args, code, errOut.String(), out.String())
		}
	}
}

// TestErrorKeepsProfile: a run that fails after profiling started (here on a
// -trace file that does not exist) still writes its CPU profile, because the
// error is returned through run's deferred stop instead of ending the
// process.
func TestErrorKeepsProfile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cpu.prof")
	var out, errOut bytes.Buffer
	if code := run([]string{"-trace", filepath.Join(dir, "missing.txt"), "-cpuprofile", path}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, stderr %q; want 1", code, errOut.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not a gzipped pprof profile: %v", err)
	}
	if b, err := io.ReadAll(zr); err != nil || len(b) == 0 {
		t.Fatalf("profile body: %d bytes, %v", len(b), err)
	}
}

// TestNegativeScaleIsUsageError: a negative phase length or offered load is
// refused with a usage error, a non-zero exit and nothing on stdout, instead
// of a table of empty measurements or a run at the mid-sweep rate.
func TestNegativeScaleIsUsageError(t *testing.T) {
	for _, args := range []string{
		"-exp fig13 -topo mesh -c 1 -warmup -5 -measure 100 -drain 200",
		"-exp fig13 -topo mesh -c 1 -warmup 10 -measure -1 -drain 200",
		"-exp fig13 -topo mesh -c 1 -warmup 10 -measure 100 -drain -200",
		"-exp story -rate -1 -warmup 10 -measure 20 -drain 50",
	} {
		var out, errOut bytes.Buffer
		code := run(strings.Fields(args), &out, &errOut)
		if code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), "must not be negative") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2, no output and a usage error", args, code, out.String(), errOut.String())
		}
	}
}

// TestUsageErrors: a positional argument, an unknown experiment and a design
// point that does not exist are usage errors that name what is wrong, reported
// before anything runs.
func TestUsageErrors(t *testing.T) {
	for _, g := range []struct{ args, want string }{
		{"-exp fig13 extra", `nocsim: unexpected argument "extra"`},
		{"-exp bogus", `nocsim: unknown -exp "bogus"`},
		{"-exp fig13 -topo ring", "no design point ring C=1"},
		{"-exp story -topo mesh -c 3", "no design point mesh C=3"},
	} {
		var out, errOut bytes.Buffer
		code := run(strings.Fields(g.args), &out, &errOut)
		if code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), g.want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2, no output and %q", g.args, code, out.String(), errOut.String(), g.want)
		}
	}
}
