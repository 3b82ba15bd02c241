package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
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
		{"-exp story -topo fbfly -c 2 -rate 0.3 -warmup 100 -measure 200 -drain 400 -seed 1", "54583935f35c53ebb46bb866a8efc247a9130a48c8814c3950ad0c5dda203cba"},
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

// TestCurveStdoutGolden pins the SHA-256 of stdout for the curve experiments
// TestStdoutGolden leaves out, at a tiny scale: the VC allocator sweep, the
// traffic pattern sweep, a bursty workload curve, and Fig. 13 as JSON, whose
// execution block counts the simulations' stepped and leapt cycles and
// arrival draws. Each runs at the pinned -workers 2 and again at 1 and 4.
func TestCurveStdoutGolden(t *testing.T) {
	const scale = " -warmup 100 -measure 200 -drain 800 -workers 2"
	for _, g := range []struct {
		args string
		want string
	}{
		{"-exp vasweep" + scale, "1ad2f36f536441d5f36d2d1d98fd61ea35f0baa5810a4c9a6b1427f9d4281890"},
		{"-exp patterns" + scale, "6939f17a5865c479bffd2da5668af7522cdb08b8756f9b7b1f7308b5a2201618"},
		{"-exp workload -process mmp" + scale, "9edadd8a073589b3eeb186f1733fbf56d967ad278e261c0a57bca6fb34b1a872"},
		{"-json -exp fig13" + scale, "f74aa43ba0a44dbbe74721d056f839cf15a51649dd9398c1e091884b4541badc"},
	} {
		for _, workers := range []string{"", " -workers 1", " -workers 4"} {
			args := g.args + workers
			var out, errOut bytes.Buffer
			if code := run(strings.Fields(args), &out, &errOut); code != 0 {
				t.Fatalf("%s: exit %d, stderr %q", args, code, errOut.String())
			}
			sum := sha256.Sum256(out.Bytes())
			if got := hex.EncodeToString(sum[:]); got != g.want {
				t.Errorf("%s: stdout digest %s, want %s\n%s", args, got, g.want, out.String())
			}
		}
	}
}

// TestTraceOnlyWhereItReplays: a recorded trace replays under -exp workload,
// as one point whose execution block counts one simulation, and is a usage
// error under the experiments that sweep the offered rate or vary the unit,
// which would replay the one recorded run at every point.
func TestTraceOnlyWhereItReplays(t *testing.T) {
	const scale = " -warmup 100 -measure 200 -drain 800"
	path := filepath.Join(t.TempDir(), "t.txt")
	var out, errOut bytes.Buffer
	if code := run(strings.Fields("-record "+path+" -rate 0.2"+scale), &out, &errOut); code != 0 {
		t.Fatalf("-record: exit %d, stderr %q", code, errOut.String())
	}
	out.Reset()
	if code := run(strings.Fields("-exp workload -json -trace "+path+scale), &out, &errOut); code != 0 {
		t.Fatalf("-exp workload -trace: exit %d, stderr %q", code, errOut.String())
	}
	var rep struct {
		Network   []struct{ Rate []float64 }
		Execution struct{ Simulations int }
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Network) != 1 || len(rep.Network[0].Rate) != 1 || rep.Execution.Simulations != 1 {
		t.Fatalf("replay: %+v, want one series of one point from one simulation\n%s", rep, out.String())
	}
	for _, exp := range []string{"fig13", "fig14", "vasweep", "patterns"} {
		for _, sel := range []string{" -trace ", " -process trace -trace "} {
			args := "-exp " + exp + sel + path + scale
			out.Reset()
			errOut.Reset()
			code := run(strings.Fields(args), &out, &errOut)
			if code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), "cannot replay a trace") {
				t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2, no output and a usage error", args, code, out.String(), errOut.String())
			}
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
