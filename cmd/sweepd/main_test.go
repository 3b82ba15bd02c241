package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

// fakeEval answers every unit at once with a synthetic unsaturated result;
// with started set, it instead signals started and holds each evaluation
// until its context is canceled.
type fakeEval struct{ started chan struct{} }

func (f fakeEval) EvalUnit(ctx context.Context, u sweep.UnitConfig) (sweep.UnitResult, error) {
	if f.started == nil {
		return sweep.UnitResult{Config: u, Rate: u.Rate, Throughput: u.Rate, Latency: 20}, nil
	}
	select {
	case f.started <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return sweep.UnitResult{}, ctx.Err()
}

func newServer(tb testing.TB) *sweep.Server {
	srv, err := sweep.NewServer(sweep.Options{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// TestFlags pins sweepd's command line: the flags README.md lists, seven,
// each landing in the listen address or one sweep.Options field, and none of
// the simulation-scale or workload flags the batch tools share — a unit is
// what its request says, so no server flag may add to it. An unknown flag or
// a bad value exits 2 with the usage, as -h prints it and exits 0.
func TestFlags(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("`sweepd` has (\\w+) flags of its own\\s+\\(`([^`]+)`\\)").FindSubmatch(readme)
	if m == nil {
		t.Fatal("README.md does not list sweepd's flags")
	}
	listed := strings.Fields(string(m[2]))
	slices.Sort(listed)

	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	c, _, ok := parseFlags(fs, nil)
	if !ok {
		t.Fatal("no arguments refused")
	}
	want := config{addr: ":8080", opts: sweep.Options{Workers: runtime.GOMAXPROCS(0), MaxEntries: 4096, MaxBytes: 64 << 20}}
	if c != want {
		t.Fatalf("defaults: got %+v want %+v", c, want)
	}
	var registered []string
	fs.VisitAll(func(f *flag.Flag) { registered = append(registered, "-"+f.Name) })
	if len(registered) != 7 || string(m[1]) != "seven" || !slices.Equal(listed, registered) {
		t.Fatalf("registered %v; README.md lists %s: %v; want the same seven", registered, m[1], listed)
	}

	c, _, ok = parseFlags(flag.NewFlagSet("sweepd", flag.ContinueOnError), []string{
		"-addr", "127.0.0.1:9", "-workers", "3", "-cache-entries", "5", "-cache-bytes", "6",
		"-cachedir", "d", "-cachemaxbytes", "7", "-cachemaxentries", "8",
	})
	want = config{addr: "127.0.0.1:9", opts: sweep.Options{
		Workers: 3, MaxEntries: 5, MaxBytes: 6, CacheDir: "d", DiskMaxBytes: 7, DiskMaxEntries: 8,
	}}
	if !ok || c != want {
		t.Fatalf("parsed: got %+v (ok %v) want %+v", c, ok, want)
	}

	for _, gone := range []string{
		"warmup", "measure", "drain", "seed", "reference",
		"process", "pattern", "rate", "burstlen", "duty", "hotspots", "hotfrac", "trace",
		"selfcheck",
	} {
		if code, out := parseArgs("-" + gone + "=1"); code != 2 || !strings.Contains(out, "flag provided but not defined: -"+gone) || !strings.Contains(out, "Usage of sweepd:") {
			t.Errorf("-%s: exit %d, output %q; want it refused as an unknown flag, with the usage", gone, code, out)
		}
	}
	if code, out := parseArgs("-workers", "x"); code != 2 || !strings.Contains(out, `invalid value "x" for flag -workers`) || !strings.Contains(out, "Usage of sweepd:") {
		t.Errorf("-workers x: exit %d, output %q; want exit 2 with the usage", code, out)
	}
	if code, out := parseArgs("-h"); code != 0 || !strings.Contains(out, "Usage of sweepd:") {
		t.Errorf("-h: exit %d, output %q; want exit 0 with the usage", code, out)
	}
}

// parseArgs parses args as sweepd's command line and returns the exit code
// of a refusal (-1 if args are accepted) and what was printed.
func parseArgs(args ...string) (code int, out string) {
	var b bytes.Buffer
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	fs.SetOutput(&b)
	if _, code, ok := parseFlags(fs, args); !ok {
		return code, b.String()
	}
	return -1, b.String()
}

// TestServeShutsDown: canceling serve's context while a job runs returns
// serve, and the rest of main's shutdown — closing the job services, then the
// sweep server — leaves as many goroutines as there were before.
func TestServeShutsDown(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := newServer(t)
	eval := fakeEval{started: make(chan struct{}, 1)}
	h, closeJobs := handler(srv, eval)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve(ctx, ln, h) }()

	client := &http.Client{Transport: &http.Transport{}}
	resp, err := client.Post("http://"+ln.Addr().String()+"/curve", "application/json", strings.NewReader(`{"base":{"topo":"mesh"}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	<-eval.started
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after cancellation")
	}
	closeJobs()
	srv.Close()
	client.CloseIdleConnections()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after shutdown, %d before", runtime.NumGoroutine(), base)
		}
	}
}

// TestHostileSpecRefusedFast: a 9 KB /pareto body of 1 000 topologies × 1 000
// VC counts and a /curve spec whose max_points exceeds sweep.MaxUnits are
// 400s, refused before any axis is walked.
func TestHostileSpecRefusedFast(t *testing.T) {
	srv := newServer(t)
	defer srv.Close()
	h, closeJobs := handler(srv, fakeEval{})
	defer closeJobs()
	pareto := `{"topos":[` + strings.Repeat(`"mesh",`, 999) + `"mesh"],"vcs":[` + strings.Repeat("1,", 999) + "1]}"
	curve := fmt.Sprintf(`{"base":{"topo":"mesh"},"max_points":%d}`, sweep.MaxUnits+1)
	for path, body := range map[string]string{"/pareto": pareto, "/curve": curve} {
		start := time.Now()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if d := time.Since(start); rec.Code != http.StatusBadRequest || d > 50*time.Millisecond {
			t.Errorf("%s (%d-byte body): %d in %v, want 400 within 50ms", path, len(body), rec.Code, d)
		}
	}
}

// submitBound is how long one submission may take: validation walks at most
// sweep.MaxUnits axis combinations, and the job itself runs in the background.
const submitBound = 5 * time.Second

// submit POSTs body to path on h and decodes the job ID and normalized spec
// of a 202.
func submit(t *testing.T, h http.Handler, path string, body []byte) (code int, job string, spec json.RawMessage) {
	start := time.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if d := time.Since(start); d > submitBound {
		t.Fatalf("POST %s took %v", path, d)
	}
	var st struct {
		Job  string          `json:"job"`
		Spec json.RawMessage `json:"spec"`
	}
	if rec.Code == http.StatusAccepted {
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("POST %s: 202 with %v", path, err)
		}
	}
	return rec.Code, st.Job, st.Spec
}

// FuzzJobSubmit posts arbitrary bytes to both job endpoints of the sweepd mux
// (against a synthetic evaluator). Every answer is a 202, 400, 413 or 503
// within submitBound, and an accepted spec, resubmitted in the normalized form
// the service answered with, names the same job.
func FuzzJobSubmit(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"topos":["mesh"],"vcs":[1],"va_archs":["wf"],"sa_archs":["sep_if"],"spec_modes":["nonspec"]}`,
		`{"topos":["fbfly"],"vcs":[2],"patterns":["hotspot"],"processes":["mmp"],"hotspots":[3,5],"hotspot_fraction":0.3}`,
		`{"base":{"topo":"mesh","seed":42},"step":0.02}`,
		`{"base":{"topo":"fbfly","vcs_per_class":2,"process":"mmp"},"coarse":3,"max_points":5}`,
		`{"base":{"topo":"mesh"},"min_rate":0.3,"max_rate":0.1}`,
		`{"max_points":70000}`,
		`{"topos":["ring"]}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	srv := newServer(f)
	h, closeJobs := handler(srv, fakeEval{})
	f.Cleanup(func() { closeJobs(); srv.Close() })
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/pareto", "/curve"} {
			code, job, spec := submit(t, h, path, body)
			switch code {
			case http.StatusAccepted:
			case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
				continue
			default:
				t.Fatalf("POST %s: %d", path, code)
			}
			if code, again, _ := submit(t, h, path, spec); code != http.StatusAccepted || again != job {
				t.Fatalf("POST %s: normalized spec %s answered %d job %s, first submitted as job %s", path, spec, code, again, job)
			}
		}
	})
}

// TestPositionalArgRefused: sweepd takes no positional argument, so one is a
// usage error naming it, followed by the usage.
func TestPositionalArgRefused(t *testing.T) {
	if code, out := parseArgs("-workers", "2", "extra"); code != 2 || !strings.Contains(out, `sweepd: unexpected argument "extra"`) || !strings.Contains(out, "Usage of sweepd:") {
		t.Fatalf("exit %d, output %q; want exit 2, the argument named and the usage", code, out)
	}
}
