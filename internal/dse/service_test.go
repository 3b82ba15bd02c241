package dse

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

// tinySpec is a real-simulation-sized slice of the design space: 8 units at
// a scale where a full search runs in well under a second.
func tinySpec() Spec {
	return Spec{
		Topos:     []string{"mesh"},
		VCs:       []int{1, 2},
		VAArchs:   []string{"sep_if", "sep_of"},
		VAArbs:    []string{"rr"},
		VASparse:  []bool{false},
		SAArchs:   []string{"sep_if"},
		SAArbs:    []string{"rr"},
		SpecModes: []string{"nonspec", "spec_req"},
		Warmup:    100, Measure: 200, Drain: 1000,
	}
}

func newEvalServer(t *testing.T, workers int, cacheDir string) *sweep.Server {
	t.Helper()
	srv, err := sweep.NewServer(sweep.Options{
		Workers:  workers,
		CacheDir: cacheDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// TestRealSimFrontierInvariance is the satellite determinism guarantee: the
// frontier over real simulations is byte-identical for every worker count
// and for memory-only vs disk-backed evaluation (cold and restart-warm).
func TestRealSimFrontierInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	spec := tinySpec()
	cacheDir := t.TempDir()

	var golden string
	runs := []struct {
		name     string
		workers  int
		cacheDir string
	}{
		{"memory_w1", 1, ""},
		{"memory_w4", 4, ""},
		{"disk_cold_w4", 4, cacheDir},
		// A second server on the populated directory: every simulation the
		// search asks for is answered from disk.
		{"disk_warm_w1", 1, cacheDir},
	}
	for _, run := range runs {
		srv := newEvalServer(t, run.workers, run.cacheDir)
		res, err := Search(context.Background(), srv, spec, SearchOptions{Workers: run.workers})
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		j := frontierJSON(t, res)
		if golden == "" {
			golden = j
		} else if j != golden {
			t.Fatalf("%s frontier diverged:\n%s\nvs golden\n%s", run.name, j, golden)
		}
		if run.name == "disk_warm_w1" {
			if sims := srv.SimRuns(); sims != 0 {
				t.Fatalf("warm run re-simulated %d units", sims)
			}
			if st := srv.Disk().Stats(); st.Hits == 0 {
				t.Fatalf("warm run hit no disk entries: %+v", st)
			}
		}
	}
	if len(golden) == 0 || golden == "null" {
		t.Fatalf("degenerate golden frontier: %q", golden)
	}
}

func postSpec(t *testing.T, ts *httptest.Server, spec Spec) JobStatus {
	t.Helper()
	b, _ := json.Marshal(spec)
	resp, err := ts.Client().Post(ts.URL+"/pareto", "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func pollJob(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := ts.Client().Get(ts.URL + "/pareto?job=" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Status != "running" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running at deadline: %+v", id, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServiceJobLifecycle drives submit → poll → done over HTTP with a real
// in-process sweep server, and pins idempotent resubmission.
func TestServiceJobLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	srv := newEvalServer(t, 2, "")
	ts := httptest.NewServer(http.StripPrefix("", muxFor(NewService(srv))))
	defer ts.Close()

	spec := tinySpec()
	sub := postSpec(t, ts, spec)
	if sub.Job == "" || sub.Job != spec.ID() {
		t.Fatalf("job ID %q, want content hash %q", sub.Job, spec.ID())
	}

	done := pollJob(t, ts, sub.Job)
	if done.Status != "done" || done.Result == nil {
		t.Fatalf("job finished as %q (err %q)", done.Status, done.Error)
	}
	if done.Result.Simulated+done.Result.Pruned != done.Result.Feasible || len(done.Result.Frontier) == 0 {
		t.Fatalf("degenerate result: %+v", done.Result)
	}

	// Resubmitting the identical spec attaches to the finished job.
	again := postSpec(t, ts, spec)
	if again.Job != sub.Job || again.Status != "done" {
		t.Fatalf("resubmit: job %q status %q, want same finished job", again.Job, again.Status)
	}

	// Unknown job IDs are 404s.
	resp, err := ts.Client().Get(ts.URL + "/pareto?job=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", resp.StatusCode)
	}
}

// blockingEval parks every evaluation until its context is canceled, so a
// cancel test can observe the "running" state deterministically.
type blockingEval struct{ started chan struct{} }

func (b *blockingEval) EvalUnit(ctx context.Context, u sweep.UnitConfig) (sweep.UnitResult, error) {
	select {
	case b.started <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return sweep.UnitResult{}, ctx.Err()
}

// TestServiceCancel pins the DELETE path: canceling a running job stops its
// evaluations and the job reports "canceled".
func TestServiceCancel(t *testing.T) {
	eval := &blockingEval{started: make(chan struct{}, 1)}
	ts := httptest.NewServer(muxFor(NewService(eval)))
	defer ts.Close()

	sub := postSpec(t, ts, tinySpec())
	<-eval.started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/pareto?job="+sub.Job, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}

	final := pollJob(t, ts, sub.Job)
	if final.Status != "canceled" {
		t.Fatalf("post-cancel status %q, want canceled", final.Status)
	}
}

// muxFor mounts the service the way cmd/sweepd does.
func muxFor(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/pareto", s.Handler())
	return mux
}

// TestServiceRefusesOversizedBody: a /pareto body over sweep.MaxBodyBytes is
// a 413 before any of it is parsed into a spec.
func TestServiceRefusesOversizedBody(t *testing.T) {
	ts := httptest.NewServer(muxFor(NewService(&blockingEval{started: make(chan struct{}, 1)})))
	defer ts.Close()
	body := `{"topos":["` + strings.Repeat("x", sweep.MaxBodyBytes) + `"]}`
	resp, err := ts.Client().Post(ts.URL+"/pareto", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte body: %s, want 413", len(body), resp.Status)
	}
}
