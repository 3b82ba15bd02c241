package dse

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
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

// jobCall sends one job-API request to h and decodes the status it answers.
func jobCall(t *testing.T, h http.Handler, method, target string, spec *Spec) (int, jobs.Status[Spec, Result]) {
	t.Helper()
	var body []byte
	if spec != nil {
		body, _ = json.Marshal(spec)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	var st jobs.Status[Spec, Result]
	if rec.Code == http.StatusOK || rec.Code == http.StatusAccepted {
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Code, st
}

// TestServiceJobLifecycle drives submit → poll → done through the /pareto
// handler with real simulations: the job is named by the spec's content
// address, its progress ends equal to the result's counts, and resubmitting
// the spec attaches to the finished job.
func TestServiceJobLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	svc := NewService(newEvalServer(t, 2, ""))
	defer svc.Close()

	spec := tinySpec()
	code, st := jobCall(t, svc, http.MethodPost, "/pareto", &spec)
	if code != http.StatusAccepted || st.Job != spec.ID() {
		t.Fatalf("submit: %d, job %q; want 202 and the content address %q", code, st.Job, spec.ID())
	}
	for deadline := time.Now().Add(30 * time.Second); st.Status == "running"; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job still running at deadline: %+v", st)
		}
		_, st = jobCall(t, svc, http.MethodGet, "/pareto?job="+st.Job, nil)
	}
	res := st.Result
	if st.Status != "done" || res == nil {
		t.Fatalf("job finished as %q (err %q)", st.Status, st.Error)
	}
	if res.Simulated+res.Pruned != res.Feasible || len(res.Frontier) == 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if want := (jobs.Progress{Simulated: res.Simulated, Pruned: res.Pruned, Feasible: res.Feasible}); st.Progress != want {
		t.Fatalf("progress %+v, result counts %+v", st.Progress, want)
	}
	if _, again := jobCall(t, svc, http.MethodPost, "/pareto", &spec); again.Job != st.Job || again.Status != "done" {
		t.Fatalf("resubmit: job %q status %q, want the same finished job", again.Job, again.Status)
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

// TestServiceCancel pins the DELETE path: canceling a running /pareto job
// stops its evaluations and the job reports "canceled".
func TestServiceCancel(t *testing.T) {
	eval := &blockingEval{started: make(chan struct{}, 1)}
	svc := NewService(eval)
	defer svc.Close()

	spec := tinySpec()
	code, st := jobCall(t, svc, http.MethodPost, "/pareto", &spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	<-eval.started

	if code, _ := jobCall(t, svc, http.MethodDelete, "/pareto?job="+st.Job, nil); code != http.StatusOK {
		t.Fatalf("cancel status %d", code)
	}
	for deadline := time.Now().Add(30 * time.Second); st.Status == "running"; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job still running at deadline: %+v", st)
		}
		_, st = jobCall(t, svc, http.MethodGet, "/pareto?job="+st.Job, nil)
	}
	if st.Status != "canceled" {
		t.Fatalf("post-cancel status %q, want canceled", st.Status)
	}
}

// TestServiceRefusesOversizedBody: a /pareto body over sweep.MaxBodyBytes is
// a 413 before any of it is parsed into a spec.
func TestServiceRefusesOversizedBody(t *testing.T) {
	svc := NewService(&blockingEval{started: make(chan struct{}, 1)})
	defer svc.Close()
	body := `{"topos":["` + strings.Repeat("x", sweep.MaxBodyBytes) + `"]}`
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/pareto", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte body: %d, want 413", len(body), rec.Code)
	}
}
