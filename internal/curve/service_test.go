package curve

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

// jobCall sends one job-API request to h and decodes the status it answers.
func jobCall(t *testing.T, h http.Handler, method, target string, body []byte) jobs.Status[Spec, Trace] {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	var st jobs.Status[Spec, Trace]
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("%s %s: %d %s", method, target, rec.Code, rec.Body)
	}
	return st
}

// TestServiceSubmitPollIdempotent traces the synthetic curve through the
// /curve handler: the trace finds its knee, and the job's progress ends equal
// to the trace's point count.
func TestServiceSubmitPollIdempotent(t *testing.T) {
	svc := NewService(newFakeEval(0.25))
	defer svc.Close()

	spec := testSpec()
	body, _ := json.Marshal(spec)
	st := jobCall(t, svc, http.MethodPost, "/curve", body)
	if st.Job != spec.ID() {
		t.Fatalf("job ID %s, want content address %s", st.Job, spec.ID())
	}
	if again := jobCall(t, svc, http.MethodPost, "/curve", body); again.Job != st.Job {
		t.Fatalf("resubmit created new job %s", again.Job)
	}
	for deadline := time.Now().Add(30 * time.Second); st.Status == "running"; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running at deadline", st.Job)
		}
		st = jobCall(t, svc, http.MethodGet, "/curve?job="+st.Job, nil)
	}
	if st.Status != "done" || st.Result == nil {
		t.Fatalf("job finished as %q (err %q)", st.Status, st.Error)
	}
	if !st.Result.KneeFound || st.Result.KneeIndex != 24 {
		t.Fatalf("knee index %d (found=%v), want 24", st.Result.KneeIndex, st.Result.KneeFound)
	}
	if st.Simulated != st.Result.Simulated {
		t.Fatalf("progress count %d != result count %d", st.Simulated, st.Result.Simulated)
	}
}

// blockingEval parks every EvalUnit until its context is cancelled.
type blockingEval struct{ started chan struct{} }

func (b *blockingEval) EvalUnit(ctx context.Context, u sweep.UnitConfig) (sweep.UnitResult, error) {
	select {
	case b.started <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return sweep.UnitResult{}, ctx.Err()
}

// TestServiceCancel: a DELETE on a running /curve job reaches the trace's
// in-flight evaluation through its context, and the job reports "canceled".
func TestServiceCancel(t *testing.T) {
	eval := &blockingEval{started: make(chan struct{}, 1)}
	svc := NewService(eval)
	defer svc.Close()

	body, _ := json.Marshal(testSpec())
	st := jobCall(t, svc, http.MethodPost, "/curve", body)
	<-eval.started // the trace is in flight

	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/curve?job="+st.Job, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE: %d %s", rec.Code, rec.Body)
	}
	for deadline := time.Now().Add(30 * time.Second); st.Status == "running"; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running at deadline", st.Job)
		}
		st = jobCall(t, svc, http.MethodGet, "/curve?job="+st.Job, nil)
	}
	if st.Status != "canceled" {
		t.Fatalf("canceled job reports %q", st.Status)
	}
}

// TestServiceRefusesOversizedBody: a /curve body over sweep.MaxBodyBytes is a
// 413 before any of it is parsed into a spec.
func TestServiceRefusesOversizedBody(t *testing.T) {
	svc := NewService(newFakeEval(0.25))
	defer svc.Close()
	body := append([]byte(`{"topo":"`), bytes.Repeat([]byte("x"), sweep.MaxBodyBytes)...)
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/curve", bytes.NewReader(append(body, `"}`...))))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte body: %d, want 413", len(body), rec.Code)
	}
}

// TestServiceRejectsDivergeTol: the knee criterion has one tolerance
// (experiments.Saturated), so a /curve body still carrying the removed
// per-request "diverge_tol" is an unknown field, a 400.
func TestServiceRejectsDivergeTol(t *testing.T) {
	svc := NewService(newFakeEval(0.25))
	defer svc.Close()
	rec := httptest.NewRecorder()
	body := `{"base":{"topo":"mesh","seed":42},"step":0.01,"diverge_tol":0.05}`
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/curve", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("diverge_tol body: %d %s, want 400", rec.Code, rec.Body)
	}
}
