package curve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/sweep"
)

func postSpec(t *testing.T, url string, spec Spec) JobStatus {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /curve: %s", resp.Status)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func pollJob(t *testing.T, url, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "?job=" + id)
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
			t.Fatalf("job %s still running at deadline", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServiceSubmitPollIdempotent(t *testing.T) {
	svc := NewService(newFakeEval(0.25))
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	spec := testSpec()
	st := postSpec(t, ts.URL, spec)
	if st.Job != spec.ID() {
		t.Fatalf("job ID %s, want content address %s", st.Job, spec.ID())
	}
	// Resubmission attaches to the same job.
	if again := postSpec(t, ts.URL, spec); again.Job != st.Job {
		t.Fatalf("resubmit created new job %s", again.Job)
	}
	done := pollJob(t, ts.URL, st.Job)
	if done.Status != "done" || done.Result == nil {
		t.Fatalf("job finished as %q (err %q)", done.Status, done.Error)
	}
	if !done.Result.KneeFound || done.Result.KneeIndex != 24 {
		t.Fatalf("knee index %d (found=%v), want 24", done.Result.KneeIndex, done.Result.KneeFound)
	}
	if done.Simulated != done.Result.Simulated {
		t.Fatalf("progress count %d != result count %d", done.Simulated, done.Result.Simulated)
	}

	// Unknown jobs 404.
	resp, err := http.Get(ts.URL + "?job=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %s, want 404", resp.Status)
	}

	// Invalid specs are rejected at submit.
	body, _ := json.Marshal(Spec{Base: sweep.UnitConfig{Topo: "ring"}})
	resp, err = http.Post(ts.URL, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %s, want 400", resp.Status)
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

func TestServiceCancel(t *testing.T) {
	eval := &blockingEval{started: make(chan struct{}, 1)}
	svc := NewService(eval)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	st := postSpec(t, ts.URL, testSpec())
	<-eval.started // the trace is in flight

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"?job="+st.Job, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %s", resp.Status)
	}
	final := pollJob(t, ts.URL, st.Job)
	if final.Status != "canceled" {
		t.Fatalf("canceled job reports %q", final.Status)
	}
}

// TestServiceRefusesOversizedBody: a /curve body over sweep.MaxBodyBytes is a
// 413 before any of it is parsed into a spec.
func TestServiceRefusesOversizedBody(t *testing.T) {
	ts := httptest.NewServer(NewService(newFakeEval(0.25)).Handler())
	defer ts.Close()
	body := append([]byte(`{"topo":"`), bytes.Repeat([]byte("x"), sweep.MaxBodyBytes)...)
	resp, err := http.Post(ts.URL, "application/json", bytes.NewReader(append(body, `"}`...)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte body: %s, want 413", len(body), resp.Status)
	}
}
