package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

// spec is a fake job: N units of work, then a result or, with Fail, an error.
type spec struct {
	Name string `json:"name"`
	N    int    `json:"n,omitempty"` // default 3
	Fail bool   `json:"fail,omitempty"`
	Bad  bool   `json:"bad,omitempty"` // refused by Validate
}

func (s spec) Normalized() spec {
	if s.N == 0 {
		s.N = 3
	}
	return s
}

func (s spec) Validate() error {
	if s.Bad {
		return errors.New("bad spec")
	}
	return nil
}

func (s spec) ID() string { s = s.Normalized(); return fmt.Sprintf("%s-%d-%t", s.Name, s.N, s.Fail) }

type result struct{ Units int }

// newService runs each job one unit per receive from gate, so a test decides
// when jobs move; a closed gate lets them run freely, a gate nobody sends on
// holds them until they are canceled.
func newService(gate <-chan struct{}) *Service[spec, result] {
	return New(func(ctx context.Context, s spec, progress func(Progress)) (result, error) {
		for i := 1; i <= s.N; i++ {
			select {
			case <-ctx.Done():
				return result{}, ctx.Err()
			case <-gate:
			}
			progress(Progress{Simulated: i})
		}
		if s.Fail {
			return result{}, errors.New("runner failed")
		}
		return result{Units: s.N}, nil
	})
}

func openGate() chan struct{} {
	gate := make(chan struct{})
	close(gate)
	return gate
}

// call sends one request to h and decodes the status it answers, if any.
func call(t *testing.T, h http.Handler, method, target, body string) (int, Status[spec, result]) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	var st Status[spec, result]
	if rec.Code == http.StatusOK || rec.Code == http.StatusAccepted {
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Code, st
}

// wait polls job id until it is no longer running.
func wait(t *testing.T, s *Service[spec, result], id string) Status[spec, result] {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, ok := s.Status(id); !ok || st.Status != "running" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running", id)
		}
	}
}

func TestLifecycle(t *testing.T) {
	gate := make(chan struct{})
	s := newService(gate)
	defer s.Close()

	id := spec{Name: "a"}.ID()
	code, st := call(t, s, http.MethodPost, "/j", `{"name":"a"}`)
	if code != http.StatusAccepted || st.Job != id || st.Status != "running" || st.Spec.N != 3 {
		t.Fatalf("submit: %d %+v, want 202, job %s running with the normalized spec", code, st, id)
	}
	// Resubmitting while it runs — spelled in full this time — attaches.
	if code, again := call(t, s, http.MethodPost, "/j", `{"name":"a","n":3}`); code != http.StatusAccepted || again.Job != id || again.Status != "running" {
		t.Fatalf("resubmit while running: %d %+v", code, again)
	}
	close(gate)
	wait(t, s, id)
	code, done := call(t, s, http.MethodGet, "/j?job="+id, "")
	if code != http.StatusOK || done.Status != "done" || done.Result == nil || done.Result.Units != 3 {
		t.Fatalf("poll: %d %+v, want done with 3 units", code, done)
	}
	if done.Simulated != done.Result.Units {
		t.Fatalf("progress %d, result count %d", done.Simulated, done.Result.Units)
	}
	// ... and after it finished.
	if code, again := call(t, s, http.MethodPost, "/j", `{"name":"a"}`); code != http.StatusAccepted || again.Job != id || again.Status != "done" {
		t.Fatalf("resubmit after finishing: %d %+v", code, again)
	}
	_, st = call(t, s, http.MethodPost, "/j", `{"name":"f","fail":true}`)
	if st = wait(t, s, st.Job); st.Status != "error" || st.Error == "" || st.Result != nil {
		t.Fatalf("failed job: %+v", st)
	}
}

func TestCancel(t *testing.T) {
	s := newService(make(chan struct{}))
	defer s.Close()
	_, st := call(t, s, http.MethodPost, "/j", `{"name":"c"}`)
	if code, _ := call(t, s, http.MethodDelete, "/j?job="+st.Job, ""); code != http.StatusOK {
		t.Fatalf("cancel: %d", code)
	}
	if st = wait(t, s, st.Job); st.Status != "canceled" {
		t.Fatalf("canceled job reports %q", st.Status)
	}
}

func TestHTTPErrors(t *testing.T) {
	s := newService(openGate())
	defer s.Close()
	for _, c := range []struct {
		method, target, body string
		code                 int
	}{
		{http.MethodGet, "/j?job=nope", "", http.StatusNotFound},
		{http.MethodDelete, "/j?job=nope", "", http.StatusNotFound},
		{http.MethodPost, "/j", `{"bad":true}`, http.StatusBadRequest},
		{http.MethodPost, "/j", `{"name":"a","extra":1}`, http.StatusBadRequest},
		{http.MethodPost, "/j", `{"name":`, http.StatusBadRequest},
		{http.MethodPost, "/j", `{"name":"` + strings.Repeat("x", sweep.MaxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge},
		{http.MethodPut, "/j", `{"name":"a"}`, http.StatusMethodNotAllowed},
	} {
		if code, _ := call(t, s, c.method, c.target, c.body); code != c.code {
			t.Errorf("%s %s (%d-byte body): %d, want %d", c.method, c.target, len(c.body), code, c.code)
		}
	}
}

// TestEvictsOldestFinished: past MaxFinished finished jobs the one that
// finished first is forgotten (a 404), and resubmitting it recomputes it.
func TestEvictsOldestFinished(t *testing.T) {
	s := newService(openGate())
	defer s.Close()
	ids := make([]string, MaxFinished+1)
	for i := range ids {
		st, err := s.Submit(spec{Name: strconv.Itoa(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = wait(t, s, st.Job).Job
	}
	if code, _ := call(t, s, http.MethodGet, "/j?job="+ids[0], ""); code != http.StatusNotFound {
		t.Fatalf("oldest finished job: %d, want 404", code)
	}
	if st, ok := s.Status(ids[1]); !ok || st.Status != "done" {
		t.Fatalf("second-oldest finished job: %+v, %v", st, ok)
	}
	st, err := s.Submit(spec{Name: "0"})
	if err != nil || st.Status != "running" || wait(t, s, st.Job).Status != "done" {
		t.Fatalf("resubmitting a forgotten job: %+v, %v", st, err)
	}
	if _, ok := s.Status(ids[1]); ok {
		t.Fatal("recomputing the forgotten job did not forget the next-oldest")
	}
}

// TestRunningCap: a new job past MaxRunning is a 503 with Retry-After, a
// resubmit of a running one still attaches, and a finished job frees its slot.
func TestRunningCap(t *testing.T) {
	s := newService(make(chan struct{}))
	defer s.Close()
	for i := 0; i < MaxRunning; i++ {
		if _, err := s.Submit(spec{Name: strconv.Itoa(i)}); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/j", strings.NewReader(`{"name":"over"}`)))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("submit past the cap: %d, Retry-After %q; want 503 with Retry-After", rec.Code, rec.Header().Get("Retry-After"))
	}
	if code, st := call(t, s, http.MethodPost, "/j", `{"name":"0"}`); code != http.StatusAccepted || st.Status != "running" {
		t.Fatalf("resubmit at the cap: %d %+v", code, st)
	}
	s.Cancel(spec{Name: "0"}.ID())
	wait(t, s, spec{Name: "0"}.ID())
	if _, err := s.Submit(spec{Name: "over"}); err != nil {
		t.Fatalf("submit after a job finished: %v", err)
	}
}

// TestCloseWaits: Close cancels running jobs, refuses new ones and leaves no
// goroutine behind.
func TestCloseWaits(t *testing.T) {
	base := runtime.NumGoroutine()
	s := newService(make(chan struct{}))
	for i := 0; i < 8; i++ {
		if _, err := s.Submit(spec{Name: strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if st, _ := s.Status(spec{Name: "0"}.ID()); st.Status != "canceled" {
		t.Fatalf("job after Close: %q, want canceled", st.Status)
	}
	if _, err := s.Submit(spec{Name: "late"}); !errors.Is(err, ErrBusy) {
		t.Fatalf("submit after Close: %v, want ErrBusy", err)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the service", runtime.NumGoroutine(), base)
		}
	}
}
