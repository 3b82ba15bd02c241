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
	return callCtx(t, context.Background(), h, method, target, body)
}

// brief is the deadline of a request that wants a running job's status now,
// not after maxWait.
const brief = 10 * time.Millisecond

// callBrief is call with a request that ends after brief.
func callBrief(t *testing.T, h http.Handler, method, target, body string) (int, Status[spec, result]) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), brief)
	defer cancel()
	return callCtx(t, ctx, h, method, target, body)
}

// callCtx is call with a request that ends with ctx.
func callCtx(t *testing.T, ctx context.Context, h http.Handler, method, target, body string) (int, Status[spec, result]) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)).WithContext(ctx))
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
	code, st := callBrief(t, s, http.MethodPost, "/j", `{"name":"a"}`)
	if code != http.StatusAccepted || st.Job != id || st.Status != "running" || st.Spec.N != 3 {
		t.Fatalf("submit: %d %+v, want 202, job %s running with the normalized spec", code, st, id)
	}
	// Resubmitting while it runs — spelled in full this time — attaches.
	if code, again := callBrief(t, s, http.MethodPost, "/j", `{"name":"a","n":3}`); code != http.StatusAccepted || again.Job != id || again.Status != "running" {
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
	_, st := callBrief(t, s, http.MethodPost, "/j", `{"name":"c"}`)
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
	if code, st := callBrief(t, s, http.MethodPost, "/j", `{"name":"0"}`); code != http.StatusAccepted || st.Status != "running" {
		t.Fatalf("resubmit at the cap: %d %+v", code, st)
	}
	s.Cancel(spec{Name: "0"}.ID())
	wait(t, s, spec{Name: "0"}.ID())
	if _, err := s.Submit(spec{Name: "over"}); err != nil {
		t.Fatalf("submit after a job finished: %v", err)
	}
}

// TestCloseWaits: Close cancels running jobs, refuses new ones, answers the
// requests waiting on them, and leaves no goroutine behind.
func TestCloseWaits(t *testing.T) {
	base := runtime.NumGoroutine()
	s := newService(make(chan struct{}))
	answers := make(chan string)
	for i := 0; i < 8; i++ {
		st, err := s.Submit(spec{Name: strconv.Itoa(i)})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			_, st := call(t, s, http.MethodGet, "/j?job="+st.Job, "")
			answers <- st.Status
		}()
	}
	s.Close()
	if st, _ := s.Status(spec{Name: "0"}.ID()); st.Status != "canceled" {
		t.Fatalf("job after Close: %q, want canceled", st.Status)
	}
	if _, err := s.Submit(spec{Name: "late"}); !errors.Is(err, ErrBusy) {
		t.Fatalf("submit after Close: %v, want ErrBusy", err)
	}
	for i := 0; i < 8; i++ {
		select {
		case got := <-answers:
			if got != "canceled" {
				t.Fatalf("request waiting at Close answered %q, want canceled", got)
			}
		case <-time.After(maxWait / 2):
			t.Fatal("a request waiting at Close is still waiting")
		}
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the service", runtime.NumGoroutine(), base)
		}
	}
}

// TestSubmitAnswersDone: a job that finishes inside the wait costs one
// request, answered like the resubmit of a finished job.
func TestSubmitAnswersDone(t *testing.T) {
	s := newService(openGate())
	defer s.Close()
	code, st := call(t, s, http.MethodPost, "/j", `{"name":"quick"}`)
	if code != http.StatusAccepted || st.Status != "done" || st.Result == nil || st.Result.Units != 3 || st.Simulated != 3 {
		t.Fatalf("submit: %d %+v, want 202 done with 3 units", code, st)
	}
}

// TestSubmitAnswersRunning: a fresh job's Submit answers "running" even when
// the job finishes before Submit returns.
func TestSubmitAnswersRunning(t *testing.T) {
	s := newService(openGate())
	defer s.Close()
	for i := 0; i < 2000; i++ {
		st, err := s.Submit(spec{Name: strconv.Itoa(i)})
		if err != nil {
			t.Fatal(err)
		}
		if st.Status != "running" {
			t.Fatalf("fresh job %d answered %q, want running", i, st.Status)
		}
		j, _ := s.lookup(st.Job)
		<-j.done
	}
}

// asyncGet starts a GET of job id and delivers the status it answers.
func asyncGet(t *testing.T, s *Service[spec, result], id string) <-chan Status[spec, result] {
	answer := make(chan Status[spec, result], 1)
	go func() {
		_, st := call(t, s, http.MethodGet, "/j?job="+id, "")
		answer <- st
	}()
	return answer
}

// TestPollAnswersWhenDone: a GET on a running job is held until the job
// finishes, and answers then, well before maxWait.
func TestPollAnswersWhenDone(t *testing.T) {
	gate := make(chan struct{})
	s := newService(gate)
	defer s.Close()
	st, err := s.Submit(spec{Name: "held"})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	answer := asyncGet(t, s, st.Job)
	time.Sleep(brief)
	select {
	case st := <-answer:
		t.Fatalf("GET on a held job answered %q at once", st.Status)
	default:
	}
	close(gate)
	select {
	case st = <-answer:
	case <-time.After(maxWait):
		t.Fatal("GET not answered by maxWait after the job finished")
	}
	if took := time.Since(start); st.Status != "done" || st.Result == nil || took >= maxWait/2 {
		t.Fatalf("GET answered %+v after %v, want done well before %v", st, took, maxWait)
	}
}

// TestRunningAnswersAfterMaxWait: a submit or poll of a job that is still
// running holds its request for maxWait, then answers running. The check on
// the low side is tight (a timer may fire late, never early); the one on the
// high side only catches a request held far past maxWait.
func TestRunningAnswersAfterMaxWait(t *testing.T) {
	s := newService(make(chan struct{}))
	defer s.Close()
	for _, c := range []struct {
		method, target, body string
		code                 int
	}{
		{http.MethodPost, "/j", `{"name":"slow"}`, http.StatusAccepted},
		{http.MethodGet, "/j?job=" + spec{Name: "slow"}.ID(), "", http.StatusOK},
	} {
		start := time.Now()
		code, st := call(t, s, c.method, c.target, c.body)
		if took := time.Since(start); code != c.code || st.Status != "running" || took < maxWait || took > 3*maxWait {
			t.Errorf("%s %s: %d %q after %v, want %d running after %v", c.method, c.target, code, st.Status, took, c.code, maxWait)
		}
	}
}

// TestPollContextEnds: a request that ends answers the running status at once.
func TestPollContextEnds(t *testing.T) {
	s := newService(make(chan struct{}))
	defer s.Close()
	st, err := s.Submit(spec{Name: "held"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	code, st := callCtx(t, ctx, s, http.MethodGet, "/j?job="+st.Job, "")
	if took := time.Since(start); code != http.StatusOK || st.Status != "running" || took >= maxWait/2 {
		t.Fatalf("GET with an ended request: %d %q after %v, want running at once", code, st.Status, took)
	}
}

// TestCancelAnswersWaitingPoll: a DELETE while a GET waits makes the GET
// answer canceled.
func TestCancelAnswersWaitingPoll(t *testing.T) {
	s := newService(make(chan struct{}))
	defer s.Close()
	st, err := s.Submit(spec{Name: "held"})
	if err != nil {
		t.Fatal(err)
	}
	answer := asyncGet(t, s, st.Job)
	time.Sleep(brief)
	if code, _ := call(t, s, http.MethodDelete, "/j?job="+st.Job, ""); code != http.StatusOK {
		t.Fatalf("cancel: %d", code)
	}
	select {
	case st = <-answer:
	case <-time.After(maxWait / 2):
		t.Fatal("GET still waiting after the job was canceled")
	}
	if st.Status != "canceled" {
		t.Fatalf("waiting GET answered %q, want canceled", st.Status)
	}
}

// TestResubmitCanceled: a canceled job is started afresh by a resubmit, and
// its ID is no longer queued for eviction as a finished job.
func TestResubmitCanceled(t *testing.T) {
	gate := make(chan struct{})
	s := newService(gate)
	defer s.Close()
	id := spec{Name: "again"}.ID()
	callBrief(t, s, http.MethodPost, "/j", `{"name":"again"}`)
	s.Cancel(id)
	if st := wait(t, s, id); st.Status != "canceled" {
		t.Fatalf("canceled job reports %q", st.Status)
	}
	if code, st := callBrief(t, s, http.MethodPost, "/j", `{"name":"again"}`); code != http.StatusAccepted || st.Status != "running" {
		t.Fatalf("resubmit of a canceled job: %d %+v, want 202 running", code, st)
	}
	close(gate)
	if st := wait(t, s, id); st.Status != "done" || st.Result == nil {
		t.Fatalf("restarted job finished %+v, want done", st)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.finished) != 1 {
		t.Fatalf("finished queue %v, want the restarted job once", s.finished)
	}
}
