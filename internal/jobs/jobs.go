// Package jobs is the batch face of the sweep service: a client POSTs a spec
// and gets the job it names instead of holding a request open for minutes.
// A submit or poll of a running job answers when the job finishes, or with
// its progress after at most a second, so a client that repeats the poll
// until done sends one request a second, not one per sleep of its own.
// The job ID is the normalized spec's hash, so a resubmit attaches to its job.
// sweepd mounts two services, /pareto (dse.Search) and /curve (TraceCurve).
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/sweep"
)

// Spec is what a job endpoint accepts: defaults to fill, rules to check and a
// content address.
type Spec[S any] interface {
	Normalized() S
	Validate() error
	ID() string
}

// Progress is a job's live count of work: simulations for every job, plus
// pruned and feasible design points for a search.
type Progress struct {
	Simulated int `json:"simulated"`
	Pruned    int `json:"pruned,omitempty"`
	Feasible  int `json:"feasible,omitempty"`
}

// Status is the body of every submit and poll response. Status is "running",
// "done" (Result set), "error" or "canceled" (Error set).
type Status[S, R any] struct {
	Job    string `json:"job"`
	Status string `json:"status"`
	Spec   S      `json:"spec"`
	Progress
	Result *R     `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
}

// MaxFinished bounds the finished jobs a service remembers; the one that
// finished first is forgotten first (a poll is then a 404), cheaply: a resubmit
// recomputes it from the sweep caches. 256 later jobs must finish first — four
// turnovers of MaxRunning — so a client that polls at all sees its result.
const MaxFinished = 256

// MaxRunning bounds the jobs a service runs at once. They all draw on one
// sweep worker pool, so more would add goroutines, not throughput; a new job
// past the cap is refused with 503 and Retry-After.
const MaxRunning = 64

// maxWait bounds how long a submit or poll holds its request for a running
// job before it answers with the job's progress.
const maxWait = time.Second

// ErrBusy refuses a new job while MaxRunning jobs run, or after Close.
var ErrBusy = errors.New("jobs: too many running jobs")

// Service is one job endpoint.
type Service[S Spec[S], R any] struct {
	run func(context.Context, S, func(Progress)) (R, error)

	mu       sync.Mutex
	jobs     map[string]*job[S, R]
	finished []string // IDs of the finished jobs in jobs, oldest first
	running  int
	closed   bool
	wg       sync.WaitGroup
}

type job[S, R any] struct {
	st     Status[S, R]
	cancel context.CancelFunc
	done   chan struct{} // closed once st is final
}

// New returns a job service that computes each job with run, which reports
// progress as it goes and must return soon after ctx is canceled.
func New[S Spec[S], R any](run func(ctx context.Context, spec S, progress func(Progress)) (R, error)) *Service[S, R] {
	return &Service[S, R]{run: run, jobs: map[string]*job[S, R]{}}
}

// Submit starts the job for spec on a background context, or attaches to the
// job with its ID, and returns its status; a new job may be ErrBusy. A
// canceled job is started afresh.
func (s *Service[S, R]) Submit(spec S) (Status[S, R], error) {
	_, st, err := s.submit(spec)
	return st, err
}

// submit returns the job for spec and its status, copied under the lock that
// starts it: a new job answers "running" even if it finishes at once.
func (s *Service[S, R]) submit(spec S) (*job[S, R], Status[S, R], error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, Status[S, R]{}, err
	}
	id := spec.ID()
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if ok && j.st.Status != "canceled" {
		return j, j.st, nil
	}
	if s.closed || s.running >= MaxRunning {
		return nil, Status[S, R]{}, ErrBusy
	}
	if ok { // the restarted job must not be evicted as the canceled one
		s.finished = slices.DeleteFunc(s.finished, func(f string) bool { return f == id })
	}
	ctx, cancel := context.WithCancel(context.Background())
	j = &job[S, R]{st: Status[S, R]{Job: id, Status: "running", Spec: spec}, cancel: cancel, done: make(chan struct{})}
	s.jobs[id] = j
	s.running++
	s.wg.Add(1)
	st := j.st
	go s.runJob(ctx, j, spec)
	return j, st, nil
}

func (s *Service[S, R]) runJob(ctx context.Context, j *job[S, R], spec S) {
	defer s.wg.Done()
	res, err := s.run(ctx, spec, func(p Progress) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if p.Simulated >= j.st.Simulated { // concurrent reports may arrive out of order
			j.st.Progress = p
		}
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case ctx.Err() != nil:
		j.st.Status, j.st.Error = "canceled", ctx.Err().Error()
	case err != nil:
		j.st.Status, j.st.Error = "error", err.Error()
	default:
		j.st.Status, j.st.Result = "done", &res
	}
	j.cancel()
	close(j.done)
	s.running--
	s.finished = append(s.finished, j.st.Job)
	if len(s.finished) > MaxFinished {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// Status returns a job's view, or false if its ID is unknown or forgotten.
func (s *Service[S, R]) Status(id string) (Status[S, R], bool) {
	j, ok := s.lookup(id)
	if !ok {
		return Status[S, R]{}, false
	}
	return s.snapshot(j), true
}

func (s *Service[S, R]) lookup(id string) (*job[S, R], bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Service[S, R]) snapshot(j *job[S, R]) Status[S, R] {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.st
}

// await returns j's status once j finishes, ctx ends or maxWait passes.
func (s *Service[S, R]) await(ctx context.Context, j *job[S, R]) Status[S, R] {
	select {
	case <-j.done:
	default:
		t := time.NewTimer(maxWait)
		defer t.Stop()
		select {
		case <-j.done:
		case <-ctx.Done():
		case <-t.C:
		}
	}
	return s.snapshot(j)
}

// Cancel aborts a running job (its in-flight simulations stop at their next
// cooperative check); a finished or unknown one is unaffected.
func (s *Service[S, R]) Cancel(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		j.cancel()
	}
}

// Close cancels every running job, refuses new ones, and returns once every
// job goroutine has. Finished jobs stay pollable.
func (s *Service[S, R]) Close() {
	s.mu.Lock()
	s.closed = true
	for _, j := range s.jobs {
		j.cancel()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// ServeHTTP serves the job API on one route: POST {spec} submits (202),
// GET ?job=<id> polls (200), DELETE ?job=<id> cancels (200). POST and GET
// answer when the job finishes, the request ends or maxWait passes, whichever
// is first. An unknown or forgotten ID is a 404; a malformed or invalid spec
// a 400, a body over sweep.MaxBodyBytes a 413, a new job past MaxRunning a 503.
func (s *Service[S, R]) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	id := r.URL.Query().Get("job")
	switch r.Method {
	case http.MethodPost:
		var spec S
		if !sweep.DecodeBody(w, r, &spec) {
			return
		}
		j, _, err := s.submit(spec)
		switch {
		case errors.Is(err, ErrBusy):
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		case err != nil:
			http.Error(w, err.Error(), http.StatusBadRequest)
		default:
			writeJSON(w, http.StatusAccepted, s.await(r.Context(), j))
		}
	case http.MethodGet, http.MethodDelete:
		j, ok := s.lookup(id)
		switch {
		case !ok:
			http.Error(w, "unknown job", http.StatusNotFound)
		case r.Method == http.MethodGet:
			writeJSON(w, http.StatusOK, s.await(r.Context(), j))
		default:
			s.Cancel(id)
			writeJSON(w, http.StatusOK, map[string]bool{"canceled": true})
		}
	default:
		http.Error(w, "POST, GET or DELETE", http.StatusMethodNotAllowed)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
