package curve

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"sync"

	"repro/internal/sweep"
)

// Service is the batch/defer face of curve tracing, mirroring the Pareto
// job API: clients POST a Spec, get back a content-addressed job ID, and
// poll. Submission is idempotent — the job ID is the spec's hash, so
// resubmitting a running or finished trace attaches to it instead of
// starting a duplicate. Jobs run on a background context (they outlive the
// submitting connection), and every sampled point goes through the wrapped
// evaluator — normally the sweep server — so concurrent traces, searches
// and /sweep requests coalesce per point and share all cache tiers.
type Service struct {
	eval    Evaluator
	workers int

	mu   sync.Mutex
	jobs map[string]*job
}

type job struct {
	id     string
	spec   Spec
	cancel context.CancelFunc

	mu        sync.Mutex
	status    string // "running", "done", "error", "canceled"
	simulated int
	result    *Trace
	err       string
}

// JobStatus is the poll-response body (and the submit response, which
// reports the same view at submission time).
type JobStatus struct {
	Job    string `json:"job"`
	Status string `json:"status"`
	Spec   Spec   `json:"spec"`
	// Simulated reports live progress (points sampled so far).
	Simulated int `json:"simulated"`
	// Result is present once Status is "done"; Error once it is "error".
	Result *Trace `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
}

// NewService wraps an evaluator in the trace-job API. The per-trace fan-out
// defaults to GOMAXPROCS; the evaluator's own pool still bounds true
// simulation parallelism.
func NewService(eval Evaluator) *Service {
	return &Service{eval: eval, workers: runtime.GOMAXPROCS(0), jobs: map[string]*job{}}
}

// Submit starts (or attaches to) the trace for spec and returns its job ID.
func (s *Service) Submit(spec Spec) (string, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return "", err
	}
	id := spec.ID()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[id]; ok {
		return id, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{id: id, spec: spec, cancel: cancel, status: "running"}
	s.jobs[id] = j
	go s.run(ctx, j)
	return id, nil
}

func (s *Service) run(ctx context.Context, j *job) {
	res, err := TraceCurve(ctx, s.eval, j.spec, Options{
		Workers: s.workers,
		Progress: func(simulated int) {
			j.mu.Lock()
			if simulated > j.simulated {
				j.simulated = simulated
			}
			j.mu.Unlock()
		},
	})
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case ctx.Err() != nil:
		j.status = "canceled"
		j.err = ctx.Err().Error()
	case err != nil:
		j.status = "error"
		j.err = err.Error()
	default:
		j.status = "done"
		j.result = &res
		j.simulated = res.Simulated
	}
}

// Status returns a job's current view, or false if the ID is unknown.
func (s *Service) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		Job: j.id, Status: j.status, Spec: j.spec,
		Simulated: j.simulated, Result: j.result, Error: j.err,
	}, true
}

// Cancel aborts a running job (its in-flight simulations stop at the next
// cooperative check). Finished jobs are unaffected.
func (s *Service) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if ok {
		j.cancel()
	}
	return ok
}

// Handler serves the trace-job API on one route:
//
//	POST   /curve          {spec JSON}  → submit (idempotent), returns JobStatus
//	GET    /curve?job=<id>              → poll, returns JobStatus
//	DELETE /curve?job=<id>              → cancel
func (s *Service) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch r.Method {
		case http.MethodPost:
			var spec Spec
			if !sweep.DecodeBody(w, r, &spec) {
				return
			}
			id, err := s.Submit(spec)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			st, _ := s.Status(id)
			writeJSON(w, http.StatusAccepted, st)
		case http.MethodGet:
			st, ok := s.Status(r.URL.Query().Get("job"))
			if !ok {
				http.Error(w, "unknown job", http.StatusNotFound)
				return
			}
			writeJSON(w, http.StatusOK, st)
		case http.MethodDelete:
			if !s.Cancel(r.URL.Query().Get("job")) {
				http.Error(w, "unknown job", http.StatusNotFound)
				return
			}
			writeJSON(w, http.StatusOK, map[string]bool{"canceled": true})
		default:
			http.Error(w, "POST, GET or DELETE", http.StatusMethodNotAllowed)
		}
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// compile-time check: the sweep server satisfies Evaluator.
var _ Evaluator = (*sweep.Server)(nil)
