package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

// sweepResponse is a parsed NDJSON sweep response.
type sweepResponse struct {
	Updates []UnitUpdate
	Summary SweepSummary
}

// byIndex returns the update for unit index i.
func (r sweepResponse) byIndex(i int) UnitUpdate {
	for _, u := range r.Updates {
		if u.Index == i {
			return u
		}
	}
	return UnitUpdate{Status: "missing"}
}

func postSweep(t *testing.T, client *http.Client, url string, req Request) sweepResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /sweep: %s", resp.Status)
	}
	var out sweepResponse
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done"`)) {
			if err := json.Unmarshal(line, &out.Summary); err != nil {
				t.Fatalf("bad summary line %q: %v", line, err)
			}
			continue
		}
		var u UnitUpdate
		if err := json.Unmarshal(line, &u); err != nil {
			t.Fatalf("bad update line %q: %v", line, err)
		}
		out.Updates = append(out.Updates, u)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !out.Summary.Done {
		t.Fatal("response stream had no summary line")
	}
	return out
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// goldenScale is the test-sized batch scale the golden comparisons use.
func goldenScale() experiments.SimScale {
	return experiments.SimScale{Warmup: 200, Measure: 400, Drain: 2000, Seed: 42, Workers: 2}
}

// TestServerGoldenBitIdentical is the acceptance golden: for both paper
// topologies, a sweepd-served Fig. 13 curve — assembled from the service's
// per-unit results — must be byte-equal to the same units run directly
// (RunUnit with no lender) for the same (config, seed), on a cold cache miss
// AND again on a warm cache hit. A direct run steps every unit on one shard;
// the server does too on one worker (shards=1), and on two lends each heavy
// unit the idle worker (lent: the cold pass posts one unit per request, in
// order, so the units run one at a time and there is always an idle worker to
// borrow). Each topology's second rate is heavy by load, so the lent leg
// lends because of it: 0.2 on the mesh, 0.35 on the flattened butterfly,
// whose 2×2×1 knee lies at 0.40–0.45.
func TestServerGoldenBitIdentical(t *testing.T) {
	archs := []string{"sep_if", "sep_of", "wf"}
	for _, topo := range []string{"mesh", "fbfly"} {
		rates := []float64{0.05, 0.2}
		if topo == "fbfly" {
			rates[1] = 0.35
		}
		for _, leg := range []struct {
			name string
			opts Options
		}{{"shards=1", Options{Workers: 1}}, {"lent", Options{Workers: 2}}} {
			t.Run(fmt.Sprintf("%s/%s", topo, leg.name), func(t *testing.T) {
				pt, err := experiments.PointByName(topo, 1)
				if err != nil {
					t.Fatal(err)
				}
				scale := goldenScale()
				req := Request{
					Base: UnitConfig{
						Topo: pt.Topo, VCsPerClass: pt.Spec.VCsPerClass, Seed: scale.Seed,
						Warmup: scale.Warmup, Measure: scale.Measure, Drain: scale.Drain,
					},
					SAArchs: archs,
					Rates:   rates,
				}
				batch := make([]experiments.NetSeries, len(archs))
				for ai, arch := range archs {
					batch[ai].Name = arch
					for _, rate := range rates {
						u := req.Base
						u.SAArch, u.Rate = arch, rate
						res, _, err := RunUnit(context.Background(), u, nil)
						if err != nil {
							t.Fatal(err)
						}
						batch[ai].Points = append(batch[ai].Points, res.NetPoint())
					}
				}
				batchJSON, err := json.Marshal(batch)
				if err != nil {
					t.Fatal(err)
				}

				srv, ts := newTestServer(t, leg.opts)
				assemble := func(r sweepResponse) []byte {
					t.Helper()
					series := make([]experiments.NetSeries, len(archs))
					for ai, arch := range archs {
						series[ai] = experiments.NetSeries{Name: arch, Points: make([]experiments.NetPoint, len(rates))}
						for ri := range rates {
							upd := r.byIndex(ai*len(rates) + ri)
							if upd.Result == nil {
								t.Fatalf("unit %d/%d: status %s error %s", ai, ri, upd.Status, upd.Error)
							}
							var res UnitResult
							if err := json.Unmarshal(upd.Result, &res); err != nil {
								t.Fatal(err)
							}
							series[ai].Points[ri] = res.NetPoint()
						}
					}
					j, err := json.Marshal(series)
					if err != nil {
						t.Fatal(err)
					}
					return j
				}

				var cold sweepResponse
				if leg.opts.Workers == 1 {
					cold = postSweep(t, ts.Client(), ts.URL, req)
				} else {
					for ai, arch := range archs {
						for ri, rate := range rates {
							one := req
							one.SAArchs, one.Rates = nil, nil
							one.Base.SAArch, one.Base.Rate = arch, rate
							r := postSweep(t, ts.Client(), ts.URL, one)
							u := r.byIndex(0)
							u.Index = ai*len(rates) + ri
							cold.Updates = append(cold.Updates, u)
							cold.Summary.Misses += r.Summary.Misses
						}
					}
				}
				if cold.Summary.Misses != len(archs)*len(rates) {
					t.Fatalf("cold sweep: %+v, want all %d units to miss", cold.Summary, len(archs)*len(rates))
				}
				if got := assemble(cold); !bytes.Equal(got, batchJSON) {
					t.Fatalf("cold-miss series diverges from batch path:\nsweepd: %s\nbatch:  %s", got, batchJSON)
				}

				warm := postSweep(t, ts.Client(), ts.URL, req)
				if warm.Summary.Hits != len(archs)*len(rates) {
					t.Fatalf("warm sweep: %+v, want all %d units to hit", warm.Summary, len(archs)*len(rates))
				}
				if got := assemble(warm); !bytes.Equal(got, batchJSON) {
					t.Fatalf("cache-hit series diverges from batch path")
				}
				// The hit must return the cached bytes verbatim.
				for i := range cold.Updates {
					if !bytes.Equal(cold.byIndex(i).Result, warm.byIndex(i).Result) {
						t.Fatalf("unit %d: hit bytes differ from miss bytes", i)
					}
				}
				if runs := srv.SimRuns(); runs != int64(len(archs)*len(rates)) {
					t.Fatalf("server ran %d sims for %d distinct units", runs, len(archs)*len(rates))
				}
				if _, lent, _ := srv.pool.LendStats(); (leg.opts.Workers > 1) != (lent > 0) {
					t.Fatalf("%d workers: %d loans", leg.opts.Workers, lent)
				}
			})
		}
	}
}

// TestServerCoalescing is the acceptance coalescing check: 8 concurrent
// requests for one identical unit run exactly one simulation, verified by
// the server's sim-run counter, and every caller receives identical bytes.
func TestServerCoalescing(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	req := Request{Base: UnitConfig{
		Topo: "mesh", Rate: 0.2, Seed: 42, Warmup: 500, Measure: 2000, Drain: 6000,
	}}
	const N = 8
	results := make([][]byte, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := postSweep(t, ts.Client(), ts.URL, req)
			results[i] = r.byIndex(0).Result
		}()
	}
	wg.Wait()
	if runs := srv.SimRuns(); runs != 1 {
		t.Fatalf("%d concurrent identical requests ran %d simulations, want exactly 1", N, runs)
	}
	for i := 1; i < N; i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("caller %d got different bytes than caller 0", i)
		}
	}
	if results[0] == nil {
		t.Fatal("empty result")
	}
}

// TestServerEviction drives more distinct units than the store admits and
// checks the accounting: evictions occurred, the store stayed within
// bounds, and an evicted unit re-simulates on the next request.
func TestServerEviction(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2, MaxEntries: 2})
	base := UnitConfig{Topo: "mesh", Seed: 42, Warmup: 100, Measure: 200, Drain: 1000}
	req := Request{Base: base, Rates: []float64{0.05, 0.1, 0.15}}
	postSweep(t, ts.Client(), ts.URL, req)
	st := srv.Store().Stats()
	if st.Entries > 2 || st.Evictions == 0 {
		t.Fatalf("store did not enforce entry bound: %+v", st)
	}
	runsAfterCold := srv.SimRuns()
	if runsAfterCold != 3 {
		t.Fatalf("cold sweep ran %d sims, want 3", runsAfterCold)
	}
	// Request all three again: at least one must have been evicted and
	// re-simulate; the summary hit count must reflect the survivors.
	second := postSweep(t, ts.Client(), ts.URL, req)
	if second.Summary.Misses == 0 {
		t.Fatalf("no unit re-simulated after eviction: %+v", second.Summary)
	}
	if srv.SimRuns() == runsAfterCold {
		t.Fatal("sim-run counter did not grow after eviction")
	}
}

// TestServerShardsFromDefaults pins the server's one remaining input to how a
// unit is sharded: its worker count. A heavy unit on a one-worker server
// never has a helper goroutine (there is no other worker to lend), and on a
// two-worker server whose other worker is idle it has exactly one.
func TestServerShardsFromDefaults(t *testing.T) {
	buf := make([]byte, 1<<20)
	helpers := func() int { return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("sim.(*helper).run(")) }
	for _, workers := range []int{1, 2} {
		srv, _ := newTestServer(t, Options{Workers: workers})
		cancel, done := startUnit(srv, kneeForever)
		waitFor(t, "the unit to run", func() bool { return srv.pool.Running() == 1 })
		if workers == 2 {
			waitFor(t, "the unit to borrow the idle worker", func() bool { return helpers() == 1 })
		}
		// Long past the switchAfter cycles a heavy unit waits before it asks.
		for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
			if n := helpers(); n > workers-1 {
				t.Fatalf("%d workers: %d helper goroutines, want at most %d", workers, n, workers-1)
			}
		}
		cancel()
		if err := <-done; err == nil {
			t.Fatal("cancelled unit returned a result")
		}
	}
}

// TestServerDisconnectCancelsUnit is the acceptance cancellation check: a
// client that disconnects mid-simulation frees its worker promptly (the
// sim aborts within one sim.AbortCheckInterval poll), the coalescing key is
// released, and no goroutines leak.
func TestServerDisconnectCancelsUnit(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1})
	// Let httptest's server bookkeeping settle before baselining.
	time.Sleep(20 * time.Millisecond)
	baseGoroutines := runtime.NumGoroutine()

	// A unit that would simulate ~50M cycles: minutes of work if the abort
	// path fails.
	huge := Request{Base: UnitConfig{
		Topo: "mesh", Rate: 0.3, Seed: 42, Warmup: 500, Measure: 50_000_000, Drain: 1000,
	}}
	body, _ := json.Marshal(huge)
	ctx, cancel := context.WithCancel(context.Background())
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(hreq)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	// Wait until the simulation is actually running on the one worker.
	deadline := time.Now().Add(10 * time.Second)
	for srv.pool.Running() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("simulation never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel() // client disconnect
	<-errCh

	// The worker must come free promptly: the sim polls its context every
	// AbortCheckInterval cycles (microseconds of work), so seconds of
	// grace is generous.
	deadline = time.Now().Add(10 * time.Second)
	for srv.pool.Running() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker still busy 10s after client disconnect")
		}
		time.Sleep(time.Millisecond)
	}
	if fl := srv.flight.InFlight(); fl != 0 {
		t.Fatalf("%d coalescing keys still held after disconnect", fl)
	}
	// The freed worker serves new work.
	small := Request{Base: UnitConfig{Topo: "mesh", Rate: 0.1, Seed: 42, Warmup: 100, Measure: 200, Drain: 1000}}
	r := postSweep(t, ts.Client(), ts.URL, small)
	if r.byIndex(0).Status != "miss" {
		t.Fatalf("post-disconnect request: %+v", r.byIndex(0))
	}
	// No goroutine leak: the count settles back to (about) the baseline.
	deadline = time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseGoroutines+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d baseline", runtime.NumGoroutine(), baseGoroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerRejectsBadRequests pins the validation surface.
func TestServerRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for _, body := range []string{
		`{`,
		`{"base":{"topo":"hypercube","rate":0.1}}`,
		`{"base":{"topo":"mesh","rate":0.1},"sa_archs":["quantum"]}`,
		`{"base":{"topo":"mesh","rate":0.1},"bogus_field":1}`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/sweep", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %s, want 400", body, resp.Status)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/sweep")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /sweep: %s, want 405", resp.Status)
	}
}

// TestServerEndpoints smoke-tests /healthz and /statz.
func TestServerEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
	postSweep(t, ts.Client(), ts.URL, Request{Base: UnitConfig{Topo: "mesh", Rate: 0.05, Seed: 1, Warmup: 100, Measure: 200, Drain: 500}})
	resp, err = ts.Client().Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		SimRuns   int64                 `json:"sim_runs"`
		Execution experiments.ExecStats `json:"execution"`
		Store     struct {
			Entries int `json:"entries"`
		} `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	// The unit's execution counts are summed where it ran: one simulation,
	// whose 300 warmup and measured cycles were stepped or leapt over.
	exec := stats.Execution
	if stats.SimRuns != 1 || stats.Store.Entries != 1 || exec.Simulations != 1 ||
		exec.SteppedCycles+exec.LeaptCycles < 300 || exec.ArrivalDraws.Presampled == 0 {
		t.Fatalf("statz after one unit: %+v", stats)
	}
}

// TestRequestExpandOrder pins the documented axis nesting (rates fastest).
func TestRequestExpandOrder(t *testing.T) {
	req := Request{
		Base:    UnitConfig{Topo: "mesh", Seed: 42},
		SAArchs: []string{"sep_if", "wf"},
		Rates:   []float64{0.1, 0.2},
	}
	units, err := req.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 4 {
		t.Fatalf("expanded to %d units, want 4", len(units))
	}
	want := []struct {
		arch string
		rate float64
	}{{"sep_if", 0.1}, {"sep_if", 0.2}, {"wf", 0.1}, {"wf", 0.2}}
	for i, w := range want {
		if units[i].SAArch != w.arch || units[i].Rate != w.rate {
			t.Fatalf("unit %d: %s/%g, want %s/%g", i, units[i].SAArch, units[i].Rate, w.arch, w.rate)
		}
	}
}
