package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

// A workload run is closed-loop: each client sends its next operation only
// when the previous one has completed. Operations are counted against the
// number attempted; one that fails any check counts as missing — its time is
// in no sample and its work in no throughput.

// report is the outcome of one end-to-end run of one workload.
type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Ops       int                `json:"ops"` // rounds, requests or cycles
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"` // first few, for diagnosis
	Metrics   map[string]float64 `json:"metrics"`
	// Timings are the printed form of every latency behind the metrics: each
	// carries its n and the percentile used.
	Timings map[string]summary `json:"timings"`
	// Exact are counts that must repeat exactly for the same seed and ops.
	Exact map[string]int64 `json:"exact"`
	// ResultDigest is SHA-256 over the ordered result bytes. Informational:
	// a later fidelity fix may legitimately change it, so it is never pinned.
	ResultDigest string  `json:"result_digest"`
	WallS        float64 `json:"wall_s"`
	RawWorkPerS  float64 `json:"raw_work_per_s"` // work / wall, as the clock counted it

	digest hash.Hash
}

func newReport(workload string, seed uint64, ops int) *report {
	return &report{
		Workload: workload, Seed: seed, Ops: ops,
		Metrics: map[string]float64{}, Timings: map[string]summary{}, Exact: map[string]int64{},
		digest: sha256.New(),
	}
}

// op accounts for one attempted operation; a non-nil err fails it.
func (r *report) op(err error) bool {
	r.Attempted++
	if err == nil {
		return true
	}
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, err.Error())
	}
	return false
}

func (r *report) hashResult(b []byte) { r.digest.Write(b) }

// timed is a set of timings of one operation, each with the kernel passes
// that surround it.
type timed struct {
	raw      sample
	from, to []int
}

// add records that the operation sw timed took v (in the set's unit) and
// ended now.
func (t *timed) add(sw stopwatch, v float64) {
	t.raw, t.from, t.to = append(t.raw, v), append(t.from, sw.from), append(t.to, len(sw.h.ms))
}

// scaled is every timing divided by the host's slowness around it.
func (t *timed) scaled(h *hostSpeed) sample {
	out := make(sample, len(t.raw))
	for i, v := range t.raw {
		out[i] = v / h.at(t.from[i], t.to[i])
	}
	return out
}

// finish fills the metrics every workload reports the same way. Times are in
// units of the reference-speed host (hostspeed.go); busy is the scaled and
// wall the raw length of the timed loop, in seconds.
func (r *report) finish(e *env, h *hostSpeed, setup, op, alt timed, work, busy, wall float64) {
	r.ResultDigest = hex.EncodeToString(r.digest.Sum(nil))
	r.Timings["setup"], r.Timings["setup_raw"] = setup.scaled(h).summary("s"), setup.raw.summary("s")
	r.Timings["op"], r.Timings["op_raw"] = op.scaled(h).summary("ms"), op.raw.summary("ms")
	r.Timings["alt"], r.Timings["alt_raw"] = alt.scaled(h).summary("ms"), alt.raw.summary("ms")
	r.Timings["host_kernel"] = sample(h.ms).summary("ms")
	r.Metrics["setup_s"] = r.Timings["setup"].P50
	r.Metrics["rss_mb"] = e.takeRSSMiB()
	r.Metrics["op_p50_ms"] = r.Timings["op"].P50
	r.Metrics["alt_p50_ms"] = r.Timings["alt"].P50
	r.Metrics["work_per_s"] = work / busy
	r.RawWorkPerS = work / wall
	r.WallS = wall
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// setupRepeats is how often the cheap part of set-up (process start + health
// wait, a few ms) is repeated so that setup_s is a median and not a single
// draw: with 5 repeats the medians of two sets of ten runs still differed by
// 10-20 %.
const setupRepeats = 41

// startServerTimed starts sweepd setupRepeats times, keeping the last
// instance, and returns every start's duration.
func (e *env) startServerTimed(h *hostSpeed, cacheDir string, cacheEntries int) (*server, timed, error) {
	var times timed
	for i := 0; ; i++ {
		sw := h.begin()
		srv, err := e.startServer(cacheDir, cacheEntries)
		if err != nil {
			return nil, times, err
		}
		times.add(sw, srv.startS)
		if i == setupRepeats-1 {
			e.discardRSS()
			return srv, times, nil
		}
		srv.stop()
	}
}

// simRuns reads /statz sim_runs.
func (s *server) simRuns() (int64, error) {
	code, body, err := s.get("/statz")
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("/statz: status %d", code)
	}
	var st struct {
		SimRuns int64 `json:"sim_runs"`
	}
	err = json.Unmarshal(body, &st)
	return st.SimRuns, err
}

// sweep posts a request and checks every unit came back with the wanted
// status and a result.
func (s *server) sweep(req sweepRequest, units int, wantStatus string) ([]unitUpdate, error) {
	return s.sweepBody(req.body(), units, wantStatus)
}

func (s *server) sweepBody(body []byte, units int, wantStatus string) ([]unitUpdate, error) {
	code, resp, err := s.post("/sweep", body)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("POST /sweep %s: status %d: %s", body, code, bytes.TrimSpace(resp))
	}
	ups, err := parseSweep(resp, units)
	if err != nil {
		return nil, err
	}
	for _, u := range ups {
		if u.Status != wantStatus || len(u.Result) == 0 {
			return nil, fmt.Errorf("POST /sweep %s: unit %d status %q (%s), want %q", body, u.Index, u.Status, u.Error, wantStatus)
		}
	}
	return ups, nil
}

// checkSimResult is the correctness rule for a freshly simulated unit.
func checkSimResult(raw []byte, drains bool) (unitResult, error) {
	var res unitResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return res, err
	}
	if res.FlitsDelivered <= 0 || res.Cycles <= 0 {
		return res, fmt.Errorf("empty run: %d flits in %d cycles", res.FlitsDelivered, res.Cycles)
	}
	if drains && res.Unfinished != 0 {
		return res, fmt.Errorf("%d measured packets unfinished below saturation", res.Unfinished)
	}
	return res, nil
}

// simWorkload is sim_lowload or sim_saturation: one client, rounds of
// single-unit POST /sweep requests, each a never-seen seed and therefore a
// cold miss. The alternate path re-posts every unit of the first rounds in
// one request, which must come back as cache hits with byte-equal results.
type simWorkload struct {
	name    string
	phases  phases
	classes []simClass
}

var (
	simLowload    = simWorkload{"sim_lowload", lowloadPhases, lowloadClasses}
	simSaturation = simWorkload{"sim_saturation", saturationPhases, saturationClasses}
)

// The alternate path is one request for all units of the first simAltRounds
// rounds, sent simAltPasses times: about a second of sustained hits.
// (Re-posted one unit per request, a hit costs a quarter of a millisecond,
// nearly all of it waking an idle server, and the median moved by a quarter
// between runs of the same seed; so did the median of only 50 passes.)
const (
	simAltRounds = 20
	simAltPasses = 300
)

func (w simWorkload) request(seed uint64, round, class int) sweepRequest {
	u := w.phases.apply(w.classes[class].unit)
	u.Seed = unitSeed(seed, round, class)
	return sweepRequest{Base: u}
}

func (w simWorkload) run(e *env, seed uint64, rounds int) (*report, error) {
	rep := newReport(w.name, seed, rounds)
	h := &hostSpeed{exponent: hostExponent}
	srv, setup, err := e.startServerTimed(h, "", 0)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	before, err := srv.simRuns()
	if err != nil {
		return nil, err
	}

	var altUnits []unitConfig // every unit of the first rounds
	var kept [][]byte         // and its simulated result
	var roundMS, altMS timed
	var cycles, flits, cold int64
	first := h.tick()
	for round := 0; round < rounds; round++ {
		ok := true
		sw := h.begin()
		for class, c := range w.classes {
			cold++
			req := w.request(seed, round, class)
			ups, err := srv.sweep(req, 1, "miss")
			var res unitResult
			if err == nil {
				res, err = checkSimResult(ups[0].Result, c.drains)
			}
			if !rep.op(err) {
				ok = false
				continue
			}
			cycles += res.Cycles
			flits += res.FlitsDelivered
			rep.hashResult(ups[0].Result)
			if round < simAltRounds {
				altUnits, kept = append(altUnits, req.Base), append(kept, ups[0].Result)
			}
		}
		if ok {
			roundMS.add(sw, ms(sw.elapsed()))
		}
	}
	last := h.tick()

	for pass := 0; pass < simAltPasses && len(kept) > 0; pass++ {
		sw := h.begin()
		ups, err := srv.sweep(sweepRequest{Base: altUnits[0], Units: altUnits[1:]}, len(kept), "hit")
		d := sw.elapsed()
		for i := 0; err == nil && i < len(ups); i++ {
			if !bytes.Equal(ups[i].Result, kept[i]) {
				err = fmt.Errorf("re-posted unit %d: cached result differs from the simulated one", i)
			}
		}
		if rep.op(err) {
			altMS.add(sw, ms(d))
		}
	}
	h.close()

	after, err := srv.simRuns()
	if err == nil && after-before != cold {
		err = fmt.Errorf("/statz sim_runs grew by %d for %d cold units", after-before, cold)
	}
	rep.op(err)
	srv.stop()

	rep.Exact["sim_cycles"], rep.Exact["flits_delivered"], rep.Exact["sim_runs"] = cycles, flits, after-before
	busy, wall := h.seconds(first, last)
	rep.finish(e, h, setup, roundMS, altMS, float64(cycles)/1000, busy, wall)
	return rep, nil
}

// qualityQualities extracts every matching-quality value matchquality
// printed: the tab-separated columns after the rate in each table row.
func qualityQualities(out []byte) ([]float64, error) {
	var qs []float64
	for _, line := range strings.Split(string(out), "\n") {
		cols := strings.Split(line, "\t")
		if _, err := strconv.ParseFloat(cols[0], 64); err != nil || len(cols) < 2 {
			continue // title and header lines
		}
		for _, c := range cols[1:] {
			q, err := strconv.ParseFloat(c, 64)
			if err != nil {
				return nil, fmt.Errorf("bad quality %q", c)
			}
			qs = append(qs, q)
		}
	}
	return qs, nil
}

// Ten rounds gave a median that moved by a third between runs on a noisy host.
const qualityAltRounds = 30

// runQuality is quality_openloop: rounds of four sequential
// `matchquality -workers 1` subprocesses. The alternate path re-runs the
// first rounds with -workers 2, whose output must be byte-equal.
func runQuality(e *env, seed uint64, rounds int) (*report, error) {
	rep := newReport("quality_openloop", seed, rounds)

	// Set-up is what a user pays before the first useful result: loading the
	// program once per class (-trials 1 does next to no work).
	h := &hostSpeed{exponent: hostExponent}
	var setup timed
	for i := 0; i < setupRepeats; i++ {
		sw := h.begin()
		for _, c := range qualityClasses {
			c.trials = 1
			if _, _, err := e.run("matchquality", c.args(seed, 1)...); err != nil {
				return nil, err
			}
		}
		setup.add(sw, sw.elapsed().Seconds())
	}
	e.discardRSS()

	invoke := func(round, class, workers int) ([]byte, error) {
		c := qualityClasses[class]
		out, _, err := e.run("matchquality", c.args(unitSeed(seed, round, class), workers)...)
		if err != nil {
			return nil, err
		}
		qs, err := qualityQualities(out)
		if err != nil {
			return nil, err
		}
		if len(qs) != qualityPointsPerTrial {
			return nil, fmt.Errorf("matchquality printed %d qualities, want %d", len(qs), qualityPointsPerTrial)
		}
		for _, q := range qs {
			if !(q > 0 && q <= 1) {
				return nil, fmt.Errorf("quality %g outside (0, 1]", q)
			}
		}
		return out, nil
	}

	altRounds := min(rounds, qualityAltRounds)
	kept := make([][][]byte, altRounds)
	var roundMS, altMS timed
	var trials int64
	first := h.tick()
	for round := 0; round < rounds; round++ {
		ok := true
		sw := h.begin()
		for class, c := range qualityClasses {
			out, err := invoke(round, class, 1)
			if !rep.op(err) {
				ok = false
				continue
			}
			trials += int64(c.trials) * qualityPointsPerTrial
			rep.hashResult(out)
			if round < altRounds {
				kept[round] = append(kept[round], out)
			}
		}
		if ok {
			roundMS.add(sw, ms(sw.elapsed()))
		}
	}
	last := h.tick()

	for round := 0; round < altRounds; round++ {
		ok := len(kept[round]) == len(qualityClasses)
		sw := h.begin()
		for class := 0; ok && class < len(qualityClasses); class++ {
			out, err := invoke(round, class, 2)
			if err == nil && !bytes.Equal(out, kept[round][class]) {
				err = fmt.Errorf("round %d class %d: -workers 2 output differs from -workers 1", round, class)
			}
			ok = rep.op(err) && ok
		}
		if ok {
			altMS.add(sw, ms(sw.elapsed()))
		}
	}
	h.close()

	rep.Exact["trials"] = trials
	busy, wall := h.seconds(first, last)
	rep.finish(e, h, setup, roundMS, altMS, float64(trials)/1000, busy, wall)
	return rep, nil
}

// warmCatalogue simulates the whole catalogue through seeds-axis batches and
// returns each unit's result bytes.
func warmCatalogue(srv *server, h *hostSpeed, seed uint64) ([][]byte, error) {
	out := make([][]byte, 0, catalogueSize)
	for first := 0; first < catalogueSize; first += warmBatch {
		h.begin()
		ups, err := srv.sweep(warmRequest(seed, first), warmBatch, "miss")
		if err != nil {
			return nil, fmt.Errorf("catalogue warm-up: %w", err)
		}
		for _, u := range ups {
			if _, err := checkSimResult(u.Result, true); err != nil {
				return nil, fmt.Errorf("catalogue warm-up: %w", err)
			}
			out = append(out, u.Result)
		}
	}
	return out, nil
}

const serviceSetupRepeats = 3

// serviceExponent is service_mixed's hostExponent. Its requests are a few
// hundred microseconds of process wake-ups and system calls, which a slow
// host slows twice as much as it slows computation in user space: in three
// sets of ten runs the slope of log(hit time) on log(kernel time) was 1.8-2.0
// (cold requests 1.5), and at 1.4 the scaled hit median still spread by up to
// 19 % where 2.0 left 3-4 %.
const serviceExponent = 2.0

// runService is service_mixed: sweepd with a disk tier and a memory store
// half the size of a warmed catalogue, then one closed-loop client working
// through a seeded schedule of hits, batches and cold units. (Two clients and
// the server's workers are more runnable threads than the host has cores;
// what they measured was the scheduler.)
func runService(e *env, seed uint64, requests int) (*report, error) {
	rep := newReport("service_mixed", seed, requests)
	h := &hostSpeed{exponent: serviceExponent}

	// Set-up = process start + health wait + catalogue warm, on a fresh
	// cachedir each time; the last instance serves the timed run.
	var setup timed
	var srv *server
	var catalogue [][]byte
	for i := 0; i < serviceSetupRepeats; i++ {
		dir, err := e.tempDir("service-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		sw := h.begin()
		if srv, err = e.startServer(dir, catalogueEntry); err != nil {
			return nil, err
		}
		defer srv.stop()
		if catalogue, err = warmCatalogue(srv, h, seed); err != nil {
			return nil, err
		}
		setup.add(sw, sw.elapsed().Seconds())
		if i < serviceSetupRepeats-1 {
			srv.stop()
		}
	}
	e.discardRSS()
	before, err := srv.simRuns()
	if err != nil {
		return nil, err
	}

	var hit, batch, cold timed
	var coldUnits int64
	first := h.tick()
	for _, r := range serviceSchedule(seed, requests) {
		req := r.request(seed)
		units, status := r.expect()
		if r.kind == kindCold {
			coldUnits++
		}
		sw := h.begin()
		ups, err := srv.sweep(req, units, status)
		d := ms(sw.elapsed())
		for i := 0; err == nil && i < len(ups); i++ {
			if r.kind == kindCold {
				_, err = checkSimResult(ups[i].Result, true)
			} else if !bytes.Equal(ups[i].Result, catalogue[r.first+i]) {
				err = fmt.Errorf("catalogue unit %d: served bytes differ from its warm-up result", r.first+i)
			}
		}
		if !rep.op(err) {
			continue
		}
		for _, u := range ups {
			rep.hashResult(u.Result)
		}
		switch r.kind {
		case kindHit:
			hit.add(sw, d)
		case kindBatch:
			batch.add(sw, d)
		default:
			cold.add(sw, d)
		}
	}
	last := h.tick()
	h.close()

	after, err := srv.simRuns()
	if err == nil && after-before != coldUnits {
		err = fmt.Errorf("/statz sim_runs grew by %d for %d cold units", after-before, coldUnits)
	}
	rep.op(err)
	srv.stop()

	rep.Exact["hits"], rep.Exact["batches"], rep.Exact["cold"] = int64(len(hit.raw)), int64(len(batch.raw)), int64(len(cold.raw))
	rep.Exact["sim_runs"] = after - before
	rep.Timings["batch"] = batch.scaled(h).summary("ms")
	busy, wall := h.seconds(first, last)
	rep.finish(e, h, setup, hit, cold, float64(len(hit.raw)+len(batch.raw)+len(cold.raw)), busy, wall)
	return rep, nil
}

// jobStatus is the part of a /pareto or /curve job response the benchmark
// reads; Result is compared byte for byte between the cold and warm pass.
type jobStatus struct {
	Job    string          `json:"job"`
	Status string          `json:"status"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

const jobPollInterval = 200 * time.Microsecond

// jobCall performs one request of the job API and decodes the status.
func (s *server) jobCall(method, path string, body []byte, wantCode int) (jobStatus, error) {
	var st jobStatus
	var code int
	var resp []byte
	var err error
	if method == http.MethodPost {
		code, resp, err = s.post(path, body)
	} else {
		code, resp, err = s.get(path)
	}
	if err == nil && code != wantCode {
		err = fmt.Errorf("status %d: %s", code, bytes.TrimSpace(resp))
	}
	if err == nil {
		err = json.Unmarshal(resp, &st)
	}
	if err == nil && st.Status != "running" && st.Status != "done" {
		err = fmt.Errorf("job %s: %s", st.Status, st.Error)
	}
	if err != nil {
		err = fmt.Errorf("%s %s: %w", method, path, err)
	}
	return st, err
}

// runJobs runs the jobs one after another — submit, then poll every
// jobPollInterval until done — and returns each job's result bytes. One job
// at a time keeps a cycle's duration a property of the search problem:
// submitted together, the three jobs race for the two pool workers and the
// same problem's time varied by 15 % between runs.
func (s *server) runJobs(h *hostSpeed, jobs []searchJob) ([][]byte, error) {
	results := make([][]byte, len(jobs))
	for i, j := range jobs {
		h.begin()
		st, err := s.jobCall(http.MethodPost, j.path, j.body, http.StatusAccepted)
		for deadline := time.Now().Add(opTimeout); err == nil && st.Status != "done"; {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("%s job not done after %s", j.path, opTimeout)
			}
			time.Sleep(jobPollInterval)
			st, err = s.jobCall(http.MethodGet, j.path+"?job="+st.Job, nil, http.StatusOK)
		}
		if err != nil {
			return nil, err
		}
		results[i] = st.Result
	}
	return results, nil
}

// searchWarmPasses is how often a cycle kills, restarts and runs its warm
// pass: that costs 15 ms against the cold pass's 500, and the median of one
// warm pass per cycle (24 in a run) spread by 13 % over ten runs.
const searchWarmPasses = 3

// runSearch is search_jobs: identical cycles of fresh cachedir -> start
// sweepd -> one Pareto search and two curve traces (cold) -> kill -> restart
// on the same directory -> the same three jobs again (warm: zero simulations,
// byte-equal results).

func runSearch(e *env, seed uint64, cycles int) (*report, error) {
	rep := newReport("search_jobs", seed, cycles)
	h := &hostSpeed{exponent: hostExponent}
	var setup, coldMS, warmMS timed
	var simulated int64

	cycle := func(problem uint64) error {
		jobs := searchJobs(problem)
		dir, err := e.tempDir("search-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		sw := h.begin()
		srv, err := e.startServer(dir, 0)
		if err != nil {
			return err
		}
		defer func() { srv.stop() }()
		setup.add(sw, srv.startS)

		sw = h.begin()
		cold, err := srv.runJobs(h, jobs)
		d := sw.elapsed()
		var runs int64
		if err == nil {
			runs, err = srv.simRuns()
		}
		if err == nil && runs == 0 {
			err = fmt.Errorf("cold pass ran no simulation")
		}
		if !rep.op(err) {
			return nil
		}
		coldMS.add(sw, ms(d))
		simulated += runs
		for _, b := range cold {
			rep.hashResult(b)
		}

		for pass := 0; pass < searchWarmPasses; pass++ {
			srv.stop()
			sw = h.begin()
			if srv, err = e.startServer(dir, 0); err != nil {
				return err
			}
			setup.add(sw, srv.startS)
			sw = h.begin()
			warm, err := srv.runJobs(h, jobs)
			d = sw.elapsed()
			if err == nil {
				if runs, err = srv.simRuns(); err == nil && runs != 0 {
					err = fmt.Errorf("warm pass simulated %d units, want 0", runs)
				}
			}
			for i := 0; err == nil && i < len(cold); i++ {
				if !bytes.Equal(warm[i], cold[i]) {
					err = fmt.Errorf("warm %s result differs from cold", jobs[i].path)
				}
			}
			if rep.op(err) {
				warmMS.add(sw, ms(d))
			}
		}
		return nil
	}
	for _, problem := range searchProblems(seed, cycles) {
		if err := cycle(problem); err != nil {
			return nil, err
		}
	}

	h.close()

	// Work is cold jobs per second of cold passes.
	var busy, wall float64
	for i, v := range coldMS.scaled(h) {
		busy, wall = busy+v/1000, wall+coldMS.raw[i]/1000
	}
	rep.Exact["sim_runs"] = simulated
	rep.finish(e, h, setup, coldMS, warmMS, float64(len(coldMS.raw)*searchJobsPerCycle), busy, wall)
	return rep, nil
}
