// Command sweepd is the persistent sweep service: a long-lived HTTP server
// that runs the repository's cycle-accurate network simulations on demand
// and caches the results by content address. Repeated and concurrent
// requests for the same (config, seed) pay for one simulation: a
// content-addressed LRU store serves repeats, in-flight coalescing merges
// concurrent duplicates, and a bounded worker pool schedules true misses.
// Results are bit-identical to the batch CLIs (cmd/repro, cmd/nocsim) for
// the same unit — the cache key covers exactly the semantic fields, so
// hits are correct regardless of how the server executes a unit.
//
// Usage:
//
//	sweepd                         # listen on :8080
//	sweepd -addr :9090 -workers 8  # explicit bind and pool width
//	sweepd -selfcheck              # in-process smoke: miss, byte-equal hit, one /curve job
//
// Endpoints:
//
//	POST /sweep    {"base":{...},"sa_archs":[...],"rates":[...]}  → NDJSON
//	POST /curve    {"base":{...},"step":0.01,...}  → adaptive-trace job (poll GET, cancel DELETE)
//	POST /pareto   design-space-search job (poll GET, cancel DELETE)
//	GET  /healthz  liveness
//	GET  /statz    cache / coalescing / pool counters
//
// SIGINT or SIGTERM stops accepting connections, lets requests in flight
// finish (up to a grace period), cancels running jobs and drains the pool.
//
// With -cachedir, -cachemaxbytes/-cachemaxentries bound the disk tier:
// writes that cross a budget evict least-recently-used result files (zero =
// unbounded). /statz reports eviction counters.
//
// Those, -addr, -workers, -cache-entries, -cache-bytes and -selfcheck are all
// of its flags, and none of them changes a result: a unit is exactly what its
// request says, with the schema defaults for the fields it leaves zero. Units
// follow the idle workers: with -workers above 1, a unit that has proved heavy
// borrows a pool worker with nothing to do as the goroutine of a second shard
// and gives it back as soon as another unit waits for it; /statz counts the
// loans (helpers_lent, helpers_recalled, helpers_late for the loans a unit
// ended because its helper ran late, and helpers_unstarted for those given
// back before the helper claimed a single phase) and the cycles stepped
// concurrently (parallel_cycles). Trace-replay workloads are batch-only: the service
// content-addresses units by config and cannot materialize trace bytes.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/curve"
	"repro/internal/dse"
	"repro/internal/jobs"
	"repro/internal/sweep"
)

func main() {
	cfg, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		flag.Usage()
		os.Exit(2)
	}
	opts := cfg.opts
	srv, err := sweep.NewServer(opts)
	if err != nil {
		log.Fatal("sweepd: ", err)
	}
	defer srv.Close()

	if cfg.selfcheck {
		if err := runSelfcheck(srv, opts); err != nil {
			fmt.Fprintln(os.Stderr, "sweepd selfcheck: FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("sweepd selfcheck: ok")
		return
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		log.Fatal("sweepd: ", err)
	}
	cacheDesc := "memory-only"
	if opts.CacheDir != "" {
		cacheDesc = "disk " + srv.Disk().Dir()
	}
	log.Printf("sweepd: listening on %s (workers=%d, cache %d entries / %d MiB, %s, schema v%d)",
		ln.Addr(), opts.Workers, opts.MaxEntries, opts.MaxBytes>>20, cacheDesc, sweep.SchemaVersion)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	h, closeJobs := handler(srv, srv)
	err = serve(ctx, ln, h)
	closeJobs() // before the deferred srv.Close stops the pool under the jobs
	if err != nil {
		log.Fatal("sweepd: ", err)
	}
	log.Print("sweepd: shut down")
}

// config is what sweepd's command line sets.
type config struct {
	addr      string
	selfcheck bool
	opts      sweep.Options
}

// parseFlags registers sweepd's flags on fs and parses args: the listen
// address, the worker pool width, the memory and disk cache bounds, and
// -selfcheck. sweepd takes no positional argument; one is an error.
func parseFlags(fs *flag.FlagSet, args []string) (config, error) {
	var c config
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.IntVar(&c.opts.Workers, "workers", runtime.GOMAXPROCS(0), "worker pool width: simulations run at once across all requests (an idle worker is lent to a heavy unit as its second shard)")
	fs.IntVar(&c.opts.MaxEntries, "cache-entries", 4096, "result store entry bound (negative = unbounded)")
	fs.Int64Var(&c.opts.MaxBytes, "cache-bytes", 64<<20, "result store byte bound (negative = unbounded)")
	fs.StringVar(&c.opts.CacheDir, "cachedir", "", "disk cache directory (empty = memory-only); results persist across restarts in a schema-versioned subdirectory")
	fs.Int64Var(&c.opts.DiskMaxBytes, "cachemaxbytes", 0, "disk cache byte budget (0 = unbounded); LRU result files are evicted when a write crosses it")
	fs.Int64Var(&c.opts.DiskMaxEntries, "cachemaxentries", 0, "disk cache entry budget (0 = unbounded); LRU result files are evicted when a write crosses it")
	fs.BoolVar(&c.selfcheck, "selfcheck", false, "run an in-process smoke test (cold miss, then byte-equal cache hit; with -cachedir, also a restart warm hit) and exit")
	err := fs.Parse(args)
	if err == nil && fs.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return c, err
}

// handler mounts the sweep endpoints of srv and the /pareto and /curve job
// APIs on one mux, and returns it with a function that closes both job
// services. The jobs resolve every point through eval — srv outside tests — so
// a trace, a search and a /sweep client never run the same simulation twice.
func handler(srv *sweep.Server, eval sweep.Evaluator) (http.Handler, func()) {
	pareto, curves := dse.NewService(eval), curve.NewService(eval)
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/pareto", pareto)
	mux.Handle("/curve", curves)
	return mux, func() { pareto.Close(); curves.Close() }
}

// A client has readHeaderTimeout to send its headers; an idle connection is
// closed after idleTimeout. No write timeout: a cold /sweep streams
// simulations for minutes. At shutdown, requests in flight get shutdownGrace
// before their connections are cut, which cancels their simulations.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownGrace     = 10 * time.Second
)

// serve answers h on ln until ctx is canceled, then shuts the server down and
// returns once every connection has closed. Jobs are not requests: they
// outlive serve, and the caller closes them.
func serve(ctx context.Context, ln net.Listener, h http.Handler) error {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	drain, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := hs.Shutdown(drain)
	if err != nil {
		hs.Close()
	}
	<-served
	return err
}

// runSelfcheck exercises the full endpoint stack against a live listener:
// one quick Fig. 13 point requested twice must simulate exactly once, with
// the second pass served entirely from the store and byte-equal to the
// first, and one tiny /curve job must run its course (checkCurveJob). With
// -cachedir set it additionally proves restart persistence: a
// brand-new server on the same directory must serve the whole request from
// disk without simulating. This is the CI endpoint smoke.
func runSelfcheck(srv *sweep.Server, opts sweep.Options) error {
	h, closeJobs := handler(srv, srv)
	defer closeJobs()
	ts := httptest.NewServer(h)
	defer ts.Close()

	req := sweep.Request{
		Base: sweep.UnitConfig{
			Topo: "mesh", Seed: 42, Warmup: 500, Measure: 1000, Drain: 4000,
		},
		SAArchs: []string{"sep_if", "wf"},
		Rates:   []float64{0.05, 0.2},
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	post := func(base string) (results map[int]json.RawMessage, sum sweep.SweepSummary, err error) {
		resp, err := http.Post(base+"/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, sum, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, sum, fmt.Errorf("POST /sweep: %s", resp.Status)
		}
		results = map[int]json.RawMessage{}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if bytes.Contains(line, []byte(`"done"`)) {
				err = json.Unmarshal(line, &sum)
			} else {
				var u sweep.UnitUpdate
				if err = json.Unmarshal(line, &u); err == nil {
					if u.Error != "" {
						return nil, sum, fmt.Errorf("unit %d: %s: %s", u.Index, u.Status, u.Error)
					}
					results[u.Index] = u.Result
				}
			}
			if err != nil {
				return nil, sum, err
			}
		}
		return results, sum, sc.Err()
	}

	// The curve job goes first, so that the sweep results are the newest
	// files on a bounded disk tier and survive its eviction.
	if err := checkCurveJob(ts.URL + "/curve"); err != nil {
		return err
	}
	curveSims := srv.SimRuns()

	start := time.Now()
	cold, coldSum, err := post(ts.URL)
	if err != nil {
		return err
	}
	coldElapsed := time.Since(start)
	if coldSum.Misses != coldSum.Units || coldSum.Units != 4 {
		return fmt.Errorf("cold pass: %+v, want 4 misses", coldSum)
	}
	start = time.Now()
	warm, warmSum, err := post(ts.URL)
	if err != nil {
		return err
	}
	warmElapsed := time.Since(start)
	if warmSum.Hits != warmSum.Units {
		return fmt.Errorf("warm pass: %+v, want all hits", warmSum)
	}
	for i, b := range cold {
		if !bytes.Equal(b, warm[i]) {
			return fmt.Errorf("unit %d: cache hit bytes differ from the miss that populated it", i)
		}
	}
	if got := srv.SimRuns() - curveSims; got != 4 {
		return fmt.Errorf("two identical sweeps ran %d simulations, want 4", got)
	}
	fmt.Printf("cold %v, warm %v (%0.0fx), 4 units, 4 sims, 4 hits\n",
		coldElapsed.Round(time.Millisecond), warmElapsed.Round(time.Microsecond),
		float64(coldElapsed)/float64(warmElapsed))

	if opts.CacheDir == "" {
		return nil
	}
	bounded := opts.DiskMaxBytes > 0 || opts.DiskMaxEntries > 0
	if bounded {
		// Eviction smoke: the caps are sized so four results cannot all fit,
		// so the cold pass must have evicted — and the evicted files must be
		// gone from the directory, not merely uncounted.
		st := srv.Disk().Stats()
		if st.Evictions == 0 || st.EvictScans == 0 {
			return fmt.Errorf("bounded disk tier (max %dB/%d entries) never evicted: %+v",
				opts.DiskMaxBytes, opts.DiskMaxEntries, st)
		}
		if opts.DiskMaxBytes > 0 && st.Bytes > opts.DiskMaxBytes {
			return fmt.Errorf("disk tier over byte budget after eviction: %+v", st)
		}
		fmt.Printf("eviction: %d files evicted (%dB) in %d scans, %d files remain\n",
			st.Evictions, st.EvictedBytes, st.EvictScans, st.Files)
	}
	// Restart persistence: a fresh process on the same cache directory. With
	// an unbounded tier every unit is a disk-backed hit with zero
	// simulations; with eviction caps the surviving units hit and the
	// evicted ones heal by re-simulating — byte-equal either way.
	srv2, err := sweep.NewServer(opts)
	if err != nil {
		return err
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	start = time.Now()
	restart, restartSum, err := post(ts2.URL)
	if err != nil {
		return err
	}
	restartElapsed := time.Since(start)
	if bounded {
		if restartSum.Hits+restartSum.Misses != restartSum.Units || restartSum.Misses == 0 {
			return fmt.Errorf("restart-after-eviction pass: %+v, want evicted units back as misses", restartSum)
		}
		if got := srv2.SimRuns(); got != int64(restartSum.Misses) {
			return fmt.Errorf("restarted server ran %d simulations for %d misses", got, restartSum.Misses)
		}
	} else {
		if restartSum.Hits != restartSum.Units {
			return fmt.Errorf("restart pass: %+v, want all hits from disk", restartSum)
		}
		if got := srv2.SimRuns(); got != 0 {
			return fmt.Errorf("restarted server ran %d simulations, want 0 (disk cache cold?)", got)
		}
		if hits := srv2.Disk().Stats().Hits; hits != int64(restartSum.Units) {
			return fmt.Errorf("restart pass: %d disk hits, want %d", hits, restartSum.Units)
		}
	}
	for i, b := range cold {
		if !bytes.Equal(b, restart[i]) {
			return fmt.Errorf("unit %d: disk-restored bytes differ from the original miss", i)
		}
	}
	fmt.Printf("restart %v, %d units, %d sims, %d hits (dir %s)\n",
		restartElapsed.Round(time.Microsecond), restartSum.Units,
		srv2.SimRuns(), restartSum.Hits, srv2.Disk().Dir())
	return nil
}

// minJobWait is how long a job request must at least hold before it may
// answer "running": the service's one-second wait, less slack for timers. The
// check is one-sided, so a slow runner cannot fail it.
const minJobWait = 900 * time.Millisecond

// checkCurveJob drives one tiny adaptive trace through the job API at url:
// submit (202), poll until done, resubmit (the same job, already done), and
// poll an unknown ID (404). A submit or poll that answers "running" sooner
// than minJobWait fails.
func checkCurveJob(url string) error {
	spec, _ := json.Marshal(curve.Spec{
		Base: sweep.UnitConfig{Topo: "mesh", Seed: 42, Warmup: 50, Measure: 100, Drain: 500},
		Step: 0.05, MinRate: 0.05, MaxRate: 0.2, Coarse: 2, MaxPoints: 3,
	})
	var st jobs.Status[curve.Spec, curve.Trace]
	call := func(send func() (*http.Response, error)) error {
		start := time.Now()
		resp, err := send()
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		want := http.StatusOK
		if resp.Request.Method == http.MethodPost {
			want = http.StatusAccepted
		}
		if resp.StatusCode != want {
			return fmt.Errorf("%s %s: %s", resp.Request.Method, resp.Request.URL, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return err
		}
		if took := time.Since(start); st.Status == "running" && took < minJobWait {
			return fmt.Errorf("%s %s answered running after %v, want a wait of %v", resp.Request.Method, resp.Request.URL, took, minJobWait)
		}
		return nil
	}
	submit := func() (*http.Response, error) { return http.Post(url, "application/json", bytes.NewReader(spec)) }
	if err := call(submit); err != nil {
		return err
	}
	id := st.Job
	poll := func() (*http.Response, error) { return http.Get(url + "?job=" + id) }
	for deadline := time.Now().Add(time.Minute); st.Status == "running"; {
		if err := call(poll); err != nil || time.Now().After(deadline) {
			return fmt.Errorf("polling curve job %s: %q, %v", id, st.Status, err)
		}
	}
	if st.Status != "done" || st.Result == nil || st.Simulated != st.Result.Simulated {
		return fmt.Errorf("curve job finished %q (%s) with progress %d", st.Status, st.Error, st.Simulated)
	}
	trace := *st.Result
	if err := call(submit); err != nil || st.Job != id || st.Status != "done" {
		return fmt.Errorf("resubmitted curve job: %s %q, %v; want %s done", st.Job, st.Status, err, id)
	}
	resp, err := http.Get(url + "?job=unknown")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("unknown curve job: %s, want 404", resp.Status)
	}
	fmt.Printf("curve job: %d points, knee rate %g, resubmit attached, unknown job 404\n", trace.Simulated, trace.KneeRate)
	return nil
}
