// Command sweepd is the persistent sweep service: a long-lived HTTP server
// that runs the repository's cycle-accurate network simulations on demand
// and caches the results by content address. Repeated and concurrent
// requests for the same (config, seed) pay for one simulation: a
// content-addressed LRU store serves repeats, in-flight coalescing merges
// concurrent duplicates, and a bounded worker pool schedules true misses.
// Results are bit-identical to the batch CLIs (cmd/repro, cmd/nocsim) for
// the same unit — the cache key covers exactly the semantic fields, so
// hits are correct regardless of the server's -shards/-reference execution
// configuration.
//
// Usage:
//
//	sweepd                         # listen on :8080
//	sweepd -addr :9090 -workers 8  # explicit bind and pool width
//	sweepd -selfcheck              # in-process smoke: miss, then byte-equal hit
//
// Endpoints:
//
//	POST /sweep    {"base":{...},"sa_archs":[...],"rates":[...]}  → NDJSON
//	POST /curve    {"base":{...},"step":0.01,...}  → adaptive-trace job (poll GET, cancel DELETE)
//	POST /pareto   design-space-search job (poll GET, cancel DELETE)
//	GET  /healthz  liveness
//	GET  /statz    cache / coalescing / pool counters
//
// With -cachedir, -cachemaxbytes/-cachemaxentries bound the disk tier:
// writes that cross a budget evict least-recently-used result files (zero =
// unbounded). /statz reports eviction counters.
//
// The -warmup/-measure/-drain/-seed flags and the workload flag set
// (-process/-pattern/-burstlen/-duty/-hotspots/-hotfrac) set server-side
// defaults for request fields left zero; -shards/-reference pick the
// execution path for every simulated unit (bit-identical axes, never part of
// the cache key). -shards 0, the default, follows the idle workers: a unit
// that has proved heavy borrows a pool worker with nothing to do as the
// goroutine of a second shard and gives it back as soon as another unit waits
// for it; /statz counts the loans (helpers_lent, helpers_recalled) and the
// cycles stepped concurrently (parallel_cycles). Trace-replay workloads are batch-only: the
// service content-addresses units by config and cannot materialize trace
// bytes.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro/internal/curve"
	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheEntries := flag.Int("cache-entries", 4096, "result store entry bound (0 = unbounded)")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "result store byte bound (0 = unbounded)")
	cacheDir := flag.String("cachedir", "", "disk cache directory (empty = memory-only); results persist across restarts in a schema-versioned subdirectory")
	cacheMaxBytes := flag.Int64("cachemaxbytes", 0, "disk cache byte budget (0 = unbounded); LRU result files are evicted when a write crosses it")
	cacheMaxEntries := flag.Int64("cachemaxentries", 0, "disk cache entry budget (0 = unbounded); LRU result files are evicted when a write crosses it")
	selfcheck := flag.Bool("selfcheck", false, "run an in-process smoke test (cold miss, then byte-equal cache hit; with -cachedir, also a restart warm hit) and exit")
	scaleOf := experiments.ScaleFlags(flag.CommandLine,
		experiments.SimScale{Workers: runtime.GOMAXPROCS(0)})
	workloadOf := experiments.WorkloadFlags(flag.CommandLine, traffic.Workload{})
	flag.Parse()
	scale := scaleOf()
	workload, err := workloadOf()
	if err != nil {
		log.Fatal("sweepd: ", err)
	}
	if workload.Process == "trace" {
		// The service content-addresses units by config alone; it has no
		// channel to materialize trace bytes, so replay stays batch-only.
		log.Fatal("sweepd: trace workloads are batch-only (use cmd/nocsim -trace)")
	}
	scale.Workload = workload

	opts := sweep.Options{
		Defaults:   scale,
		Workers:    scale.Workers,
		MaxEntries: *cacheEntries,
		MaxBytes:   *cacheBytes,
		CacheDir:   *cacheDir,

		DiskMaxBytes:   *cacheMaxBytes,
		DiskMaxEntries: *cacheMaxEntries,
	}
	srv, err := sweep.NewServer(opts)
	if err != nil {
		log.Fatal("sweepd: ", err)
	}
	defer srv.Close()

	if *selfcheck {
		if err := runSelfcheck(srv, opts); err != nil {
			fmt.Fprintln(os.Stderr, "sweepd selfcheck: FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("sweepd selfcheck: ok")
		return
	}

	cacheDesc := "memory-only"
	if *cacheDir != "" {
		cacheDesc = "disk " + srv.Disk().Dir()
	}
	log.Printf("sweepd: listening on %s (workers=%d, cache %d entries / %d MiB, %s, schema v%d)",
		*addr, scale.Workers, *cacheEntries, *cacheBytes>>20, cacheDesc, sweep.SchemaVersion)
	log.Fatal(http.ListenAndServe(*addr, handler(srv)))
}

// handler mounts the sweep endpoints plus the design-space-search and
// adaptive-curve job APIs (POST/GET/DELETE /pareto, /curve) on one mux.
// Both job services resolve every point through the same server, so a curve
// trace, a frontier search and a live /sweep client never run the same
// simulation twice.
func handler(srv *sweep.Server) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/pareto", dse.NewService(srv).Handler())
	mux.Handle("/curve", curve.NewService(srv).Handler())
	return mux
}

// runSelfcheck exercises the full endpoint stack against a live listener:
// one quick Fig. 13 point requested twice must simulate exactly once, with
// the second pass served entirely from the store and byte-equal to the
// first. With -cachedir set it additionally proves restart persistence: a
// brand-new server on the same directory must serve the whole request from
// disk without simulating. This is the CI endpoint smoke.
func runSelfcheck(srv *sweep.Server, opts sweep.Options) error {
	ts := httptest.NewServer(handler(srv))
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
	if got := srv.SimRuns(); got != 4 {
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
	ts2 := httptest.NewServer(handler(srv2))
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
