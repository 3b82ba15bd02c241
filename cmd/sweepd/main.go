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
//
// As for the other commands, a bad flag or a positional argument is a usage
// error (exit 2), and -h prints the flags.
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
// Those, -addr, -workers, -cache-entries and -cache-bytes are all of its
// flags, and none of them changes a result: a unit is exactly what its
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
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/curve"
	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/sweep"
)

func main() {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	cfg, code, ok := parseFlags(fs, os.Args[1:])
	if !ok {
		os.Exit(code)
	}
	opts := cfg.opts
	srv, err := sweep.NewServer(opts)
	if err != nil {
		log.Fatal("sweepd: ", err)
	}
	defer srv.Close()

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
	addr string
	opts sweep.Options
}

// parseFlags registers sweepd's flags on fs — the listen address, the worker
// pool width and the memory and disk cache bounds — and parses args with
// experiments.ParseArgs: when ok is false, sweepd exits with code, 0 after -h
// and 2 after a usage error.
func parseFlags(fs *flag.FlagSet, args []string) (c config, code int, ok bool) {
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.IntVar(&c.opts.Workers, "workers", runtime.GOMAXPROCS(0), "worker pool width: simulations run at once across all requests (an idle worker is lent to a heavy unit as its second shard)")
	fs.IntVar(&c.opts.MaxEntries, "cache-entries", 4096, "result store entry bound (negative = unbounded)")
	fs.Int64Var(&c.opts.MaxBytes, "cache-bytes", 64<<20, "result store byte bound (negative = unbounded)")
	fs.StringVar(&c.opts.CacheDir, "cachedir", "", "disk cache directory (empty = memory-only); results persist across restarts in a schema-versioned subdirectory")
	fs.Int64Var(&c.opts.DiskMaxBytes, "cachemaxbytes", 0, "disk cache byte budget (0 = unbounded); LRU result files are evicted when a write crosses it")
	fs.Int64Var(&c.opts.DiskMaxEntries, "cachemaxentries", 0, "disk cache entry budget (0 = unbounded); LRU result files are evicted when a write crosses it")
	code, ok = experiments.ParseArgs(fs, args)
	return c, code, ok
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
