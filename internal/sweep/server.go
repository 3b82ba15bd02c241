package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// Request is the body of POST /sweep: a base unit plus optional expansion
// axes. The axes cross-multiply over the base — every listed switch
// allocator × speculation mode × pattern × seed × rate becomes one unit
// (an omitted axis keeps the base's own value) — and any explicitly listed
// Units are appended after the expansion. Unit order is deterministic:
// rates vary fastest, then seeds, processes, patterns, spec modes, and
// sa_archs slowest, so clients can index results positionally as well as by
// key.
type Request struct {
	// Base is the unit template; zero fields take schema defaults.
	Base UnitConfig `json:"base"`
	// SAArchs, SpecModes, Patterns, Processes, Seeds and Rates are the
	// expansion axes.
	SAArchs   []string  `json:"sa_archs,omitempty"`
	SpecModes []string  `json:"spec_modes,omitempty"`
	Patterns  []string  `json:"patterns,omitempty"`
	Processes []string  `json:"processes,omitempty"`
	Seeds     []uint64  `json:"seeds,omitempty"`
	Rates     []float64 `json:"rates,omitempty"`
	// Units are appended verbatim (each normalized independently).
	Units []UnitConfig `json:"units,omitempty"`
}

// MaxBodyBytes bounds the POST bodies of /sweep, /pareto and /curve, and
// MaxUnits what one /sweep request may expand to, the raw cross product of a
// /pareto spec and the max_points of a /curve spec. Both are far above
// anything the CLIs and the benchmark send (a 120-unit re-post is under
// 16 KiB; the full design space is 1 296 raw points).
const (
	MaxBodyBytes = 1 << 20
	MaxUnits     = 1 << 16
)

// DecodeBody decodes the JSON body of a service POST into v, refusing unknown
// fields, anything but whitespace after the one JSON value, and reading at
// most MaxBodyBytes. On failure it has written the response — 413 for an
// oversized body, 400 for a malformed one — and returns false. /pareto and
// /curve decode through it; /sweep scans its body first (decodeSweep).
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeJSON(w, http.MaxBytesReader(w, r.Body, MaxBodyBytes), v)
}

// decodeSweep decodes a /sweep body. It reads the body once, at most
// MaxBodyBytes of it, and hands it to scanRequest. A body the scanner
// declines, or one that did not read to its end, goes to DecodeBody's
// decoder, which reads the bytes read so far and then whatever the read
// stopped at: the byte stream DecodeBody would read. So every refusal keeps
// DecodeBody's status and message; an oversized body is a 413 only where the
// decoder reads past the limit, a 400 where it fails before. The value it
// reads is decoded as DecodeBody would decode it, but with its units bounded
// (boundUnits).
func decodeSweep(w http.ResponseWriter, r *http.Request) (Request, bool) {
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	var buf bytes.Buffer
	// ReadFrom reads while MinRead bytes are free, so a body of the declared
	// length fills one buffer.
	buf.Grow(int(min(max(r.ContentLength, 0), MaxBodyBytes)) + bytes.MinRead)
	if _, err := buf.ReadFrom(body); err == nil {
		if req, ok := scanRequest(buf.Bytes()); ok {
			return req, true
		}
	}
	var req Request
	var raw json.RawMessage
	dec := json.NewDecoder(io.MultiReader(bytes.NewReader(buf.Bytes()), body))
	err := dec.Decode(&raw)
	if err == nil {
		cut, units := boundUnits(raw)
		if units > 0 { // every units array sets the field, so only its capacity shows
			req.Units = make([]UnitConfig, 0, units)
		}
		strict := json.NewDecoder(bytes.NewReader(cut))
		strict.DisallowUnknownFields()
		err = strict.Decode(&req)
	}
	return req, answer(w, dec, err)
}

// decodeJSON is DecodeBody reading the body from rd.
func decodeJSON(w http.ResponseWriter, rd io.Reader, v any) bool {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	return answer(w, dec, dec.Decode(v))
}

// answer reports whether a JSON value was decoded from dec without err and
// with nothing but whitespace after it; if not, it writes the refusal.
func answer(w http.ResponseWriter, dec *json.Decoder, err error) bool {
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	http.Error(w, "bad request: "+err.Error(), code)
	return false
}

// CountUnits is the size of the cross product of axes of these lengths (an
// empty axis counts once), or MaxUnits+1 once that is exceeded: six 1000-long
// axes multiply to 10¹⁸, so the product is cut off before it can overflow and
// before anything is built or walked from it.
func CountUnits(axes ...int) int {
	n := 1
	for _, axis := range axes {
		if axis > MaxUnits/n {
			return MaxUnits + 1
		}
		if axis > 0 {
			n *= axis
		}
	}
	return n
}

// unitCount is the number of units the request expands to, cut off like CountUnits.
func (r Request) unitCount() int {
	n := CountUnits(len(r.SAArchs), len(r.SpecModes), len(r.Patterns), len(r.Processes), len(r.Seeds), len(r.Rates))
	return min(n+len(r.Units), MaxUnits+1)
}

// Expand flattens the request into its normalized, validated unit list. A
// request of more than MaxUnits units is refused before it is built.
func (r Request) Expand() ([]UnitConfig, error) {
	if r.unitCount() > MaxUnits {
		return nil, fmt.Errorf("sweep: request expands to more than %d units", MaxUnits)
	}
	archs := r.SAArchs
	if len(archs) == 0 {
		archs = []string{r.Base.SAArch}
	}
	modes := r.SpecModes
	if len(modes) == 0 {
		modes = []string{r.Base.SpecMode}
	}
	patterns := r.Patterns
	if len(patterns) == 0 {
		patterns = []string{r.Base.Pattern}
	}
	processes := r.Processes
	if len(processes) == 0 {
		processes = []string{r.Base.Process}
	}
	seeds := r.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{r.Base.Seed}
	}
	rates := r.Rates
	if len(rates) == 0 {
		rates = []float64{r.Base.Rate}
	}
	// Each unit is normalized once, here; validate and key take it as it is.
	units := make([]UnitConfig, 0, r.unitCount())
	for _, arch := range archs {
		for _, mode := range modes {
			for _, pat := range patterns {
				for _, proc := range processes {
					for _, seed := range seeds {
						for _, rate := range rates {
							u := r.Base
							u.SAArch, u.SpecMode, u.Pattern, u.Process, u.Seed, u.Rate = arch, mode, pat, proc, seed, rate
							units = append(units, u.Normalized())
						}
					}
				}
			}
		}
	}
	for _, u := range r.Units {
		units = append(units, u.Normalized())
	}
	for i := range units {
		if err := units[i].validate(); err != nil {
			return nil, fmt.Errorf("unit %d: %w", i, err)
		}
	}
	return units, nil
}

// UnitUpdate is one NDJSON line of a sweep response: the outcome of one
// unit. Result carries the cached bytes verbatim (json.RawMessage), so a
// hit is byte-equal to the miss that populated the store.
type UnitUpdate struct {
	// Index is the unit's position in the expanded request.
	Index int `json:"index"`
	// Key is the unit's content address.
	Key string `json:"key"`
	// Status is "hit" (served from the store), "miss" (this request ran
	// the simulation), "coalesced" (attached to another request's
	// in-flight simulation), "canceled", or "error".
	Status string `json:"status"`
	// Result is the marshaled UnitResult (absent on error/cancel).
	Result json.RawMessage `json:"result,omitempty"`
	// Error describes a failed unit.
	Error string `json:"error,omitempty"`
	// ElapsedNS is the service time for this unit within this request.
	ElapsedNS int64 `json:"elapsed_ns"`
}

// appendLine appends the NDJSON line of an update without an Error — a hit,
// a miss or a coalesced unit — to b: the bytes json.Encoder writes for it,
// with Result copied as it is. The encoder would compact Result and escape
// '<', '>', '&', U+2028 and U+2029 in it; the store holds only results in
// that form already (json.Marshal output, and disk loads brought to it by
// canonicalJSON), so copying is the same. FuzzSweepLine holds the two equal.
func appendLine(b []byte, upd *UnitUpdate) []byte {
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(upd.Index), 10)
	b = append(b, `,"key":`...)
	b = appendString(b, upd.Key)
	b = append(b, `,"status":`...)
	b = appendString(b, upd.Status)
	if len(upd.Result) > 0 {
		b = append(b, `,"result":`...)
		b = append(b, upd.Result...)
	}
	b = append(b, `,"elapsed_ns":`...)
	b = strconv.AppendInt(b, upd.ElapsedNS, 10)
	return append(b, "}\n"...)
}

// lineBytes bounds the bytes appendLine adds to a unit's key and result: the
// field names, the longest status and two 64-bit integers.
const lineBytes = len(`{"index":,"key":"","status":"coalesced","result":,"elapsed_ns":}`+"\n") + 2*20

// appendString appends s as a JSON string the way json.Encoder writes it. A
// key or a status is plain ASCII and is copied between quotes; anything else
// goes through json.Marshal, which escapes as the encoder does.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// SweepSummary is the final NDJSON line of a sweep response.
type SweepSummary struct {
	Done      bool  `json:"done"`
	Units     int   `json:"units"`
	Hits      int   `json:"hits"`
	Misses    int   `json:"misses"`
	Coalesced int   `json:"coalesced"`
	Errors    int   `json:"errors"`
	Canceled  int   `json:"canceled"`
	ElapsedNS int64 `json:"elapsed_ns"`
}

// Options configures a Server.
type Options struct {
	// Workers bounds concurrently running simulations (default
	// 1; sweepd passes GOMAXPROCS). With more than one, units follow the
	// idle workers: a unit runs on one shard until it has proved heavy and
	// the pool has a worker with nothing to do, splits in two around that
	// worker, and gives it back as soon as another unit waits for it (Pool,
	// sim.Network.BorrowHelpers).
	Workers int
	// MaxEntries / MaxBytes bound the result store (defaults 4096 entries,
	// 64 MiB).
	MaxEntries int
	MaxBytes   int64
	// CacheDir, when non-empty, adds a disk persistence tier under the
	// memory store: results are written through to content-addressed files
	// in a SchemaVersion-scoped subdirectory, so a restarted server (or a
	// second process sharing the directory) starts warm. Empty keeps the
	// original memory-only behavior.
	CacheDir string
	// DiskMaxEntries / DiskMaxBytes bound the disk tier: a write that
	// crosses either budget evicts least-recently-used result files until
	// the store fits again (sweepd's -cachemaxentries/-cachemaxbytes).
	// Zero leaves that axis unbounded — the disk tier's historical behavior.
	DiskMaxEntries int64
	DiskMaxBytes   int64
}

// Server implements the sweep service: POST /sweep streams per-unit NDJSON
// results through the store → coalescing → pool stack; GET /healthz and
// GET /statz report liveness and counters.
type Server struct {
	store    *Store
	disk     *DiskStore // nil when CacheDir is empty
	flight   *Group
	pool     *Pool
	unitConc int
	// lender is the pool when units follow its idle workers (more than one
	// worker), else nil.
	lender sim.Lender

	simRuns        atomic.Int64
	unitsDone      atomic.Int64
	requests       atomic.Int64
	parallelCycles atomic.Int64
	lateReturns    atomic.Int64
	unstarted      atomic.Int64

	execMu sync.Mutex
	exec   experiments.ExecStats
}

// NewServer builds a server; callers own its lifetime and should Close it.
// The only error source is opening the disk tier (CacheDir set but
// uncreatable).
func NewServer(opts Options) (*Server, error) {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.MaxEntries == 0 {
		opts.MaxEntries = 4096
	}
	if opts.MaxBytes == 0 {
		opts.MaxBytes = 64 << 20
	}
	var disk *DiskStore
	if opts.CacheDir != "" {
		var err error
		if disk, err = OpenDiskStoreBounded(opts.CacheDir, opts.DiskMaxEntries, opts.DiskMaxBytes); err != nil {
			return nil, err
		}
	}
	s := &Server{
		store:  NewStore(opts.MaxEntries, opts.MaxBytes),
		disk:   disk,
		flight: NewGroup(),
		pool:   NewPool(opts.Workers),
		// Per-request unit fan-out: hits and coalesced units are nearly
		// free, so it runs ahead of the pool.
		unitConc: 4 * opts.Workers,
	}
	if opts.Workers > 1 { // a lone worker never sees another one idle
		s.lender = s.pool
	}
	return s, nil
}

// Close stops the worker pool (in-flight tasks drain first).
func (s *Server) Close() { s.pool.Close() }

// SimRuns reports how many simulations the server has actually executed —
// the coalescing and cache tests assert against this counter.
func (s *Server) SimRuns() int64 { return s.simRuns.Load() }

// Exec adds up how the simulations the server has run were executed.
func (s *Server) Exec() experiments.ExecStats {
	s.execMu.Lock()
	defer s.execMu.Unlock()
	return s.exec
}

// Store exposes the result store (tests inspect eviction accounting).
func (s *Server) Store() *Store { return s.store }

// Disk exposes the disk tier, nil when the server is memory-only.
func (s *Server) Disk() *DiskStore { return s.disk }

// Handler returns the service mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/sweep", s.handleSweep)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	})
	mux.HandleFunc("/statz", s.handleStatz)
	return mux
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	poolDone, poolSkipped := s.pool.Stats()
	_, lent, recalled := s.pool.LendStats()
	stats := struct {
		SchemaVersion    int                   `json:"schema_version"`
		Requests         int64                 `json:"requests"`
		UnitsServed      int64                 `json:"units_served"`
		SimRuns          int64                 `json:"sim_runs"`
		InFlight         int                   `json:"in_flight"`
		PoolRunning      int64                 `json:"pool_running"`
		PoolDone         int64                 `json:"pool_done"`
		PoolSkipped      int64                 `json:"pool_skipped"`
		HelpersLent      int64                 `json:"helpers_lent"`
		HelpersRecalled  int64                 `json:"helpers_recalled"`
		HelpersLate      int64                 `json:"helpers_late"`      // loans a network ended because its helper ran late
		HelpersUnstarted int64                 `json:"helpers_unstarted"` // loans given back before the helper claimed a phase
		ParallelCycles   int64                 `json:"parallel_cycles"`
		Execution        experiments.ExecStats `json:"execution"`
		Store            StoreStats            `json:"store"`
		Disk             *DiskStats            `json:"disk,omitempty"`
	}{
		SchemaVersion:    SchemaVersion,
		Requests:         s.requests.Load(),
		UnitsServed:      s.unitsDone.Load(),
		SimRuns:          s.simRuns.Load(),
		InFlight:         s.flight.InFlight(),
		PoolRunning:      s.pool.Running(),
		PoolDone:         poolDone,
		PoolSkipped:      poolSkipped,
		HelpersLent:      lent,
		HelpersRecalled:  recalled,
		HelpersLate:      s.lateReturns.Load(),
		HelpersUnstarted: s.unstarted.Load(),
		ParallelCycles:   s.parallelCycles.Load(),
		Execution:        s.Exec(),
		Store:            s.store.Stats(),
	}
	if s.disk != nil {
		ds := s.disk.Stats()
		stats.Disk = &ds
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(stats)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.requests.Add(1)
	req, ok := decodeSweep(w, r)
	if !ok {
		return
	}
	units, err := req.Expand()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	ctx := r.Context()
	start := time.Now()
	summary := SweepSummary{Done: true, Units: len(units)}

	// Units a cache tier holds are answered first, in index order; the rest
	// wait. A hit costs its key and one store lookup.
	upds := make([]UnitUpdate, len(units))
	size, waiting := summaryBytes, 0
	for i := range units {
		unitStart := time.Now()
		upd := &upds[i]
		upd.Index, upd.Key = i, units[i].key()
		if b, ok := s.cacheGet(upd.Key); ok {
			upd.Status, upd.Result = "hit", b
			upd.ElapsedNS = time.Since(unitStart).Nanoseconds()
			size += lineBytes + len(upd.Key) + len(b)
		} else {
			waiting++
		}
	}

	// Lines collect in out and leave in as few writes as streaming allows: a
	// request the cache tiers answer completely is one write of known
	// length, from a buffer sized for it; otherwise the hits leave before the
	// first wait and every simulated unit as it completes. A line with a
	// result is written by appendLine, the rest by the encoder.
	var out bytes.Buffer
	out.Grow(size)
	enc := json.NewEncoder(&out)
	emit := func(upd *UnitUpdate) {
		switch upd.Status {
		case "hit":
			summary.Hits++
		case "miss":
			summary.Misses++
		case "coalesced":
			summary.Coalesced++
		case "error":
			summary.Errors++
		case "canceled":
			summary.Canceled++
		}
		s.unitsDone.Add(1)
		if upd.Error == "" {
			out.Write(appendLine(out.AvailableBuffer(), upd))
		} else {
			enc.Encode(upd)
		}
	}
	for i := range upds {
		if upds[i].Status == "hit" {
			emit(&upds[i])
		}
	}

	if waiting > 0 {
		flusher, _ := w.(http.Flusher)
		var mu sync.Mutex // guards out, enc, summary and w from here on
		send := func() {
			w.Write(out.Bytes())
			out.Reset()
			if flusher != nil {
				flusher.Flush()
			}
		}
		if out.Len() > 0 {
			send()
		}
		sem := make(chan struct{}, s.unitConc)
		var wg sync.WaitGroup
		for i := range upds {
			upd := &upds[i]
			if upd.Status != "" {
				continue
			}
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				unitStart := time.Now()
				if ctx.Err() != nil {
					upd.Status = "canceled"
					upd.Error = ctx.Err().Error()
				} else {
					data, status, err := s.serveUnit(ctx, units[upd.Index], upd.Key, true)
					upd.Status = status
					if err != nil {
						upd.Error = err.Error()
					} else {
						upd.Result = data
					}
				}
				upd.ElapsedNS = time.Since(unitStart).Nanoseconds()
				mu.Lock()
				defer mu.Unlock()
				emit(upd)
				send()
			}()
		}
		wg.Wait()
	}
	summary.ElapsedNS = time.Since(start).Nanoseconds()
	enc.Encode(summary)
	if waiting == 0 {
		w.Header().Set("Content-Length", strconv.Itoa(out.Len()))
	}
	w.Write(out.Bytes())
}

// summaryBytes bounds the encoded summary line: its field names and seven
// integers of up to 20 digits.
const summaryBytes = len(`{"done":true,"units":,"hits":,"misses":,"coalesced":,"errors":,"canceled":,"elapsed_ns":}`+"\n") + 7*20

// serveUnit resolves one unit through the perf layers: memory store, disk
// tier (promoting a disk hit into memory), in-flight coalescing, then a
// pooled simulation on a true miss. The returned bytes come from the store
// (or the computation that populated it) verbatim. A caller that has just
// looked the unit up in the cache tiers and not found it says so with probed,
// and the tiers are not asked a second time on the way in.
//
// This stays one function on purpose. EvalUnit's callers run one goroutine
// per unit, and this frame (the closure below holds u) grows that goroutine's
// stack once, early, while it is two frames deep; with the flight half split
// off the growth happened inside the JSON decoder of a disk hit instead, and
// a disk-warm curve trace measured 14 % slower.
func (s *Server) serveUnit(ctx context.Context, u UnitConfig, key string, probed bool) (data []byte, status string, err error) {
	if !probed {
		if b, ok := s.cacheGet(key); ok {
			return b, "hit", nil
		}
	}
	val, err, leader := s.flight.Do(ctx, key, func(runCtx context.Context) ([]byte, error) {
		// Re-check under coalescing: a previous leader may have populated
		// the store between our Get and the flight admission.
		if b, ok := s.cacheGet(key); ok {
			return b, nil
		}
		var res UnitResult
		var runErr error
		poolErr := s.pool.Run(runCtx, func(simCtx context.Context) {
			s.simRuns.Add(1)
			var st RunStats
			res, st, runErr = RunUnit(simCtx, u, s.lender)
			s.parallelCycles.Add(st.Parallel.Concurrent)
			s.lateReturns.Add(st.Parallel.LateReturns)
			s.unstarted.Add(st.Parallel.Unstarted)
			s.execMu.Lock()
			s.exec.Add(st.Exec)
			s.execMu.Unlock()
		})
		if poolErr != nil {
			return nil, poolErr
		}
		if runErr != nil {
			return nil, runErr
		}
		b, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		s.store.Put(key, b)
		if s.disk != nil {
			s.disk.Put(key, b)
		}
		return b, nil
	})
	switch {
	case err != nil && ctx.Err() != nil:
		return nil, "canceled", err
	case err != nil:
		return nil, "error", err
	case leader:
		return val, "miss", nil
	default:
		return val, "coalesced", nil
	}
}

// cacheGet checks the memory tier, then the disk tier; a disk hit is
// promoted into memory so repeats stay at memory-hit cost.
func (s *Server) cacheGet(key string) ([]byte, bool) {
	if b, ok := s.store.Get(key); ok {
		return b, true
	}
	if s.disk == nil {
		return nil, false
	}
	b, ok := s.disk.Get(key)
	if ok {
		s.store.Put(key, b)
	}
	return b, ok
}

// Evaluator resolves one simulation unit. A search or a curve trace given a
// *Server shares its caches, coalescing and worker pool with /sweep traffic.
type Evaluator interface {
	EvalUnit(ctx context.Context, u UnitConfig) (UnitResult, error)
}

var _ Evaluator = (*Server)(nil)

// EvalUnit normalizes one unit from its own fields and the schema defaults,
// resolves it through the full cache → coalescing → pool stack and
// unmarshals the result. This is the embedding
// API the design-space search and the curve tracer use: a search and a live
// /sweep client never run the same simulation twice.
func (s *Server) EvalUnit(ctx context.Context, u UnitConfig) (UnitResult, error) {
	u = u.Normalized()
	if err := u.validate(); err != nil {
		return UnitResult{}, err
	}
	key := u.key()
	data, _, err := s.serveUnit(ctx, u, key, false)
	if err != nil {
		return UnitResult{}, err
	}
	var res UnitResult
	if err := json.Unmarshal(data, &res); err != nil {
		return UnitResult{}, fmt.Errorf("sweep: stored result for %s: %w", key, err)
	}
	return res, nil
}
