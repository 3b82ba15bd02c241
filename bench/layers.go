package main

// This is the only file of the benchmark that imports the repository's
// packages; everything else speaks to the built programs. It replays
// generated operations in-process, with a span around each call into a
// package's exported functions, and times fixed probes of single layers.
//
// It keeps to symbols the fast-path audit and the job-layer merge (ROADMAP
// items 2 and 3) are not expected to remove: the simulator's execution mode
// comes from experiments.DefaultScale(), and nothing here names a reference
// execution path, a masked or incremental allocator, a shared-precompute
// cache, a context-less experiment twin or a job service.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/curve"
	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/quality"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// simReplay is the in-process outcome of one simulation workload's prefix.
type simReplay struct {
	results       []unitResult
	cycles, flits float64
}

// replayOut is what one in-process replay of the traced operations produced.
type replayOut struct {
	sim     []simReplay
	quality [][]byte   // FormatSeries table per invocation
	service [][][]byte // result bytes per request, per unit
	// counts are the counters behind per-layer metrics, already under the
	// metrics' names. Those marked exact repeat for one seed; the store's
	// hit ratios and evictions do not quite, because the units of one batch
	// request touch the LRU in the order the pool finishes them.
	counts           map[string]float64
	failures         []string
	allocBytesPerSim float64
	wall             time.Duration
}

// replay works through the traced operations in-process, one at a time.
func replay(e *env, tr *tracer, ops tracedOps) (*replayOut, error) {
	out := &replayOut{counts: map[string]float64{}}
	t0 := time.Now()

	var leapt, specUsed, misspec, masked int64
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	allocBefore, units := mem.TotalAlloc, 0
	for _, so := range ops.sim {
		var sr simReplay
		for op, body := range so.bodies {
			res, skipped, err := simUnit(tr, so.name, op, body)
			if err != nil {
				return nil, err
			}
			if so.name == "sim_lowload" {
				leapt += skipped
			} else {
				specUsed, misspec, masked = specUsed+res.SpecGrantsUsed, misspec+res.Misspeculations, masked+res.SpecMasked
			}
			sr.results = append(sr.results, unitResult{
				Latency: res.AvgLatency, Cycles: res.Cycles, Unfinished: res.Unfinished, FlitsDelivered: res.FlitsDelivered,
			})
			sr.cycles += float64(res.Cycles)
			sr.flits += float64(res.FlitsDelivered)
			units++
		}
		out.sim = append(out.sim, sr)
	}
	runtime.ReadMemStats(&mem)
	out.allocBytesPerSim = float64(mem.TotalAlloc-allocBefore) / float64(units)
	out.counts["sim.cycles"] = out.sim[0].cycles + out.sim[1].cycles
	out.counts["sim.flits_delivered"] = out.sim[0].flits + out.sim[1].flits
	out.counts["sim.leapt_cycle_ratio"] = float64(leapt) / out.sim[0].cycles
	out.counts["router.misspec_ratio"] = float64(misspec) / float64(specUsed+misspec)
	out.counts["router.spec_masked"] = float64(masked)

	for op, q := range ops.quality {
		table, err := qualityTable(tr, op, q)
		if err != nil {
			return nil, err
		}
		out.quality = append(out.quality, table)
	}

	if err := replayService(e, tr, ops, out); err != nil {
		return nil, err
	}
	if err := replaySearch(e, tr, ops, out); err != nil {
		return nil, err
	}
	out.wall = time.Since(t0)
	return out, nil
}

// simUnit runs one generated POST /sweep body the way sweepd does, as
// experiments.BuildSim -> sim.New -> (*Network).Run, in the default
// execution mode.
func simUnit(tr *tracer, workload string, op int, body []byte) (res sim.Result, leapt int64, err error) {
	root := tr.begin(workload, op)
	defer tr.end(root)
	var req sweep.Request
	if err := json.Unmarshal(body, &req); err != nil {
		return res, 0, err
	}
	units, err := req.Expand()
	if err != nil || len(units) != 1 {
		return res, 0, fmt.Errorf("%s op %d: expands to %d units: %v", workload, op, len(units), err)
	}
	u := units[0]
	pt, err := experiments.PointByName(u.Topo, u.VCsPerClass)
	if err != nil {
		return res, 0, err
	}
	scale := experiments.DefaultScale()
	scale.Warmup, scale.Measure, scale.Drain, scale.Seed = u.Warmup, u.Measure, u.Drain, u.Seed
	scale.Workload = traffic.Workload{
		Process: u.Process, Pattern: u.Pattern, BurstLen: u.BurstLen, Duty: u.Duty,
		Hotspots: u.Hotspots, HotspotFraction: u.HotspotFraction,
	}

	id := tr.begin("experiments.BuildSim", op)
	cfg := experiments.BuildSim(pt, u.Rate, scale)
	tr.end(id)
	cfg.VA.Arch, _ = sweep.ParseArch(u.VAArch) // Expand validated the names
	cfg.VA.ArbKind, _ = sweep.ParseArb(u.VAArb)
	cfg.VA.Sparse = u.VASparse
	cfg.SA.Arch, _ = sweep.ParseArch(u.SAArch)
	cfg.SA.ArbKind, _ = sweep.ParseArb(u.SAArb)
	cfg.SA.SpecMode, _ = sweep.ParseSpecMode(u.SpecMode)
	cfg.BufDepth = u.BufDepth
	cfg.ReadFraction = u.ReadFraction

	id = tr.begin("sim.New", op)
	net := sim.New(cfg)
	tr.end(id)
	defer net.Close()
	id = tr.begin("sim.Run", op)
	res = net.Run()
	tr.end(id)
	_, leapt = net.LeapStats()
	return res, leapt, nil
}

// qualityTable computes what one matchquality invocation prints below its
// title line.
func qualityTable(tr *tracer, op int, q qualityOp) ([]byte, error) {
	root := tr.begin("quality_openloop", op)
	defer tr.end(root)
	pt, err := experiments.PointByName(q.class.topo, q.class.c)
	if err != nil {
		return nil, err
	}
	archs := []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront}
	var series []quality.Series
	if q.class.unit == "vc" {
		var cfgs []core.VCAllocConfig
		for _, a := range archs {
			cfgs = append(cfgs, core.VCAllocConfig{Ports: pt.Ports, Spec: pt.Spec, Arch: a, ArbKind: arbiter.RoundRobin})
		}
		id := tr.begin("quality.VCSeriesMulti", op)
		series = quality.VCSeriesMulti(cfgs, quality.DefaultRates(), q.class.trials, q.seed, 1)
		tr.end(id)
	} else {
		var cfgs []core.SwitchAllocConfig
		for _, a := range archs {
			cfgs = append(cfgs, core.SwitchAllocConfig{Ports: pt.Ports, VCs: pt.Spec.V(), Arch: a, ArbKind: arbiter.RoundRobin})
		}
		id := tr.begin("quality.SwitchSeriesMulti", op)
		series = quality.SwitchSeriesMulti(cfgs, quality.DefaultRates(), q.class.trials, q.seed, 1)
		tr.end(id)
	}
	return []byte(quality.FormatSeries(series)), nil
}

// newServer builds the in-process counterpart of
// `sweepd -workers W -cachedir dir -cache-entries entries`. Its execution
// hints stay at their zero value so that no individual mode is named here;
// sweepd's own default differs only by event leaping, which changes no
// result and, at the loads the service and search operations simulate
// (0.01 and up), no timing beyond run-to-run noise.
func newServer(dir string, entries int) (*sweep.Server, error) {
	return sweep.NewServer(sweep.Options{Workers: workers(), MaxEntries: entries, CacheDir: dir})
}

// serve sends one POST /sweep body through the handler.
func serve(h http.Handler, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

var kindNames = map[reqKind]string{kindHit: "hit", kindBatch: "batch", kindCold: "cold"}

// replayService warms the catalogue on a fresh cachedir and replays client
// 0's schedule through Handler().ServeHTTP, one request at a time.
func replayService(e *env, tr *tracer, ops tracedOps, out *replayOut) error {
	dir, err := e.tempDir("replay-service-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, err := newServer(dir, catalogueEntry)
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	for _, body := range ops.warm {
		if code, resp := serve(h, body); code != http.StatusOK {
			return fmt.Errorf("in-process catalogue warm-up: status %d: %s", code, resp)
		}
	}
	store0, disk0, runs0 := srv.Store().Stats(), srv.Disk().Stats(), srv.SimRuns()
	for i, op := range ops.service {
		root := tr.begin("service_mixed/"+kindNames[op.kind], i)
		id := tr.begin("sweep.Handler", i)
		code, resp := serve(h, op.body)
		tr.end(id)
		tr.end(root)
		var results [][]byte
		ups, err := parseSweep(resp, op.units)
		if code != http.StatusOK || err != nil {
			out.failures = append(out.failures, fmt.Sprintf("in-process service request %d: status %d: %v", i, code, err))
		}
		for _, u := range ups {
			results = append(results, u.Result)
		}
		out.service = append(out.service, results)
	}
	store1, disk1 := srv.Store().Stats(), srv.Disk().Stats()
	memHits, memMisses := store1.Hits-store0.Hits, store1.Misses-store0.Misses
	diskHits, diskMisses := disk1.Hits-disk0.Hits, disk1.Misses-disk0.Misses
	out.counts["sweep.mem_hit_ratio"] = float64(memHits) / float64(memHits+memMisses)
	out.counts["sweep.disk_hit_ratio"] = float64(diskHits) / float64(diskHits+diskMisses)
	out.counts["sweep.sim_runs"] = float64(srv.SimRuns() - runs0)
	out.counts["sweep.store_evictions"] = float64(store1.Evictions - store0.Evictions)
	out.counts["sweep.disk_load_errors"] = float64(disk1.LoadErrors - disk0.LoadErrors)
	return nil
}

// replaySearch runs each cycle's jobs as dse.Search and curve.TraceCurve
// against a server on a fresh cachedir (cold), then against a new server on
// the same directory (warm). One search worker keeps the simulated and
// pruned counts a function of the problem alone.
func replaySearch(e *env, tr *tracer, ops tracedOps, out *replayOut) error {
	var simulated, pruned, feasible, points int
	var knee float64
	pass := func(kind string, cycle int, dir string, jobs []searchJob) ([]string, int64, error) {
		srv, err := newServer(dir, 0)
		if err != nil {
			return nil, 0, err
		}
		defer srv.Close()
		root := tr.begin("search_jobs/"+kind, cycle)
		defer tr.end(root)
		var results []string
		for _, j := range jobs {
			var res any
			if j.path == "/pareto" {
				var spec dse.Spec
				if err := json.Unmarshal(j.body, &spec); err != nil {
					return nil, 0, err
				}
				if kind == "cold" {
					id := tr.begin("dse.Enumerate", cycle)
					_, err := dse.Enumerate(spec)
					tr.end(id)
					if err != nil {
						return nil, 0, err
					}
				}
				id := tr.begin("dse.Search", cycle)
				r, err := dse.Search(context.Background(), srv, spec, dse.SearchOptions{Workers: 1})
				tr.end(id)
				if err != nil {
					return nil, 0, err
				}
				if kind == "cold" {
					simulated, pruned, feasible = simulated+r.Simulated, pruned+r.Pruned, feasible+r.Feasible
				}
				res = r
			} else {
				var spec curve.Spec
				if err := json.Unmarshal(j.body, &spec); err != nil {
					return nil, 0, err
				}
				id := tr.begin("curve.TraceCurve", cycle)
				t, err := curve.TraceCurve(context.Background(), srv, spec, curve.Options{Workers: 1})
				tr.end(id)
				if err != nil {
					return nil, 0, err
				}
				if kind == "cold" {
					points += t.Simulated
					knee += t.KneeRate
				}
				res = t
			}
			b, err := json.Marshal(res)
			if err != nil {
				return nil, 0, err
			}
			results = append(results, string(b))
		}
		return results, srv.SimRuns(), nil
	}
	for cycle, jobs := range ops.search {
		dir, err := e.tempDir("replay-search-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cold, _, err := pass("cold", cycle, dir, jobs)
		if err != nil {
			return err
		}
		warm, runs, err := pass("warm", cycle, dir, jobs)
		if err != nil {
			return err
		}
		if runs != 0 || !slices.Equal(warm, cold) {
			out.failures = append(out.failures, fmt.Sprintf("in-process search cycle %d: warm pass simulated %d units or changed a result", cycle, runs))
		}
	}
	out.counts["dse.simulated"] = float64(simulated)
	out.counts["dse.pruned_ratio"] = float64(pruned) / float64(feasible)
	out.counts["curve.points_simulated"] = float64(points)
	out.counts["curve.knee_rate"] = knee / float64(2*len(ops.search)) // mean over the traced curves
	return nil
}

// probeNS times batches of n calls of f and returns the per-call time of
// each batch, in ns.
func probeNS(n int, f func(i int)) sample {
	const batches = 15
	var s sample
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(b*n + i)
		}
		s = append(s, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return s
}

// fixedRoute sends every packet to one output port in resource class 0.
type fixedRoute struct{ port int }

func (fixedRoute) Name() string         { return "fixed" }
func (fixedRoute) ResourceClasses() int { return 1 }
func (fixedRoute) Inject(int, *routing.PacketRoute, routing.QueueEstimator, *xrand.Source) {
}
func (f fixedRoute) NextHop(int, *routing.PacketRoute) (int, int) { return f.port, 0 }

// probeRouter times Step on a standalone 4-port router with 2x1x2 VCs whose
// every packet leaves through port 3: fed on all four inputs the router is
// backed up behind that port, fed on one it trickles. It returns ns per
// accept/Step/credit cycle and heap allocations per cycle.
func probeRouter(fedPorts int) (sample, float64) {
	r := router.New(router.Config{
		Ports: 4, Spec: core.NewVCSpec(2, 1, 2), BufDepth: 8, Routing: fixedRoute{3},
		VA: core.VCAllocConfig{Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin},
		SA: core.SwitchAllocConfig{Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin, SpecMode: core.SpecReq},
	})
	var flits []*router.Flit
	for i := 0; i < 32; i++ {
		typ := traffic.ReadRequest
		flits = append(flits, router.MakeFlits(&router.Packet{
			ID: int64(i), Type: typ, Size: typ.Flits(), Route: routing.PacketRoute{Intermediate: -1},
		})[0])
	}
	next := 0
	cycle := func(int) {
		for port := 0; port < fedPorts; port++ {
			if r.InputOccupancy(port, 0) < 4 {
				r.AcceptFlit(port, 0, flits[next%len(flits)])
				next++
			}
		}
		deps, _ := r.Step()
		for _, d := range deps {
			r.AcceptCredit(d.OutPort, d.OutVC)
		}
	}
	for i := 0; i < 200; i++ { // reach steady state
		cycle(i)
	}
	const n = 20000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := probeNS(n, cycle)
	runtime.ReadMemStats(&after)
	// Rounded to 1/100 so that the timing loop's own few allocations vanish
	// and the count repeats exactly.
	return s, math.Round(float64(after.Mallocs-before.Mallocs)/(15*n)*100) / 100
}

// probePoints are the design points the allocator probes run at.
var probePoints = []struct {
	topo string
	c    int
}{{"mesh", 2}, {"fbfly", 2}}

var probeArchs = []struct {
	name string
	arch alloc.Arch
}{{"sep_if", alloc.SepIF}, {"wf", alloc.Wavefront}}

const probePool = 64 // pre-generated request sets a probe cycles through

// probeCore times dense Allocate of the VC and switch allocators on request
// sets drawn at rate 0.5 from the matching-quality generators, and counts
// grants against requests over one pass of the pool.
func probeCore(seed uint64, rep *layerReport) error {
	var vcGrants, vcReqs, swGrants, swReqs int
	for _, pp := range probePoints {
		pt, err := experiments.PointByName(pp.topo, pp.c)
		if err != nil {
			return err
		}
		vw := quality.NewVCWorkload(pt.Ports, pt.Spec, seed)
		sw := quality.NewSwitchWorkload(pt.Ports, pt.Spec.V(), seed)
		var vcPool [][]core.VCRequest
		var swPool [][]core.SwitchRequest
		for i := 0; i < probePool; i++ {
			vcPool = append(vcPool, append([]core.VCRequest(nil), vw.Next(0.5)...))
			swPool = append(swPool, append([]core.SwitchRequest(nil), sw.Next(0.5)...))
		}
		for _, pa := range probeArchs {
			va := core.NewVCAllocator(core.VCAllocConfig{Ports: pt.Ports, Spec: pt.Spec, Arch: pa.arch, ArbKind: arbiter.RoundRobin})
			for _, reqs := range vcPool {
				for i, g := range va.Allocate(reqs) {
					if reqs[i].Active {
						vcReqs++
					}
					if g >= 0 {
						vcGrants++
					}
				}
			}
			name := fmt.Sprintf("core.vcalloc_%s_%s_ns", pp.topo, pa.name)
			rep.Metrics[name] = rep.timing(name, probeNS(2000, func(i int) { va.Allocate(vcPool[i%probePool]) }), "ns")

			sa := core.NewSwitchAllocator(core.SwitchAllocConfig{Ports: pt.Ports, VCs: pt.Spec.V(), Arch: pa.arch, ArbKind: arbiter.RoundRobin})
			for _, reqs := range swPool {
				requesting := make([]bool, pt.Ports)
				for i, r := range reqs {
					requesting[i/pt.Spec.V()] = requesting[i/pt.Spec.V()] || r.Active
				}
				for p, g := range sa.Allocate(reqs) {
					if requesting[p] {
						swReqs++
					}
					if g.VC >= 0 {
						swGrants++
					}
				}
			}
			name = fmt.Sprintf("core.swalloc_%s_%s_ns", pp.topo, pa.name)
			rep.Metrics[name] = rep.timing(name, probeNS(5000, func(i int) { sa.Allocate(swPool[i%probePool]) }), "ns")
		}
	}
	rep.Metrics["core.vc_grant_ratio"] = float64(vcGrants) / float64(vcReqs)
	rep.Metrics["core.sw_grant_ratio"] = float64(swGrants) / float64(swReqs)
	return nil
}

// probeAlloc times the matrix allocators on 16x16 request matrices of
// density 0.5.
func probeAlloc(seed uint64, rep *layerReport) {
	rng := rand.New(rand.NewSource(int64(seed)))
	var pool []*bitvec.Matrix
	for i := 0; i < probePool; i++ {
		m := bitvec.NewMatrix(16, 16)
		for r := 0; r < 16; r++ {
			for c := 0; c < 16; c++ {
				m.SetTo(r, c, rng.Intn(2) == 0)
			}
		}
		pool = append(pool, m)
	}
	for name, a := range map[string]alloc.Allocator{
		"alloc.maximum_ns":   alloc.NewMaximum(16, 16),
		"alloc.wavefront_ns": alloc.NewWavefront(16, 16),
		"alloc.sep_if_ns":    alloc.New(alloc.Config{Arch: alloc.SepIF, Rows: 16, Cols: 16, ArbKind: arbiter.RoundRobin}),
	} {
		rep.Metrics[name] = rep.timing(name, probeNS(2000, func(i int) { a.Allocate(pool[i%probePool]) }), "ns")
	}
}

// probeSweep times the service's layers one at a time on catalogue results:
// the content key, the memory store, the disk tier, and EvalUnit answered
// from memory, from disk and by the simulator.
func probeSweep(e *env, seed uint64, catalogue [][]byte, rep *layerReport) error {
	n := min(len(catalogue), 128)
	units := make([]sweep.UnitConfig, n)
	keys := make([]string, n)
	for i := range units {
		var res sweep.UnitResult
		if err := json.Unmarshal(catalogue[i], &res); err != nil {
			return err
		}
		units[i], keys[i] = res.Config, res.Key
	}
	m := rep.Metrics
	m["sweep.key_us"] = rep.timing("sweep.key_us", probeNS(500, func(i int) { units[i%n].Key() }), "us")

	store := sweep.NewStore(n/2, 0)
	m["sweep.store_put_ns"] = rep.timing("sweep.store_put_ns", probeNS(5000, func(i int) { store.Put(keys[i%n], catalogue[i%n]) }), "ns")
	m["sweep.store_get_ns"] = rep.timing("sweep.store_get_ns", probeNS(5000, func(i int) { store.Get(keys[n/2+i%(n/2)]) }), "ns")

	dir, err := e.tempDir("probe-sweep-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := sweep.OpenDiskStore(dir)
	if err != nil {
		return err
	}
	m["sweep.disk_put_us"] = rep.timing("sweep.disk_put_us", probeNS(n, func(i int) { disk.Put(keys[i%n], catalogue[i%n]) }), "us")
	m["sweep.disk_get_us"] = rep.timing("sweep.disk_get_us", probeNS(n, func(i int) { disk.Get(keys[i%n]) }), "us")
	if st := disk.Stats(); st.WriteErrors != 0 || st.LoadErrors != 0 || st.Misses != 0 {
		rep.check(fmt.Errorf("disk probe: %+v", st))
	}

	// A server on the directory the probe just filled: the first EvalUnit
	// of a unit is answered from disk and promoted, every later one from
	// memory.
	srv, err := newServer(dir, 0)
	if err != nil {
		return err
	}
	defer srv.Close()
	ctx := context.Background()
	evalEach := func(us []sweep.UnitConfig) (sample, error) {
		var s sample
		for _, u := range us {
			t0 := time.Now()
			_, err := srv.EvalUnit(ctx, u)
			s = append(s, float64(time.Since(t0).Nanoseconds()))
			if err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	fromDisk, err := evalEach(units)
	if err != nil {
		return err
	}
	fromMemory, err := evalEach(units)
	if err != nil {
		return err
	}
	var coldUnits []sweep.UnitConfig
	for i := 0; i < 20; i++ {
		u := units[0]
		u.Rate, u.Seed = coldUnit.Rate, unitSeed(seed, i, classProbe)
		coldUnits = append(coldUnits, u.Normalized())
	}
	missed, err := evalEach(coldUnits)
	if err != nil {
		return err
	}
	if runs := srv.SimRuns(); runs != int64(len(coldUnits)) {
		rep.check(fmt.Errorf("EvalUnit probe simulated %d units, want %d (disk and memory passes must simulate none)", runs, len(coldUnits)))
	}
	m["sweep.eval_disk_us"] = rep.timing("sweep.eval_disk_us", fromDisk, "us")
	m["sweep.eval_hit_us"] = rep.timing("sweep.eval_hit_us", fromMemory, "us")
	m["sweep.eval_miss_ms"] = rep.timing("sweep.eval_miss_ms", missed, "ms")

	// Eight identical concurrent cold units must cost one simulation.
	u := coldUnits[0]
	u.Seed = unitSeed(seed, len(coldUnits), classProbe)
	u = u.Normalized()
	before := srv.SimRuns()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = srv.EvalUnit(ctx, u)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	m["sweep.coalesce_sim_runs"] = float64(srv.SimRuns() - before)
	return nil
}

// runProbes fills the per-layer metrics that come from fixed probes.
func runProbes(e *env, seed uint64, catalogue [][]byte, rep *layerReport) error {
	m := rep.Metrics
	sat, satAllocs := probeRouter(4)
	idle, idleAllocs := probeRouter(1)
	m["router.step_sat_ns"] = rep.timing("router.step_sat_ns", sat, "ns")
	m["router.step_idle_ns"] = rep.timing("router.step_idle_ns", idle, "ns")
	m["router.step_allocs"] = satAllocs + idleAllocs

	if err := probeCore(seed, rep); err != nil {
		return err
	}
	probeAlloc(seed, rep)

	pt, err := experiments.PointByName("fbfly", 2)
	if err != nil {
		return err
	}
	gen := quality.NewVCWorkload(pt.Ports, pt.Spec, seed)
	m["quality.gen_ns"] = rep.timing("quality.gen_ns", probeNS(5000, func(int) { gen.Next(0.5) }), "ns")

	tech := costmodel.Default45nm()
	vc := core.VCAllocConfig{Ports: pt.Ports, Spec: pt.Spec, Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin}
	sw := core.SwitchAllocConfig{Ports: pt.Ports, VCs: pt.Spec.V(), Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin, SpecMode: core.SpecReq}
	m["costmodel.estimate_us"] = rep.timing("costmodel.estimate_us", probeNS(200, func(int) {
		costmodel.Combine(costmodel.VCAllocCost(tech, vc), costmodel.SwitchAllocCost(tech, sw))
	}), "us")

	return probeSweep(e, seed, catalogue, rep)
}
