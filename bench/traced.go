package main

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"sort"
	"time"
)

// The traced run gives the per-layer numbers. It is one pass over every
// layer, whichever --workload is named: a prefix of each workload's generated
// operations is (1) sent through the process surface, (2) replayed in-process
// with a span around every call into a repository package, and (3) replayed
// in-process again with tracing off; then fixed probes time the layers the
// replays only reach indirectly. (1) against (2) is the cross-surface check,
// (2) against (3) the tracing overhead. End-to-end metrics are never taken
// from a traced run.

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the index of the span that caused this one, -1 for the
// operation's root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written once, when the run ends.
// The replay is serial, so the open spans form a stack. A nil tracer records
// nothing: that is the untraced replay.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, op int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// root returns the name of the span's outermost ancestor: the operation
// kind, e.g. "sim_lowload" or "search_jobs/warm".
func (t *tracer) root(i int) string {
	for t.spans[i].Parent >= 0 {
		i = t.spans[i].Parent
	}
	return t.spans[i].Name
}

// under returns the durations in ns of every span called name inside an
// operation of kind root (name == root selects the roots themselves).
func (t *tracer) under(root, name string) sample {
	var s sample
	for i, sp := range t.spans {
		if sp.Name == name && t.root(i) == root {
			s = append(s, float64(sp.End-sp.Start))
		}
	}
	return s
}

// selfRow is one line of the self-time table: a span name inside one
// operation kind, its total time and the part not covered by child spans.
type selfRow struct {
	Root    string  `json:"root"`
	Name    string  `json:"name"`
	N       int     `json:"n"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes computes, per (operation kind, span name), total and self time:
// a span's self time is its duration minus its children's. Within one
// operation the self times add up to the root span exactly; the root's own
// self time is what the spans leave unattributed.
func (t *tracer) selfTimes() []selfRow {
	child := make([]int64, len(t.spans))
	for _, sp := range t.spans {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	rows := map[[2]string]*selfRow{}
	var order [][2]string
	for i, sp := range t.spans {
		k := [2]string{t.root(i), sp.Name}
		r := rows[k]
		if r == nil {
			r = &selfRow{Root: k[0], Name: k[1]}
			rows[k] = r
			order = append(order, k)
		}
		r.N++
		r.TotalMS += float64(sp.End-sp.Start) / 1e6
		r.SelfMS += float64(sp.End-sp.Start-child[i]) / 1e6
	}
	out := make([]selfRow, len(order))
	for i, k := range order {
		out[i] = *rows[k]
	}
	return out
}

// tracedSizes is how much of each workload the traced run repeats: at the
// default --seconds the first 20 / 10 / 10 rounds, 2 000 requests and 2
// cycles, scaled with --seconds and never less than one.
type tracedSizes struct {
	LowloadRounds    int `json:"sim_lowload_rounds"`
	SaturationRounds int `json:"sim_saturation_rounds"`
	QualityRounds    int `json:"quality_openloop_rounds"`
	ServiceRequests  int `json:"service_mixed_requests"`
	SearchCycles     int `json:"search_jobs_cycles"`
}

func tracedSizesFor(seconds float64) tracedSizes {
	scale := func(n int) int { return max(int(float64(n)*seconds/defaultSeconds+0.5), 1) }
	return tracedSizes{scale(20), scale(10), scale(10), scale(2000), scale(2)}
}

// simOps is the prefix of a simulation workload as request bodies, round
// after round, class after class.
type simOps struct {
	name   string
	bodies [][]byte
	drains []bool
}

// serviceOp is one scheduled service_mixed request with its body.
type serviceOp struct {
	serviceReq
	units  int
	status string
	body   []byte
}

// qualityOp is one matchquality invocation.
type qualityOp struct {
	class qualityClass
	seed  uint64
}

// tracedOps are the generated operations all three passes work through.
type tracedOps struct {
	sim     []simOps
	quality []qualityOp
	warm    [][]byte    // catalogue warm-up requests
	service []serviceOp // client 0's schedule
	search  [][]searchJob
}

func generateTracedOps(seed uint64, sz tracedSizes) tracedOps {
	var ops tracedOps
	for _, w := range []struct {
		wl     simWorkload
		rounds int
	}{
		{simLowload, sz.LowloadRounds},
		{simSaturation, sz.SaturationRounds},
	} {
		so := simOps{name: w.wl.name}
		for round := 0; round < w.rounds; round++ {
			for class, c := range w.wl.classes {
				so.bodies = append(so.bodies, w.wl.request(seed, round, class).body())
				so.drains = append(so.drains, c.drains)
			}
		}
		ops.sim = append(ops.sim, so)
	}
	for round := 0; round < sz.QualityRounds; round++ {
		for class, c := range qualityClasses {
			ops.quality = append(ops.quality, qualityOp{c, unitSeed(seed, round, class)})
		}
	}
	for first := 0; first < catalogueSize; first += warmBatch {
		ops.warm = append(ops.warm, warmRequest(seed, first).body())
	}
	for _, r := range serviceSchedule(seed, sz.ServiceRequests) {
		op := serviceOp{serviceReq: r, body: r.request(seed).body()}
		op.units, op.status = r.expect()
		ops.service = append(ops.service, op)
	}
	for _, problem := range searchProblems(seed, sz.SearchCycles) {
		ops.search = append(ops.search, searchJobs(problem))
	}
	return ops
}

// layerReport is the outcome of one traced run.
type layerReport struct {
	Seed      uint64             `json:"seed"`
	Sizes     tracedSizes        `json:"sizes"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Timings   map[string]summary `json:"timings"`
	SelfTimes []selfRow          `json:"self_times"`
	Spans     int                `json:"spans"`
	TraceFile string             `json:"trace_file"`
	WallS     float64            `json:"wall_s"`
}

// check accounts for one cross-surface or consistency check.
func (r *layerReport) check(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if len(r.Failures) < 8 {
			r.Failures = append(r.Failures, err.Error())
		}
	}
}

// timing stores a sample of durations in ns as a printed timing (with n and
// its percentile) in the wanted unit and returns its median.
func (r *layerReport) timing(name string, ns sample, unit string) float64 {
	div := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[unit]
	scaled := make(sample, len(ns))
	for i, v := range ns {
		scaled[i] = v / div
	}
	r.Timings[name] = scaled.summary(unit)
	return r.Timings[name].P50
}

// surfaceOut is what the process-surface pass observed.
type surfaceOut struct {
	sim       [][]unitResult // per simulation workload, per unit
	quality   [][]byte       // matchquality standard output per invocation
	qualityNS sample         // and its wall time
	catalogue [][]byte
	service   [][][]byte // result bytes per request, per unit
	hitNS     sample     // hit and batch request times over HTTP
	batchNS   sample
}

// surfacePass sends the traced prefix through the built programs.
func surfacePass(e *env, seed uint64, ops tracedOps, rep *layerReport) (*surfaceOut, error) {
	out := &surfaceOut{}
	srv, err := e.startServer("", 0)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	for _, so := range ops.sim {
		results := make([]unitResult, len(so.bodies))
		for i, body := range so.bodies {
			ups, err := srv.sweepBody(body, 1, "miss")
			if err == nil {
				results[i], err = checkSimResult(ups[0].Result, so.drains[i])
			}
			rep.check(err)
		}
		out.sim = append(out.sim, results)
	}
	srv.stop()

	for _, q := range ops.quality {
		stdout, wall, err := e.run("matchquality", q.class.args(q.seed, 1)...)
		rep.check(err)
		out.quality = append(out.quality, stdout)
		out.qualityNS = append(out.qualityNS, float64(wall.Nanoseconds()))
	}

	dir, err := e.tempDir("traced-service-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if srv, err = e.startServer(dir, catalogueEntry); err != nil {
		return nil, err
	}
	defer srv.stop()
	if out.catalogue, err = warmCatalogue(srv, nil, seed); err != nil {
		return nil, err
	}
	for _, op := range ops.service {
		t0 := time.Now()
		ups, err := srv.sweepBody(op.body, op.units, op.status)
		ns := float64(time.Since(t0).Nanoseconds())
		rep.check(err)
		var results [][]byte
		for _, u := range ups {
			results = append(results, u.Result)
		}
		out.service = append(out.service, results)
		if err == nil && op.kind == kindHit {
			out.hitNS = append(out.hitNS, ns)
		} else if err == nil && op.kind == kindBatch {
			out.batchNS = append(out.batchNS, ns)
		}
	}
	return out, nil
}

// runTraced is the traced run: surface pass, traced replay, untraced replay,
// probes; then the per-layer metrics are derived from spans and counters.
func runTraced(e *env, seed uint64, seconds float64, traceFile string) (*layerReport, error) {
	t0 := time.Now()
	sz := tracedSizesFor(seconds)
	rep := &layerReport{Seed: seed, Sizes: sz, Metrics: map[string]float64{}, Timings: map[string]summary{}, TraceFile: traceFile}
	ops := generateTracedOps(seed, sz)

	surf, err := surfacePass(e, seed, ops, rep)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := replay(e, tr, ops)
	if err != nil {
		return nil, err
	}
	untraced, err := replay(e, nil, ops)
	if err != nil {
		return nil, err
	}

	// Cross-surface: the in-process replay must have produced what the
	// programs answered, unit for unit.
	for w, so := range ops.sim {
		for i := range so.bodies {
			var err error
			if got, want := traced.sim[w].results[i], surf.sim[w][i]; got != want {
				err = fmt.Errorf("%s unit %d: in-process %+v, sweepd %+v", so.name, i, got, want)
			}
			rep.check(err)
		}
	}
	for i, q := range ops.quality {
		// matchquality prints a title line, then the table FormatSeries makes.
		var err error
		if _, table, _ := bytes.Cut(surf.quality[i], []byte("\n")); !bytes.Equal(table, traced.quality[i]) {
			err = fmt.Errorf("matchquality %v: in-process table differs from the program's", q.class)
		}
		rep.check(err)
	}
	for i := range ops.service {
		var err error
		if !slices.EqualFunc(traced.service[i], surf.service[i], bytes.Equal) {
			err = fmt.Errorf("service request %d: in-process results differ from sweepd's", i)
		}
		rep.check(err)
	}
	var cold int64
	for _, op := range ops.service {
		if op.kind == kindCold {
			cold++
		}
	}
	for _, r := range []*replayOut{traced, untraced} {
		var err error
		if r.counts["sweep.sim_runs"] != float64(cold) {
			err = fmt.Errorf("in-process service replay simulated %g units for %d cold requests", r.counts["sweep.sim_runs"], cold)
		}
		rep.check(err)
		for _, f := range r.failures {
			rep.check(fmt.Errorf("%s", f))
		}
	}
	// Exact counts must not depend on whether spans were recorded.
	for _, mt := range perLayer {
		v, ok := traced.counts[mt.name]
		if !mt.exact || !ok {
			continue
		}
		var err error
		if untraced.counts[mt.name] != v {
			err = fmt.Errorf("%s: %g traced, %g untraced", mt.name, v, untraced.counts[mt.name])
		}
		rep.check(err)
	}

	m := rep.Metrics
	for name, v := range traced.counts {
		m[name] = v
	}
	unit := func(root string) (build, mk, run, whole sample) {
		return tr.under(root, "experiments.BuildSim"), tr.under(root, "sim.New"), tr.under(root, "sim.Run"), tr.under(root, root)
	}
	build, mk, run, whole := unit("sim_lowload")
	m["experiments.build_sim_us"] = rep.timing("experiments.BuildSim", build, "us")
	m["sim.new_ms"] = rep.timing("sim.New", mk, "ms")
	m["sim.run_ms"] = rep.timing("sim.Run", run, "ms")
	m["sim.setup_share"] = (build.sum() + mk.sum()) / whole.sum()
	m["sim.host_ns_per_cycle"] = run.sum() / traced.sim[0].cycles
	_, _, satRun, _ := unit("sim_saturation")
	rep.timing("sim.Run (saturation)", satRun, "ms")
	m["sim.host_ns_per_flit"] = satRun.sum() / traced.sim[1].flits
	m["sim.alloc_bytes_per_run"] = untraced.allocBytesPerSim

	m["quality.vc_series_ms"] = rep.timing("quality.VCSeriesMulti", tr.under("quality_openloop", "quality.VCSeriesMulti"), "ms")
	m["quality.sw_series_ms"] = rep.timing("quality.SwitchSeriesMulti", tr.under("quality_openloop", "quality.SwitchSeriesMulti"), "ms")
	var spawn sample
	for i, rootNS := range tr.under("quality_openloop", "quality_openloop") {
		spawn = append(spawn, surf.qualityNS[i]-rootNS)
	}
	m["cmd.spawn_ms"] = rep.timing("cmd.spawn", spawn, "ms")

	m["dse.enumerate_ms"] = rep.timing("dse.Enumerate", tr.under("search_jobs/cold", "dse.Enumerate"), "ms")
	m["dse.search_cold_ms"] = rep.timing("dse.Search cold", tr.under("search_jobs/cold", "dse.Search"), "ms")
	m["dse.search_warm_ms"] = rep.timing("dse.Search warm", tr.under("search_jobs/warm", "dse.Search"), "ms")
	m["curve.trace_cold_ms"] = rep.timing("curve.TraceCurve cold", tr.under("search_jobs/cold", "curve.TraceCurve"), "ms")
	m["curve.trace_warm_ms"] = rep.timing("curve.TraceCurve warm", tr.under("search_jobs/warm", "curve.TraceCurve"), "ms")

	m["sweep.handler_hit_us"] = rep.timing("sweep.Handler hit", tr.under("service_mixed/hit", "sweep.Handler"), "us")
	rep.timing("sweep.Handler batch", tr.under("service_mixed/batch", "sweep.Handler"), "us")
	rep.timing("sweep.Handler cold", tr.under("service_mixed/cold", "sweep.Handler"), "us")
	m["sweep.http_overhead_us"] = rep.timing("hit request over HTTP", surf.hitNS, "us") - m["sweep.handler_hit_us"]
	m["sweep.req_hit_p99_us"] = percentile(rep.Timings["hit request over HTTP"].sorted, 99)
	m["sweep.req_batch_p50_us"] = rep.timing("batch request over HTTP", surf.batchNS, "us")
	if err := runProbes(e, seed, surf.catalogue, rep); err != nil {
		return nil, err
	}
	m["trace_overhead_ratio"] = traced.wall.Seconds() / untraced.wall.Seconds()

	rep.SelfTimes = tr.selfTimes()
	rep.Spans = len(tr.spans)
	if err := writeJSON(traceFile, tr.spans); err != nil {
		return nil, err
	}
	for _, mt := range perLayer {
		if _, ok := m[mt.name]; !ok {
			return nil, fmt.Errorf("traced run produced no %s", mt.name)
		}
	}
	rep.WallS = time.Since(t0).Seconds()
	return rep, nil
}

func (s sample) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

func (r *layerReport) contractLine() string {
	return contractJSON(r.Failed, r.Attempted, r.Failed == 0, perLayer, r.Metrics)
}

// print writes every per-layer metric by name with its unit, the timings
// behind them with n and percentile, and the self-time table.
func (r *layerReport) print() {
	fmt.Printf("\n== traced run  seed=%d  sizes=%+v  checks=%d failed=%d  spans=%d  wall=%.2fs\n",
		r.Seed, r.Sizes, r.Attempted, r.Failed, r.Spans, r.WallS)
	for _, m := range perLayer {
		exact := ""
		if m.exact {
			exact = "  exact"
		}
		fmt.Printf("   %-30s %14.6g %-5s%s\n", m.name, r.Metrics[m.name], m.unit, exact)
	}
	for _, name := range sortedKeys(r.Timings) {
		fmt.Printf("   timing %-28s %s\n", name, r.Timings[name])
	}
	fmt.Printf("   self times (span - children), per operation kind:\n")
	for _, row := range r.SelfTimes {
		fmt.Printf("   %-20s %-26s n=%-5d total %10.3f ms  self %10.3f ms\n", row.Root, row.Name, row.N, row.TotalMS, row.SelfMS)
	}
	fmt.Printf("   spans written to %s\n", r.TraceFile)
	for _, f := range r.Failures {
		fmt.Printf("   FAILED: %s\n", f)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
