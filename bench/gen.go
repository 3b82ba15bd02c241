package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
)

// This file is the load generator's vocabulary: the request shapes it sends
// (sweepd wire schema v3 with schema_version omitted, spelled out here so the
// benchmark depends on the wire format and not on the server's Go types) and
// the seeded generators that turn --seed into requests. --seed is the only
// input; the programs under test see only the generated requests and flags.

// unitConfig is the subset of a sweepd unit the benchmark sets. Everything
// left out takes the schema default on the server.
type unitConfig struct {
	Topo        string  `json:"topo"`
	VCsPerClass int     `json:"vcs_per_class,omitempty"`
	SAArch      string  `json:"sa_arch,omitempty"`
	SpecMode    string  `json:"spec_mode,omitempty"`
	Pattern     string  `json:"pattern,omitempty"`
	Process     string  `json:"process,omitempty"`
	Rate        float64 `json:"rate"`
	Warmup      int     `json:"warmup,omitempty"`
	Measure     int     `json:"measure,omitempty"`
	Drain       int     `json:"drain,omitempty"`
	Seed        uint64  `json:"seed"`
}

// sweepRequest is the body of POST /sweep: one base unit, optionally
// expanded over a seeds axis, then any explicitly listed further units.
type sweepRequest struct {
	Base  unitConfig   `json:"base"`
	Seeds []uint64     `json:"seeds,omitempty"`
	Units []unitConfig `json:"units,omitempty"`
}

func (r sweepRequest) body() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return b
}

// unitUpdate is one NDJSON line of a /sweep response; unitResult is the part
// of its result the benchmark checks.
type unitUpdate struct {
	Index  int             `json:"index"`
	Key    string          `json:"key"`
	Status string          `json:"status"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

type unitResult struct {
	Latency        float64 `json:"latency"`
	Cycles         int64   `json:"cycles"`
	Unfinished     int     `json:"unfinished"`
	FlitsDelivered int64   `json:"flits_delivered"`
}

// parseSweep splits an NDJSON /sweep response into its unit lines, ordered
// by index, and checks the closing summary line is there.
func parseSweep(body []byte, want int) ([]unitUpdate, error) {
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != want+1 {
		return nil, fmt.Errorf("response has %d lines, want %d units + summary", len(lines), want)
	}
	var sum struct {
		Done  bool `json:"done"`
		Units int  `json:"units"`
	}
	if err := json.Unmarshal(lines[want], &sum); err != nil || !sum.Done || sum.Units != want {
		return nil, fmt.Errorf("bad summary line %q", lines[want])
	}
	out := make([]unitUpdate, want)
	seen := make([]bool, want)
	for _, ln := range lines[:want] {
		var u unitUpdate
		if err := json.Unmarshal(ln, &u); err != nil {
			return nil, fmt.Errorf("bad unit line: %w", err)
		}
		if u.Index < 0 || u.Index >= want || seen[u.Index] {
			return nil, fmt.Errorf("unit index %d out of range or repeated", u.Index)
		}
		seen[u.Index], out[u.Index] = true, u
	}
	return out, nil
}

// unitSeed derives a never-repeating simulation seed from the run seed.
// Classes below 32 belong to the round-based workloads; service_mixed uses
// 32 (catalogue) and 33 (cold), the traced run's probe 40, each with the unit
// number as the round.
func unitSeed(seed uint64, round, class int) uint64 {
	return seed*1000003 + uint64(round)*64 + uint64(class)
}

// simClass is one (design point, load) a simulation workload cycles through.
type simClass struct {
	unit unitConfig
	// drains marks classes run below saturation, where every measured packet
	// must have been delivered (unfinished == 0).
	drains bool
}

// phases are warm-up, measurement and drain limits in cycles.
type phases struct{ warmup, measure, drain int }

func (p phases) apply(u unitConfig) unitConfig {
	u.Warmup, u.Measure, u.Drain = p.warmup, p.measure, p.drain
	return u
}

var (
	// sim_lowload: the network is almost always empty, so a unit's time goes
	// to set-up (sim.New), terminals, arrival processes, the timing wheel and
	// the active-set/leap machinery; the allocators see almost no requests.
	lowloadPhases  = phases{500, 1500, 8000}
	lowloadClasses = []simClass{
		// At 0.0005 about one unit in 40 000 injects nothing at all in its
		// 2 000 cycles, and an empty run fails its check.
		{unitConfig{Topo: "mesh", VCsPerClass: 1, Rate: 0.001}, true},
		{unitConfig{Topo: "fbfly", VCsPerClass: 1, Rate: 0.002}, true},
		{unitConfig{Topo: "mesh", VCsPerClass: 1, Rate: 0.005, Process: "mmp"}, true},
		{unitConfig{Topo: "fbfly", VCsPerClass: 2, Rate: 0.01}, true},
		{unitConfig{Topo: "mesh", VCsPerClass: 2, Rate: 0.02, Pattern: "hotspot"}, true},
		{unitConfig{Topo: "mesh", VCsPerClass: 1, Rate: 0.02}, true},
	}

	// sim_saturation: every router is busy every cycle, so router.Step,
	// request building and the VA/SA allocators are nearly all of the time.
	// The rates sit at each design point's saturation knee, where allocator
	// differences concentrate (Onsori & Safaei).
	saturationPhases  = phases{125, 300, 2500}
	saturationClasses = []simClass{
		{unitConfig{Topo: "mesh", VCsPerClass: 1, Rate: 0.30, SAArch: "sep_if", SpecMode: "spec_req"}, false},
		{unitConfig{Topo: "mesh", VCsPerClass: 2, Rate: 0.34, SAArch: "wf", SpecMode: "spec_gnt"}, false},
		{unitConfig{Topo: "fbfly", VCsPerClass: 1, Rate: 0.40, SAArch: "sep_of", SpecMode: "nonspec"}, false},
		{unitConfig{Topo: "fbfly", VCsPerClass: 2, Rate: 0.45, SAArch: "wf", SpecMode: "spec_req"}, false},
	}
)

// qualityClass is one matchquality invocation of a quality_openloop round.
type qualityClass struct {
	unit   string // vc or sw
	topo   string
	c      int
	trials int
}

// The four invocations cost about the same host time each; between them they
// cover both allocator kinds, both topologies and three VC counts.
var qualityClasses = []qualityClass{
	{"vc", "fbfly", 2, 60},
	{"sw", "fbfly", 2, 150},
	{"vc", "mesh", 4, 125},
	{"sw", "mesh", 1, 750},
}

// qualityPointsPerTrial is what one matchquality run multiplies its -trials
// by: 20 request rates x 3 allocator architectures.
const qualityPointsPerTrial = 20 * 3

func (q qualityClass) args(seed uint64, workers int) []string {
	return []string{"-unit", q.unit, "-topo", q.topo, "-c", fmt.Sprint(q.c),
		"-trials", fmt.Sprint(q.trials), "-seed", fmt.Sprint(seed), "-workers", fmt.Sprint(workers)}
}

// service_mixed traffic.
const (
	catalogueSize  = 512
	catalogueEntry = 256 // sweepd -cache-entries: half the catalogue fits in memory
	batchUnits     = 16
	warmBatch      = 64 // catalogue units per warm-up request

	classCatalogue = 32
	classCold      = 33
	classProbe     = 40 // the traced run's EvalUnit probe
)

var (
	cataloguePhases = phases{200, 400, 2000}
	catalogueUnit   = unitConfig{Topo: "mesh", VCsPerClass: 1, Rate: 0.01}
	coldUnit        = unitConfig{Topo: "mesh", VCsPerClass: 1, Rate: 0.02}
)

type reqKind int

const (
	kindHit reqKind = iota
	kindBatch
	kindCold
)

// serviceReq is one scheduled service_mixed request: a catalogue hit, a
// batch of batchUnits consecutive catalogue units, or a never-seen unit.
type serviceReq struct {
	kind  reqKind
	first int // catalogue index (hit, batch) or cold serial number
}

// serviceSchedule draws the client's request sequence: 85 % hits with Zipf
// (s = 1.1) popularity over the catalogue, so the head lives in the memory
// LRU and the tail is read from disk and promoted; 13 % batches; 2 % cold.
func serviceSchedule(seed uint64, n int) []serviceReq {
	rng := rand.New(rand.NewSource(int64(unitSeed(seed, 0, classCold))))
	zipf := rand.NewZipf(rng, 1.1, 1, catalogueSize-1)
	out := make([]serviceReq, n)
	cold := 0
	for i := range out {
		switch p := rng.Float64(); {
		case p < 0.85:
			out[i] = serviceReq{kindHit, int(zipf.Uint64())}
		case p < 0.98:
			out[i] = serviceReq{kindBatch, rng.Intn(catalogueSize - batchUnits + 1)}
		default:
			out[i] = serviceReq{kindCold, cold}
			cold++
		}
	}
	return out
}

func catalogueSeeds(seed uint64, first, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = unitSeed(seed, first+i, classCatalogue)
	}
	return out
}

// warmRequest is one catalogue warm-up request: warmBatch consecutive units
// through the seeds axis.
func warmRequest(seed uint64, first int) sweepRequest {
	return sweepRequest{Base: cataloguePhases.apply(catalogueUnit), Seeds: catalogueSeeds(seed, first, warmBatch)}
}

// expect is how many units the request's response carries and the status
// each must have.
func (r serviceReq) expect() (units int, status string) {
	switch r.kind {
	case kindBatch:
		return batchUnits, "hit"
	case kindCold:
		return 1, "miss"
	}
	return 1, "hit"
}

func (r serviceReq) request(seed uint64) sweepRequest {
	switch r.kind {
	case kindHit:
		u := cataloguePhases.apply(catalogueUnit)
		u.Seed = unitSeed(seed, r.first, classCatalogue)
		return sweepRequest{Base: u}
	case kindBatch:
		return sweepRequest{Base: cataloguePhases.apply(catalogueUnit), Seeds: catalogueSeeds(seed, r.first, batchUnits)}
	default:
		u := cataloguePhases.apply(coldUnit)
		u.Seed = unitSeed(seed, r.first, classCold)
		return sweepRequest{Base: u}
	}
}

// search_jobs: one Pareto search and two adaptive curve traces per cycle.

type paretoSpec struct {
	Topos    []string `json:"topos"`
	VCs      []int    `json:"vcs"`
	VAArbs   []string `json:"va_arbs"`
	SAArbs   []string `json:"sa_arbs"`
	MeshRate float64  `json:"mesh_rate"`
	Warmup   int      `json:"warmup"`
	Measure  int      `json:"measure"`
	Drain    int      `json:"drain"`
	Seed     uint64   `json:"seed"`
}

type curveSpec struct {
	Base    unitConfig `json:"base"`
	Step    float64    `json:"step"`
	MaxRate float64    `json:"max_rate"`
}

var searchPhases = phases{200, 400, 2000}

// searchMeshRate is the offered load the Pareto search scores designs at. It
// is below every mesh configuration's knee, so every simulated point reaches
// the performance cap, pruning is maximal and a search simulates about the
// same 6 of 108 feasible points whatever its sim seed. At the server's
// default (0.44, past the weakest knees) the count swings 6..19 and a cycle
// takes 0.8..3.5 s; the shorter, more even cycles give a 12 s run some 24
// samples for its median instead of 8.
const searchMeshRate = 0.20

// searchProblems returns the sim seed of each cycle's search problem. The
// problems are a fixed list (sim seeds 42, 43, ...) and --seed only decides
// their order. The reason is measured, not assumed: how many points a search
// simulates, and how many of them are saturated, depends on the sim seed, and
// cold time moves by 10 % and more with it; a 12 s run holds too few searches
// to average that out, so drawing the problems from --seed made run-to-run
// spread as wide as the regression bound. Every run of a given length
// therefore solves the same problems, in a seed-dependent order, each on a
// fresh cachedir.
func searchProblems(seed uint64, cycles int) []uint64 {
	out := make([]uint64, cycles)
	for c, i := range rand.New(rand.NewSource(int64(seed))).Perm(cycles) {
		out[c] = 42 + uint64(i)
	}
	return out
}

// searchJob is one job submission: the endpoint and the JSON spec.
type searchJob struct {
	path string
	body []byte
}

const searchJobsPerCycle = 3

func searchJobs(seed uint64) []searchJob {
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // plain data; cannot fail
		}
		return b
	}
	curve := func(topo string, max float64) []byte {
		base := searchPhases.apply(unitConfig{Topo: topo, VCsPerClass: 1})
		base.Seed = seed
		return marshal(curveSpec{Base: base, Step: 0.02, MaxRate: max})
	}
	return []searchJob{
		{"/pareto", marshal(paretoSpec{
			Topos: []string{"mesh"}, VCs: []int{1, 2}, VAArbs: []string{"rr"}, SAArbs: []string{"rr"},
			MeshRate: searchMeshRate,
			Warmup:   searchPhases.warmup, Measure: searchPhases.measure, Drain: searchPhases.drain, Seed: seed,
		})},
		{"/curve", curve("mesh", 0.36)},
		{"/curve", curve("fbfly", 0.50)},
	}
}
