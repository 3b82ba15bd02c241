// Package sweep turns the batch simulation harness into a long-running,
// multi-tenant service: sweep requests are split into per-(config, seed)
// work units, each unit is identified by a canonical content hash of its
// semantic configuration, and units are served from a bounded
// content-addressed result store, an in-flight coalescing layer, and a
// pooled scheduler with cooperative cancellation (see server.go).
//
// The unit schema is the one serializable description of a simulation the
// CLIs, the repository benchmark and the service all share, and a Server is
// the one way a curve is simulated: cmd/repro, cmd/nocsim and cmd/pareto run
// an in-process Server, sweepd serves one. A unit builds its sim.Config
// through experiments.BuildSim, so the same (config, seed) produces byte-equal
// output whether computed by a direct RunUnit, a cache miss or a cache hit
// (golden-tested in server_test.go). Only trace replay, which a unit cannot
// carry, runs outside it.
package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// SchemaVersion is the current unit-config schema version. It is the first
// field of the canonical serialization, so any schema growth — new fields,
// changed defaults, changed canonicalization — must bump it, which rotates
// every content key and prevents a new server from serving results cached
// under old semantics.
//
// v2: Normalized collapses VAArb to "rr" when VAArch is "wf" — the
// wavefront VC allocator has no arbiters at all (neither the functional
// model in internal/core nor the cost model reads ArbKind), so the two
// spellings always described one simulation and now share one content key.
// The switch allocator's arbiter kind is NOT collapsed: the SA wavefront
// datapath uses ArbKind for its VC pre-selection arbiters (Fig. 8c), which
// can change grant sequences.
//
// v3: the unit grew the injection-workload axes of traffic.Workload —
// arrival process (bernoulli/mmp/trace), burst parameters, hotspot set and
// fraction, and the content digest of a replayed trace. Normalized mirrors
// Workload.Normalized's canonicalization (parameters irrelevant to the
// selected process/pattern are cleared), and the canonical serialization
// gained the new lines between pattern and rate, so every v2 key is
// retired.
const SchemaVersion = 3

// UnitConfig is one (config, seed) simulation unit: the semantic
// description of a run, and nothing else. A unit is exactly what its request
// says: no server setting adds to it. How a server executes it — on which
// worker, with a borrowed helper or without — is no part of it: the
// simulator is bit-identical either way (the golden suite pins this), so it
// must not influence the content key.
//
// Zero values mean "default" and are filled by Normalized, from the schema
// defaults alone, before hashing, so a default-filled and an
// explicitly-spelled config produce the same key.
type UnitConfig struct {
	// SchemaVersion pins the schema this config was written against;
	// 0 means "current".
	SchemaVersion int `json:"schema_version,omitempty"`
	// Topo and VCsPerClass name a paper design point: "mesh" or "fbfly"
	// with 1, 2 or 4 VCs per class (experiments.PointByName).
	Topo        string `json:"topo"`
	VCsPerClass int    `json:"vcs_per_class,omitempty"`
	// VAArch/VAArb/VASparse select the VC allocator microarchitecture
	// ("sep_if", "sep_of", "wf" × "rr", "m"); defaults sep_if/rr dense.
	VAArch   string `json:"va_arch,omitempty"`
	VAArb    string `json:"va_arb,omitempty"`
	VASparse bool   `json:"va_sparse,omitempty"`
	// SAArch/SAArb/SpecMode select the switch allocator and speculation
	// scheme ("nonspec", "spec_gnt", "spec_req"); defaults sep_if/rr with
	// the paper's pessimistic spec_req baseline.
	SAArch   string `json:"sa_arch,omitempty"`
	SAArb    string `json:"sa_arb,omitempty"`
	SpecMode string `json:"spec_mode,omitempty"`
	// Pattern is the traffic pattern name (traffic.NewPattern vocabulary
	// plus "hotspot"); default "uniform".
	Pattern string `json:"pattern,omitempty"`
	// Process names the arrival process ("bernoulli", "mmp"); default
	// "bernoulli". "trace" is part of the schema vocabulary — TraceDigest
	// content-addresses the replayed trace — but Validate rejects it
	// server-side: the service has no channel to materialize trace bytes, so
	// trace-driven units stay batch-only (see cmd/nocsim -record/-trace).
	Process string `json:"process,omitempty"`
	// BurstLen and Duty parameterize the "mmp" process (defaults 32 and
	// 0.25, mirroring traffic.Workload).
	BurstLen float64 `json:"burst_len,omitempty"`
	Duty     float64 `json:"duty,omitempty"`
	// Hotspots and HotspotFraction parameterize the "hotspot" pattern
	// (defaults {0} and traffic.DefaultHotspotFraction).
	Hotspots        []int   `json:"hotspots,omitempty"`
	HotspotFraction float64 `json:"hotspot_fraction,omitempty"`
	// TraceDigest is the hex SHA-256 of the replayed packet trace's canonical
	// serialization (trace.WriteArrivals) when Process is "trace"; cleared
	// otherwise.
	TraceDigest string `json:"trace_digest,omitempty"`
	// Rate is the offered load in flits/cycle/terminal.
	Rate float64 `json:"rate"`
	// ReadFraction is the probability a transaction is a read; nil means
	// sim.DefaultReadFraction, explicit 0 means all-write (as in
	// sim.Config.ReadFraction).
	ReadFraction *float64 `json:"read_fraction,omitempty"`
	// BufDepth is the per-VC buffer depth in flits (default
	// sim.DefaultBufDepth).
	BufDepth int `json:"buf_depth,omitempty"`
	// Warmup, Measure and Drain are the phase lengths in cycles (defaults
	// sim.DefaultWarmup, sim.DefaultMeasure and sim.DefaultDrain).
	Warmup  int `json:"warmup,omitempty"`
	Measure int `json:"measure,omitempty"`
	Drain   int `json:"drain,omitempty"`
	// Seed makes the run deterministic. Zero is a valid seed and is NOT
	// defaulted — two requests differing only in seed are different units.
	Seed uint64 `json:"seed"`
}

// Normalized returns the config with every defaultable zero field filled
// in. Hashing and simulation both go through the normalized form, so a
// sparse request and its fully spelled-out equivalent are the same unit.
func (c UnitConfig) Normalized() UnitConfig {
	if c.SchemaVersion == 0 {
		c.SchemaVersion = SchemaVersion
	}
	if c.Topo == "" {
		c.Topo = "mesh"
	}
	if c.VCsPerClass == 0 {
		c.VCsPerClass = 1
	}
	if c.VAArch == "" {
		c.VAArch = alloc.SepIF.String()
	}
	if c.VAArb == "" || c.VAArch == alloc.Wavefront.String() {
		// Wavefront VC allocation has no arbiters; every arb spelling is the
		// same unit (see the SchemaVersion v2 note).
		c.VAArb = arbiter.RoundRobin.String()
	}
	if c.SAArch == "" {
		c.SAArch = alloc.SepIF.String()
	}
	if c.SAArb == "" {
		c.SAArb = arbiter.RoundRobin.String()
	}
	if c.SpecMode == "" {
		c.SpecMode = core.SpecReq.String()
	}
	// Workload axes canonicalize exactly as traffic.Workload.Normalized
	// does (defaults filled, irrelevant parameters cleared), so two
	// spellings of one workload share one content key.
	w := c.Workload().Normalized()
	c.Pattern = w.Pattern
	c.Process = w.Process
	c.Rate = w.Rate
	c.BurstLen, c.Duty = w.BurstLen, w.Duty
	c.Hotspots, c.HotspotFraction = w.Hotspots, w.HotspotFraction
	if c.Process != "trace" {
		c.TraceDigest = ""
	}
	if c.ReadFraction == nil {
		rf := sim.DefaultReadFraction
		c.ReadFraction = &rf
	}
	if c.BufDepth == 0 {
		c.BufDepth = sim.DefaultBufDepth
	}
	if c.Warmup == 0 {
		c.Warmup = sim.DefaultWarmup
	}
	if c.Measure == 0 {
		c.Measure = sim.DefaultMeasure
	}
	if c.Drain == 0 {
		c.Drain = sim.DefaultDrain
	}
	return c
}

// Workload assembles the unit's traffic.Workload view (trace bytes are
// never attached; the service content-addresses them by TraceDigest only).
func (c UnitConfig) Workload() traffic.Workload {
	return traffic.Workload{
		Process:         c.Process,
		Rate:            c.Rate,
		Pattern:         c.Pattern,
		BurstLen:        c.BurstLen,
		Duty:            c.Duty,
		Hotspots:        c.Hotspots,
		HotspotFraction: c.HotspotFraction,
	}
}

// Validate checks the normalized config against the design-point,
// allocator and pattern vocabularies, without building a network.
func (c UnitConfig) Validate() error { return c.Normalized().validate() }

// validate is Validate of a config that is normalized already.
func (c UnitConfig) validate() error {
	if c.SchemaVersion != SchemaVersion {
		return fmt.Errorf("sweep: schema version %d not supported (have %d)", c.SchemaVersion, SchemaVersion)
	}
	if _, err := experiments.PointByName(c.Topo, c.VCsPerClass); err != nil {
		return err
	}
	if _, err := ParseArch(c.VAArch); err != nil {
		return fmt.Errorf("sweep: va_arch: %w", err)
	}
	if _, err := ParseArb(c.VAArb); err != nil {
		return fmt.Errorf("sweep: va_arb: %w", err)
	}
	if _, err := ParseArch(c.SAArch); err != nil {
		return fmt.Errorf("sweep: sa_arch: %w", err)
	}
	if _, err := ParseArb(c.SAArb); err != nil {
		return fmt.Errorf("sweep: sa_arb: %w", err)
	}
	if _, err := ParseSpecMode(c.SpecMode); err != nil {
		return err
	}
	// Trace replay is batch-only: a unit carries only the trace's content
	// digest, and the service has no channel to materialize the bytes.
	if c.Process == "trace" {
		return fmt.Errorf("sweep: process %q is batch-only (the service cannot materialize trace bytes; use cmd/nocsim -trace)", c.Process)
	}
	// The workload axes (process, pattern, burst and hotspot parameters) are
	// validated over the design point's terminal count.
	if err := c.Workload().Validate(unitTerminals); err != nil {
		return err
	}
	if c.Rate < 0 || c.Rate > 1 {
		return fmt.Errorf("sweep: rate %g outside [0, 1]", c.Rate)
	}
	if rf := *c.ReadFraction; rf < 0 || rf > 1 {
		return fmt.Errorf("sweep: read_fraction %g outside [0, 1]", rf)
	}
	if c.BufDepth < 1 {
		return fmt.Errorf("sweep: buf_depth %d < 1", c.BufDepth)
	}
	if c.Warmup < 0 || c.Measure < 1 || c.Drain < 0 {
		return fmt.Errorf("sweep: bad phase lengths warmup=%d measure=%d drain=%d", c.Warmup, c.Measure, c.Drain)
	}
	return nil
}

// unitTerminals is the terminal count of every design point: both paper
// networks concentrate to 64 terminals, so no topology is built to know it.
const unitTerminals = 64

// appendCanonical appends the canonical serialization of the normalized
// config c to b: the bytes the content hash is defined over. Rules
// (DESIGN.md §10):
//   - fields appear in schema declaration order, one "name=value" per
//     line, after a "noc-sweep/v<version>" preamble;
//   - floats are formatted as exact hexadecimal ('x', -1, 64), so every
//     distinct float64 bit pattern — and nothing else — changes the key;
//   - booleans render as 0/1, integers in decimal;
//   - execution hints never appear.
//
// Renaming, reordering or adding fields therefore changes canonical output
// only together with a SchemaVersion bump (the pinned golden hash test
// breaks loudly otherwise).
func (c UnitConfig) appendCanonical(b []byte) []byte {
	b = append(b, "noc-sweep/v"...)
	b = strconv.AppendInt(b, int64(c.SchemaVersion), 10)
	b = append(b, '\n')
	str := func(name, val string) {
		b = append(b, name...)
		b = append(b, '=')
		b = append(b, val...)
		b = append(b, '\n')
	}
	num := func(name string, v int) {
		b = append(b, name...)
		b = append(b, '=')
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, '\n')
	}
	flt := func(name string, v float64) {
		b = append(b, name...)
		b = append(b, '=')
		b = strconv.AppendFloat(b, v, 'x', -1, 64)
		b = append(b, '\n')
	}
	str("topo", c.Topo)
	num("vcs_per_class", c.VCsPerClass)
	str("va_arch", c.VAArch)
	str("va_arb", c.VAArb)
	if c.VASparse {
		str("va_sparse", "1")
	} else {
		str("va_sparse", "0")
	}
	str("sa_arch", c.SAArch)
	str("sa_arb", c.SAArb)
	str("spec_mode", c.SpecMode)
	str("pattern", c.Pattern)
	str("process", c.Process)
	flt("burst_len", c.BurstLen)
	flt("duty", c.Duty)
	b = append(b, "hotspots="...)
	for i, h := range c.Hotspots {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(h), 10)
	}
	b = append(b, '\n')
	flt("hotspot_fraction", c.HotspotFraction)
	str("trace_digest", c.TraceDigest)
	flt("rate", c.Rate)
	flt("read_fraction", *c.ReadFraction)
	num("buf_depth", c.BufDepth)
	num("warmup", c.Warmup)
	num("measure", c.Measure)
	num("drain", c.Drain)
	b = append(b, "seed="...)
	b = strconv.AppendUint(b, c.Seed, 10)
	return append(b, '\n')
}

// canonical is the canonical serialization of the config, normalized first.
func (c UnitConfig) canonical() string { return string(c.Normalized().appendCanonical(nil)) }

// Key returns the unit's content address: the hex SHA-256 of its canonical
// serialization. Two configs get the same key iff they describe the same
// simulation semantics under the current schema version.
func (c UnitConfig) Key() string { return c.Normalized().key() }

// key is Key of a config that is normalized already.
func (c UnitConfig) key() string {
	var buf [512]byte
	sum := sha256.Sum256(c.appendCanonical(buf[:0]))
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

// BuildSim assembles the unit's sim.Config through the same
// experiments.BuildSim path the batch CLIs use, then applies the unit's
// allocator/pattern/workload overrides.
func (c UnitConfig) BuildSim() (sim.Config, error) {
	c = c.Normalized()
	if err := c.Validate(); err != nil {
		return sim.Config{}, err
	}
	pt, err := experiments.PointByName(c.Topo, c.VCsPerClass)
	if err != nil {
		return sim.Config{}, err
	}
	scale := experiments.SimScale{
		Warmup: c.Warmup, Measure: c.Measure, Drain: c.Drain, Seed: c.Seed,
		Workload: c.Workload(),
	}
	cfg := experiments.BuildSim(pt, c.Rate, scale)
	cfg.VA.Arch, _ = ParseArch(c.VAArch)
	cfg.VA.ArbKind, _ = ParseArb(c.VAArb)
	cfg.VA.Sparse = c.VASparse
	cfg.SA.Arch, _ = ParseArch(c.SAArch)
	cfg.SA.ArbKind, _ = ParseArb(c.SAArb)
	cfg.SA.SpecMode, _ = ParseSpecMode(c.SpecMode)
	cfg.BufDepth = c.BufDepth
	cfg.ReadFraction = c.ReadFraction
	return cfg, nil
}

// UnitResult is the serializable outcome of one unit: the NetPoint fields
// the curve tools plot, plus the extended statistics sim.Result reports.
// The service caches the marshaled bytes, so a cache hit is byte-equal to
// the miss that produced it.
type UnitResult struct {
	SchemaVersion int        `json:"schema_version"`
	Key           string     `json:"key"`
	Config        UnitConfig `json:"config"`

	Rate       float64 `json:"rate"`
	Latency    float64 `json:"latency"`
	Throughput float64 `json:"throughput"`
	Saturated  bool    `json:"saturated"`
	Cycles     int64   `json:"cycles"`

	MeasuredPackets int     `json:"measured_packets"`
	Unfinished      int     `json:"unfinished"`
	FlitsDelivered  int64   `json:"flits_delivered"`
	LatencyP50      int     `json:"latency_p50"`
	LatencyP99      int     `json:"latency_p99"`
	LatencyMax      int     `json:"latency_max"`
	AvgHops         float64 `json:"avg_hops"`
}

// NetPoint converts the result to the experiments curve-point type, so a
// client can assemble service results into the exact NetSeries the batch
// tools produce (bit-identical; see the golden test).
func (r UnitResult) NetPoint() experiments.NetPoint {
	return experiments.NetPoint{
		Rate: r.Rate, Latency: r.Latency, Throughput: r.Throughput,
		Saturated: r.Saturated, Cycles: r.Cycles,
	}
}

// RunStats is how one unit's simulation was executed, none of it part of
// its result: the counts nocsim -json reports (experiments.Execution), and
// how its stepped cycles were split with a lent helper.
type RunStats struct {
	Exec     experiments.ExecStats
	Parallel sim.ParallelStats
}

// RunUnit simulates one unit to completion (or until ctx is cancelled,
// checked every sim.AbortCheckInterval cycles; a cancelled run returns
// ctx.Err() and no result) and reports how its cycles were executed. With
// lender set, the simulation borrows a helper from it while it has heavy
// cycles to step (sim.Network.BorrowHelpers); with nil it runs on the
// caller's goroutine alone.
func RunUnit(ctx context.Context, c UnitConfig, lender sim.Lender) (UnitResult, RunStats, error) {
	c = c.Normalized()
	cfg, err := c.BuildSim()
	if err != nil {
		return UnitResult{}, RunStats{}, err
	}
	n := sim.New(cfg)
	if lender != nil {
		n.BorrowHelpers(lender)
	}
	res := n.RunCtx(ctx)
	st := RunStats{Parallel: n.ParallelStats()}
	if res.Aborted {
		err := ctx.Err()
		if err == nil {
			err = context.Canceled
		}
		return UnitResult{}, st, err
	}
	st.Exec = experiments.Execution(n)
	return UnitResult{
		SchemaVersion:   c.SchemaVersion,
		Key:             c.key(),
		Config:          c,
		Rate:            c.Rate,
		Latency:         res.AvgLatency,
		Throughput:      res.Throughput,
		Saturated:       res.Saturated,
		Cycles:          res.Cycles,
		MeasuredPackets: res.MeasuredPackets,
		Unfinished:      res.Unfinished,
		FlitsDelivered:  res.FlitsDelivered,
		LatencyP50:      res.LatencyP50,
		LatencyP99:      res.LatencyP99,
		LatencyMax:      res.LatencyMax,
		AvgHops:         res.AvgHops,
	}, st, nil
}

// ParseArch parses an allocator architecture name as rendered by
// alloc.Arch.String ("sep_if", "sep_of", "wf").
func ParseArch(s string) (alloc.Arch, error) {
	for _, a := range []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront} {
		if s == a.String() {
			return a, nil
		}
	}
	return 0, fmt.Errorf("sweep: unknown allocator architecture %q", s)
}

// ParseArb parses an arbiter kind name as rendered by arbiter.Kind.String
// ("rr", "m").
func ParseArb(s string) (arbiter.Kind, error) {
	for _, k := range []arbiter.Kind{arbiter.RoundRobin, arbiter.Matrix} {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("sweep: unknown arbiter kind %q", s)
}

// ParseSpecMode parses a speculation scheme name as rendered by
// core.SpecMode.String ("nonspec", "spec_gnt", "spec_req").
func ParseSpecMode(s string) (core.SpecMode, error) {
	for _, m := range []core.SpecMode{core.SpecNone, core.SpecGnt, core.SpecReq} {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("sweep: unknown speculation mode %q", s)
}
