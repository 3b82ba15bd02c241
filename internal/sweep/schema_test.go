package sweep

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestKeyDefaultsVsExplicit pins canonicalization rule #1: a sparse config
// and its fully spelled-out equivalent are the same unit.
func TestKeyDefaultsVsExplicit(t *testing.T) {
	sparse := UnitConfig{Topo: "mesh", Rate: 0.3, Seed: 42}
	rf := 0.5
	explicit := UnitConfig{
		SchemaVersion: SchemaVersion,
		Topo:          "mesh",
		VCsPerClass:   1,
		VAArch:        "sep_if",
		VAArb:         "rr",
		SAArch:        "sep_if",
		SAArb:         "rr",
		SpecMode:      "spec_req",
		Pattern:       "uniform",
		Rate:          0.3,
		ReadFraction:  &rf,
		BufDepth:      8,
		Warmup:        2000,
		Measure:       5000,
		Drain:         20000,
		Seed:          42,
	}
	if sparse.Key() != explicit.Key() {
		t.Fatalf("default-filled and explicit configs hash differently:\n%s\nvs\n%s",
			sparse.Normalized().canonical(), explicit.canonical())
	}
}

// TestKeySensitivity pins that every semantic field moves the key.
func TestKeySensitivity(t *testing.T) {
	base := UnitConfig{Topo: "mesh", Rate: 0.3, Seed: 42}
	baseKey := base.Key()
	rf0 := 0.0
	mutations := map[string]UnitConfig{
		"topo":          {Topo: "fbfly", Rate: 0.3, Seed: 42},
		"vcs_per_class": {Topo: "mesh", VCsPerClass: 2, Rate: 0.3, Seed: 42},
		"va_arch":       {Topo: "mesh", VAArch: "wf", Rate: 0.3, Seed: 42},
		"va_arb":        {Topo: "mesh", VAArb: "m", Rate: 0.3, Seed: 42},
		"va_sparse":     {Topo: "mesh", VASparse: true, Rate: 0.3, Seed: 42},
		"sa_arch":       {Topo: "mesh", SAArch: "sep_of", Rate: 0.3, Seed: 42},
		"sa_arb":        {Topo: "mesh", SAArb: "m", Rate: 0.3, Seed: 42},
		"spec_mode":     {Topo: "mesh", SpecMode: "nonspec", Rate: 0.3, Seed: 42},
		"pattern":       {Topo: "mesh", Pattern: "transpose", Rate: 0.3, Seed: 42},
		"process":       {Topo: "mesh", Process: "mmp", Rate: 0.3, Seed: 42},
		"burst_len":     {Topo: "mesh", Process: "mmp", BurstLen: 64, Rate: 0.3, Seed: 42},
		"duty":          {Topo: "mesh", Process: "mmp", Duty: 0.5, Rate: 0.3, Seed: 42},
		"hotspots":      {Topo: "mesh", Pattern: "hotspot", Hotspots: []int{3, 7}, Rate: 0.3, Seed: 42},
		"hotspot_frac":  {Topo: "mesh", Pattern: "hotspot", HotspotFraction: 0.5, Rate: 0.3, Seed: 42},
		"hotspot_def":   {Topo: "mesh", Pattern: "hotspot", Rate: 0.3, Seed: 42},
		"rate":          {Topo: "mesh", Rate: 0.30000000000000004, Seed: 42},
		"read_fraction": {Topo: "mesh", ReadFraction: &rf0, Rate: 0.3, Seed: 42},
		"buf_depth":     {Topo: "mesh", BufDepth: 4, Rate: 0.3, Seed: 42},
		"warmup":        {Topo: "mesh", Warmup: 100, Rate: 0.3, Seed: 42},
		"measure":       {Topo: "mesh", Measure: 100, Rate: 0.3, Seed: 42},
		"drain":         {Topo: "mesh", Drain: 100, Rate: 0.3, Seed: 42},
		"seed":          {Topo: "mesh", Rate: 0.3, Seed: 43},
	}
	seen := map[string]string{baseKey: "base"}
	for field, cfg := range mutations {
		k := cfg.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutating %s collides with %s", field, prev)
		}
		seen[k] = field
	}
}

// TestKeyGoldenPinned pins the canonical serialization and its hash for one
// fully specified config. Any change here is a schema change: if this test
// breaks, either revert the serialization change or bump SchemaVersion and
// re-pin — silently re-keying a deployed cache is the failure mode this
// guards against.
func TestKeyGoldenPinned(t *testing.T) {
	cfg := UnitConfig{Topo: "mesh", Rate: 0.3, Seed: 42}
	wantCanonical := strings.Join([]string{
		"noc-sweep/v3",
		"topo=mesh",
		"vcs_per_class=1",
		"va_arch=sep_if",
		"va_arb=rr",
		"va_sparse=0",
		"sa_arch=sep_if",
		"sa_arb=rr",
		"spec_mode=spec_req",
		"pattern=uniform",
		"process=bernoulli",
		"burst_len=0x0p+00",
		"duty=0x0p+00",
		"hotspots=",
		"hotspot_fraction=0x0p+00",
		"trace_digest=",
		"rate=0x1.3333333333333p-02",
		"read_fraction=0x1p-01",
		"buf_depth=8",
		"warmup=2000",
		"measure=5000",
		"drain=20000",
		"seed=42",
		"",
	}, "\n")
	if got := cfg.Normalized().canonical(); got != wantCanonical {
		t.Fatalf("canonical serialization changed (schema change? bump SchemaVersion and re-pin):\ngot:\n%s\nwant:\n%s", got, wantCanonical)
	}
	const wantKey = "8e8c03cba715202a435f3736d50bdf70458c9ed0cff2b13699db25cf3464fdc9"
	if got := cfg.Key(); got != wantKey {
		t.Fatalf("pinned golden key changed:\ngot  %s\nwant %s", got, wantKey)
	}
}

// TestKeyWavefrontArbCollapse pins the v2 canonicalization rule: the
// wavefront VC allocator has no arbiters, so every va_arb spelling of a wf
// VA config is the same unit — while the switch allocator's arb kind stays
// semantic (the SA wavefront datapath arbitrates VC pre-selection with it).
func TestKeyWavefrontArbCollapse(t *testing.T) {
	wfRR := UnitConfig{Topo: "mesh", VAArch: "wf", VAArb: "rr", Rate: 0.3, Seed: 42}
	wfM := UnitConfig{Topo: "mesh", VAArch: "wf", VAArb: "m", Rate: 0.3, Seed: 42}
	if wfRR.Key() != wfM.Key() {
		t.Fatal("va wf/m and wf/rr hash differently; the wavefront VC allocator has no arbiters")
	}
	saRR := UnitConfig{Topo: "mesh", SAArch: "wf", SAArb: "rr", Rate: 0.3, Seed: 42}
	saM := UnitConfig{Topo: "mesh", SAArch: "wf", SAArb: "m", Rate: 0.3, Seed: 42}
	if saRR.Key() == saM.Key() {
		t.Fatal("sa wf/m and wf/rr collapsed; SA pre-selection arbiters make them distinct units")
	}
}

// TestNormalizedIdempotent pins that normalization is a fixed point.
func TestNormalizedIdempotent(t *testing.T) {
	c := UnitConfig{Topo: "fbfly", VCsPerClass: 4, Rate: 0.5, Seed: 7}.Normalized()
	if c2 := c.Normalized(); c2.Key() != c.Key() {
		t.Fatal("Normalized is not idempotent")
	}
}

// TestValidateRejects pins the validation vocabulary.
func TestValidateRejects(t *testing.T) {
	bad := []UnitConfig{
		{Topo: "hypercube", Rate: 0.1},
		{Topo: "mesh", VCsPerClass: 3, Rate: 0.1},
		{Topo: "mesh", VAArch: "magic", Rate: 0.1},
		{Topo: "mesh", SAArb: "lru", Rate: 0.1},
		{Topo: "mesh", SpecMode: "optimistic", Rate: 0.1},
		{Topo: "mesh", Pattern: "hotspot99", Rate: 0.1},
		{Topo: "mesh", Rate: 1.5},
		{Topo: "mesh", Rate: -0.1},
		{Topo: "mesh", Rate: 0.1, BufDepth: -1},
		{Topo: "mesh", Rate: 0.1, Measure: -5},
		{Topo: "mesh", Rate: 0.1, Process: "poisson"},
		{Topo: "mesh", Rate: 0.1, Process: "trace"},                          // batch-only
		{Topo: "mesh", Rate: 0.1, Process: "trace", TraceDigest: "abc"},      // batch-only even with digest
		{Topo: "mesh", Rate: 0.9, Process: "mmp", Duty: 0.1},                 // ON-phase rate > 1 flit/cycle
		{Topo: "mesh", Rate: 0.1, Process: "mmp", Duty: 1.5},                 // duty > 1
		{Topo: "mesh", Rate: 0.1, Process: "mmp", BurstLen: 0.5},             // burst < 1 cycle
		{Topo: "mesh", Rate: 0.1, Pattern: "hotspot", Hotspots: []int{64}},   // out of range
		{Topo: "mesh", Rate: 0.1, Pattern: "hotspot", Hotspots: []int{3, 3}}, // duplicate
		{Topo: "mesh", Rate: 0.1, Pattern: "hotspot", HotspotFraction: 1.5},  // fraction > 1
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated: %+v", i, cfg)
		}
	}
	good := []UnitConfig{
		{Topo: "fbfly", VCsPerClass: 2, SAArch: "wf", SpecMode: "nonspec", Pattern: "tornado", Rate: 0.4, Seed: 1},
		{Topo: "mesh", Process: "mmp", BurstLen: 16, Duty: 0.5, Rate: 0.3, Seed: 1},
		{Topo: "mesh", Pattern: "hotspot", Hotspots: []int{3, 7}, HotspotFraction: 0.4, Rate: 0.2, Seed: 1},
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("good config %d rejected: %v", i, err)
		}
	}
}

// TestKeyWorkloadCollapse pins the v3 canonicalization rule inherited from
// traffic.Workload.Normalized: parameters irrelevant to the selected
// process/pattern (burst knobs under bernoulli, hotspot knobs under
// uniform, a stray trace digest) are cleared before hashing, so they cannot
// differentiate units.
func TestKeyWorkloadCollapse(t *testing.T) {
	base := UnitConfig{Topo: "mesh", Rate: 0.3, Seed: 42}
	inert := []UnitConfig{
		{Topo: "mesh", Rate: 0.3, Seed: 42, Process: "bernoulli", BurstLen: 64, Duty: 0.5},
		{Topo: "mesh", Rate: 0.3, Seed: 42, Hotspots: []int{3}, HotspotFraction: 0.9},
		{Topo: "mesh", Rate: 0.3, Seed: 42, TraceDigest: "deadbeef"},
	}
	for i, cfg := range inert {
		if cfg.Key() != base.Key() {
			t.Errorf("config %d: inert workload parameters moved the key:\n%s\nvs\n%s",
				i, cfg.Normalized().canonical(), base.Normalized().canonical())
		}
	}
	// And the defaulted spelling of an active parameter collapses onto the
	// explicit default.
	mmpDef := UnitConfig{Topo: "mesh", Rate: 0.3, Seed: 42, Process: "mmp"}
	mmpExpl := UnitConfig{Topo: "mesh", Rate: 0.3, Seed: 42, Process: "mmp", BurstLen: 32, Duty: 0.25}
	if mmpDef.Key() != mmpExpl.Key() {
		t.Error("defaulted and explicit mmp parameters hash differently")
	}
}

// TestBuildSimMatchesBatchPath pins that a unit builds the exact sim.Config
// the batch CLI path builds for the same design point and scale.
func TestBuildSimMatchesBatchPath(t *testing.T) {
	u := UnitConfig{Topo: "mesh", VCsPerClass: 2, Rate: 0.25, Seed: 42, Warmup: 500, Measure: 1000, Drain: 4000}
	cfg, err := u.BuildSim()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workload.Rate != 0.25 || cfg.Seed != 42 {
		t.Fatalf("BuildSim dropped fields: %+v", cfg)
	}
	if cfg.Spec.VCsPerClass != 2 || cfg.Topology == nil || cfg.Routing == nil {
		t.Fatalf("BuildSim missing design point wiring: %+v", cfg)
	}
	if *cfg.ReadFraction != 0.5 || cfg.BufDepth != 8 {
		t.Fatalf("BuildSim defaults wrong: rf=%v buf=%d", *cfg.ReadFraction, cfg.BufDepth)
	}
}

// BenchmarkRunUnitKnee simulates the four sim_saturation units of the
// repository benchmark (bench/gen.go: each design point at its saturation
// knee, phases 125/300/2500) on the default schedule, alone and lent: the
// second borrows from an otherwise idle two-worker Pool, which is what a
// sweepd unit does on a two-worker server, splitting in two once it has
// proved heavy. alone is where the router.Step profile split in
// EXPERIMENTS.md comes from, and the ratio of the two is the "Sharded
// parallel cycle stepper" table there:
//
//	go test -run '^$' -bench RunUnitKnee/alone -benchtime 20x -cpuprofile cpu.prof ./internal/sweep/
func BenchmarkRunUnitKnee(b *testing.B) {
	pool := NewPool(2)
	defer pool.Close()
	for _, leg := range []struct {
		name   string
		lender sim.Lender
	}{{"alone", nil}, {"lent", pool}} {
		for _, u := range []UnitConfig{
			{Topo: "mesh", VCsPerClass: 1, Rate: 0.30, SAArch: "sep_if", SpecMode: "spec_req"},
			{Topo: "mesh", VCsPerClass: 2, Rate: 0.34, SAArch: "wf", SpecMode: "spec_gnt"},
			{Topo: "fbfly", VCsPerClass: 1, Rate: 0.40, SAArch: "sep_of", SpecMode: "nonspec"},
			{Topo: "fbfly", VCsPerClass: 2, Rate: 0.45, SAArch: "wf", SpecMode: "spec_req"},
		} {
			u.Warmup, u.Measure, u.Drain = 125, 300, 2500
			b.Run(fmt.Sprintf("%s/%s_c%d_%s_%s", leg.name, u.Topo, u.VCsPerClass, u.SAArch, u.SpecMode), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := RunUnit(context.Background(), u, leg.lender); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRunUnitLowload simulates the six sim_lowload units of the
// repository benchmark (bench/gen.go: phases 500/1500/8000, loads far below
// saturation) on the default schedule. Set-up, terminals, arrival processes,
// the timing wheel and leaping do the work; the allocators see almost no
// requests, and no unit is heavy enough to borrow a helper.
func BenchmarkRunUnitLowload(b *testing.B) {
	for _, u := range []UnitConfig{
		{Topo: "mesh", VCsPerClass: 1, Rate: 0.001},
		{Topo: "fbfly", VCsPerClass: 1, Rate: 0.002},
		{Topo: "mesh", VCsPerClass: 1, Rate: 0.005, Process: "mmp"},
		{Topo: "fbfly", VCsPerClass: 2, Rate: 0.01},
		{Topo: "mesh", VCsPerClass: 2, Rate: 0.02, Pattern: "hotspot"},
		{Topo: "mesh", VCsPerClass: 1, Rate: 0.02},
	} {
		u.Warmup, u.Measure, u.Drain = 500, 1500, 8000
		name := fmt.Sprintf("%s_c%d_%g", u.Topo, u.VCsPerClass, u.Rate)
		if u.Process != "" {
			name += "_" + u.Process
		}
		if u.Pattern != "" {
			name += "_" + u.Pattern
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := RunUnit(context.Background(), u, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
