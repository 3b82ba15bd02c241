package repro_test

import (
	"testing"

	"repro"
)

// These tests exercise the public facade end to end: everything a
// downstream user touches must be reachable through package repro alone.

func TestFacadeGenericAllocation(t *testing.T) {
	req := repro.NewMatrix(4, 4)
	req.Set(0, 0)
	req.Set(1, 0)
	req.Set(1, 2)
	req.Set(3, 3)

	for _, cfg := range []repro.AllocConfig{
		{Arch: repro.SepIF, Rows: 4, Cols: 4, ArbKind: repro.RoundRobin},
		{Arch: repro.SepOF, Rows: 4, Cols: 4, ArbKind: repro.MatrixArb},
		{Arch: repro.Wavefront, Rows: 4, Cols: 4},
		{Arch: repro.Maximum, Rows: 4, Cols: 4},
	} {
		a := repro.NewAllocator(cfg)
		g := a.Allocate(req)
		if err := repro.ValidateMatching(req, g); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
	}
	if repro.MaxMatchSize(req) != 3 {
		t.Fatalf("MaxMatchSize = %d, want 3", repro.MaxMatchSize(req))
	}
}

func TestFacadeArbiters(t *testing.T) {
	req := repro.NewVec(8)
	req.Set(2)
	req.Set(6)
	for _, a := range []repro.Arbiter{
		repro.NewArbiter(repro.RoundRobin, 8),
		repro.NewArbiter(repro.MatrixArb, 8),
		repro.NewTreeArbiter(repro.RoundRobin, 2, 4),
	} {
		w := a.Pick(req)
		if w != 2 && w != 6 {
			t.Fatalf("winner %d did not request", w)
		}
		a.Update(w)
	}
}

func TestFacadeVCSpecAndAllocators(t *testing.T) {
	spec := repro.NewVCSpec(2, 2, 4)
	if spec.CountLegalTransitions() != 96 {
		t.Fatalf("Fig. 4 count = %d, want 96", spec.CountLegalTransitions())
	}
	va := repro.NewVCAllocator(repro.VCAllocConfig{
		Ports: 10, Spec: spec, Arch: repro.SepIF, ArbKind: repro.RoundRobin, Sparse: true,
	})
	reqs := make([]repro.VCRequest, 10*spec.V())
	reqs[0] = repro.VCRequest{Active: true, OutPort: 5, Candidates: spec.ClassMask(0, 0)}
	grants := va.Allocate(reqs)
	if grants[0] < 0 || grants[0]/spec.V() != 5 {
		t.Fatalf("sole VC request not granted at port 5: %d", grants[0])
	}

	sa := repro.NewSwitchAllocator(repro.SwitchAllocConfig{
		Ports: 10, VCs: spec.V(), Arch: repro.Wavefront, SpecMode: repro.SpecReq,
	})
	sreqs := make([]repro.SwitchRequest, 10*spec.V())
	sreqs[3] = repro.SwitchRequest{Active: true, OutPort: 7}
	sg := sa.Allocate(sreqs)
	if sg[0].OutPort != 7 || sg[0].VC != 3 {
		t.Fatalf("switch grant %+v, want VC 3 -> port 7", sg[0])
	}
}

func TestFacadeCostModel(t *testing.T) {
	tech := repro.Default45nm()
	spec := repro.NewVCSpec(2, 1, 2)
	dense := repro.VCAllocCost(tech, repro.VCAllocConfig{
		Ports: 5, Spec: spec, Arch: repro.SepIF, ArbKind: repro.RoundRobin,
	})
	sparse := repro.VCAllocCost(tech, repro.VCAllocConfig{
		Ports: 5, Spec: spec, Arch: repro.SepIF, ArbKind: repro.RoundRobin, Sparse: true,
	})
	if !dense.Synthesized || !sparse.Synthesized {
		t.Fatal("mesh design points must synthesize")
	}
	if sparse.AreaUM2 >= dense.AreaUM2 {
		t.Fatal("sparse must save area")
	}
	sw := repro.SwitchAllocCost(tech, repro.SwitchAllocConfig{
		Ports: 5, VCs: 4, Arch: repro.SepIF, ArbKind: repro.RoundRobin, SpecMode: repro.SpecReq,
	})
	if !sw.Synthesized || sw.DelayNS <= 0 {
		t.Fatal("switch cost estimate broken")
	}
}

func TestFacadeQuality(t *testing.T) {
	spec := repro.NewVCSpec(2, 1, 2)
	s := repro.VCQualitySeries(repro.VCAllocConfig{
		Ports: 5, Spec: spec, Arch: repro.Wavefront,
	}, []float64{0.5}, 100, 1)
	if s.MinQuality() != 1 {
		t.Fatalf("wavefront VC quality %f, want 1", s.MinQuality())
	}
	sw := repro.SwitchQualitySeries(repro.SwitchAllocConfig{
		Ports: 5, VCs: 4, Arch: repro.SepIF, ArbKind: repro.RoundRobin,
	}, []float64{0.2}, 100, 1)
	if len(sw.Points) != 1 {
		t.Fatal("missing quality point")
	}
	if len(repro.QualityRates()) != 20 {
		t.Fatal("default rates changed")
	}
}

func TestFacadeSimulation(t *testing.T) {
	topo := repro.Mesh(8)
	res := repro.NewNetwork(repro.SimConfig{
		Topology: topo,
		Routing:  repro.NewDOR(topo),
		Spec:     repro.NewVCSpec(2, 1, 1),
		VA:       repro.VCAllocConfig{Arch: repro.SepIF, ArbKind: repro.RoundRobin},
		SA:       repro.SwitchAllocConfig{Arch: repro.SepIF, ArbKind: repro.RoundRobin, SpecMode: repro.SpecReq},
		Workload: repro.Workload{Rate: 0.1},
		Seed:     1,
		Warmup:   300,
		Measure:  700,
		Drain:    4000,
	}).Run()
	if res.Saturated || res.AvgLatency <= 0 {
		t.Fatalf("facade sim run broken: %+v", res)
	}
}

func TestFacadeTrafficPatterns(t *testing.T) {
	if err := (repro.Workload{Pattern: "transpose"}).Validate(64); err != nil {
		t.Fatal(err)
	}
	if err := (repro.Workload{Pattern: "bogus"}).Validate(64); err == nil {
		t.Fatal("unknown pattern should error")
	}
}

func TestFacadeExperiments(t *testing.T) {
	pts := repro.DesignPoints()
	if len(pts) != 6 {
		t.Fatalf("want 6 design points, got %d", len(pts))
	}
	pt, err := repro.DesignPointByName("mesh", 1)
	if err != nil {
		t.Fatal(err)
	}
	rates := repro.InjectionRates(pt)
	if len(rates) == 0 {
		t.Fatal("no injection rates")
	}
	scale := repro.SimScale{Warmup: 100, Measure: 200, Drain: 1000, Seed: 1}
	series := repro.Fig14(pt, rates[:1], scale)
	if len(series) != 3 {
		t.Fatalf("Fig14 series = %d, want 3", len(series))
	}
	cfg := repro.BuildSim(pt, 0.1, scale)
	if cfg.Topology == nil || cfg.Routing == nil {
		t.Fatal("BuildSim incomplete")
	}
}

func TestFacadeRand(t *testing.T) {
	a, b := repro.NewRand(5), repro.NewRand(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("facade rand not deterministic")
		}
	}
}
