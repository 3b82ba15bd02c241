package costmodel

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/core"
)

var tech = Default45nm()

// Paper design points.
var (
	meshPoints = []core.VCSpec{core.NewVCSpec(2, 1, 1), core.NewVCSpec(2, 1, 2), core.NewVCSpec(2, 1, 4)}
	fbPoints   = []core.VCSpec{core.NewVCSpec(2, 2, 1), core.NewVCSpec(2, 2, 2), core.NewVCSpec(2, 2, 4)}
)

func vcCost(p int, s core.VCSpec, arch alloc.Arch, k arbiter.Kind, sparse bool) Estimate {
	return VCAllocCost(tech, core.VCAllocConfig{Ports: p, Spec: s, Arch: arch, ArbKind: k, Sparse: sparse})
}

func swCost(p, v int, arch alloc.Arch, k arbiter.Kind, mode core.SpecMode) Estimate {
	return SwitchAllocCost(tech, core.SwitchAllocConfig{Ports: p, VCs: v, Arch: arch, ArbKind: k, SpecMode: mode})
}

func TestArbiterCostMonotone(t *testing.T) {
	for _, k := range []arbiter.Kind{arbiter.RoundRobin, arbiter.Matrix} {
		for n := 2; n < 64; n *= 2 {
			if tech.ArbiterGE(k, 2*n) <= tech.ArbiterGE(k, n) {
				t.Errorf("%v: GE not monotone at n=%d", k, n)
			}
			if tech.ArbiterDelay(k, 2*n) < tech.ArbiterDelay(k, n) {
				t.Errorf("%v: delay not monotone at n=%d", k, n)
			}
		}
	}
}

func TestMatrixArbiterFasterButLarger(t *testing.T) {
	// §4.3.1: matrix arbiters trade area for (slightly) lower delay.
	for _, n := range []int{4, 8, 16, 32} {
		if tech.ArbiterDelay(arbiter.Matrix, n) >= tech.ArbiterDelay(arbiter.RoundRobin, n) {
			t.Errorf("n=%d: matrix arbiter should be faster", n)
		}
		if tech.ArbiterGE(arbiter.Matrix, n) <= tech.ArbiterGE(arbiter.RoundRobin, n) {
			t.Errorf("n=%d: matrix arbiter should be larger", n)
		}
	}
}

func TestArbiterDelayLogarithmic(t *testing.T) {
	// §2.1: arbiter delay scales approximately logarithmically.
	d8 := tech.ArbiterDelay(arbiter.RoundRobin, 8)
	d64 := tech.ArbiterDelay(arbiter.RoundRobin, 64)
	if d64 > 2.5*d8 {
		t.Fatalf("rr delay growth 8->64 too steep: %f -> %f", d8, d64)
	}
}

func TestWavefrontQuadraticCustomCubicSynth(t *testing.T) {
	// §2.2: full-custom area scales quadratically; the loop-free
	// synthesizable version replicates the array per diagonal (cubic).
	r1 := tech.WavefrontGE(20) / tech.WavefrontGE(10)
	if r1 < 7.5 || r1 > 8.5 {
		t.Errorf("synthesized wavefront GE ratio for 2x size = %.2f, want ~8 (cubic)", r1)
	}
	r2 := tech.WavefrontCustomGE(20) / tech.WavefrontCustomGE(10)
	if r2 < 3.5 || r2 > 4.5 {
		t.Errorf("custom wavefront GE ratio for 2x size = %.2f, want ~4 (quadratic)", r2)
	}
	if tech.WavefrontCustomGE(16) >= tech.WavefrontGE(16) {
		t.Error("custom layout must be smaller than replicated synthesis")
	}
	if tech.WavefrontCustomDelay(16) >= tech.WavefrontDelay(16) {
		t.Error("custom layout must be faster than replicated synthesis")
	}
}

func TestWavefrontDelayApproxLinear(t *testing.T) {
	d10 := tech.WavefrontDelay(10)
	d40 := tech.WavefrontDelay(40)
	if d40 < 2*d10 || d40 > 4.5*d10 {
		t.Fatalf("wavefront delay 10->40 scaled by %.2f, want roughly linear", d40/d10)
	}
}

func TestTreeArbiterFasterThanFlat(t *testing.T) {
	// §4.1: P×V-input arbiters are built as tree arbiters to reduce delay.
	flat := tech.ArbiterDelay(arbiter.RoundRobin, 160)
	tree := tech.TreeArbiterDelay(arbiter.RoundRobin, 10, 16)
	if tree >= flat {
		t.Fatalf("tree arbiter (%.3f) should beat flat 160-input arbiter (%.3f)", tree, flat)
	}
}

// --- Fig. 5 / Fig. 6: VC allocator cost --------------------------------------

func TestSparseImprovesEverything(t *testing.T) {
	// §4.3.1: "sparse VC allocation yields significant improvements across
	// the board": for every synthesizable dense/sparse pair, sparse has
	// lower delay, area and power.
	points := []struct {
		p    int
		spec core.VCSpec
	}{
		{5, meshPoints[0]}, {5, meshPoints[1]}, {5, meshPoints[2]},
		{10, fbPoints[0]}, {10, fbPoints[1]}, {10, fbPoints[2]},
	}
	for _, pt := range points {
		for _, arch := range []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront} {
			for _, k := range []arbiter.Kind{arbiter.RoundRobin, arbiter.Matrix} {
				if arch == alloc.Wavefront && k == arbiter.Matrix {
					continue
				}
				dense := vcCost(pt.p, pt.spec, arch, k, false)
				sparse := vcCost(pt.p, pt.spec, arch, k, true)
				if !dense.Synthesized || !sparse.Synthesized {
					continue
				}
				name := arch.String() + "/" + k.String()
				if sparse.DelayNS >= dense.DelayNS {
					t.Errorf("%s %s P=%d: sparse delay %.3f >= dense %.3f", name, pt.spec, pt.p, sparse.DelayNS, dense.DelayNS)
				}
				if sparse.AreaUM2 >= dense.AreaUM2 {
					t.Errorf("%s %s P=%d: sparse area not smaller", name, pt.spec, pt.p)
				}
				if sparse.PowerMW >= dense.PowerMW {
					t.Errorf("%s %s P=%d: sparse power not smaller", name, pt.spec, pt.p)
				}
			}
		}
	}
}

func TestSparseHeadlineSavings(t *testing.T) {
	// §4.3.1 headline: savings of up to 41% / 90% / 83% in delay / area /
	// power. Our 45nm-class model reproduces the direction with maxima of
	// the same order; assert substantial floors so regressions surface.
	var maxDelay, maxArea, maxPower float64
	for _, pt := range []struct {
		p    int
		spec core.VCSpec
	}{
		{5, meshPoints[0]}, {5, meshPoints[1]}, {5, meshPoints[2]},
		{10, fbPoints[0]}, {10, fbPoints[1]}, {10, fbPoints[2]},
	} {
		for _, arch := range []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront} {
			for _, k := range []arbiter.Kind{arbiter.RoundRobin, arbiter.Matrix} {
				if arch == alloc.Wavefront && k == arbiter.Matrix {
					continue
				}
				dense := vcCost(pt.p, pt.spec, arch, k, false)
				sparse := vcCost(pt.p, pt.spec, arch, k, true)
				if !dense.Synthesized || !sparse.Synthesized {
					continue
				}
				if s := 1 - sparse.DelayNS/dense.DelayNS; s > maxDelay {
					maxDelay = s
				}
				if s := 1 - sparse.AreaUM2/dense.AreaUM2; s > maxArea {
					maxArea = s
				}
				if s := 1 - sparse.PowerMW/dense.PowerMW; s > maxPower {
					maxPower = s
				}
			}
		}
	}
	t.Logf("max sparse savings: delay %.0f%%, area %.0f%%, power %.0f%% (paper: 41/90/83)",
		100*maxDelay, 100*maxArea, 100*maxPower)
	if maxDelay < 0.20 {
		t.Errorf("max delay saving %.2f below 20%% floor", maxDelay)
	}
	if maxArea < 0.60 {
		t.Errorf("max area saving %.2f below 60%% floor", maxArea)
	}
	if maxPower < 0.50 {
		t.Errorf("max power saving %.2f below 50%% floor", maxPower)
	}
}

func TestSparseWavefrontFastestForSingleVCMesh(t *testing.T) {
	// §4.3.1: for design points with a single VC per packet class, the
	// sparse wavefront allocator is the fastest implementation.
	spec := meshPoints[0] // 2x1x1
	wf := vcCost(5, spec, alloc.Wavefront, arbiter.RoundRobin, true)
	for _, arch := range []alloc.Arch{alloc.SepIF, alloc.SepOF} {
		for _, k := range []arbiter.Kind{arbiter.RoundRobin, arbiter.Matrix} {
			e := vcCost(5, spec, arch, k, true)
			if wf.DelayNS >= e.DelayNS {
				t.Errorf("sparse wf (%.3f) should beat sparse %s/%s (%.3f) at mesh 2x1x1",
					wf.DelayNS, arch, k, e.DelayNS)
			}
		}
	}
}

func TestWavefrontDelaySurpassesSeparableAtHighVC(t *testing.T) {
	// §4.3.1: "the wavefront allocator's delay quickly surpasses that of
	// the separable implementations as the number of VCs increases".
	spec := meshPoints[2] // 2x1x4
	wf := vcCost(5, spec, alloc.Wavefront, arbiter.RoundRobin, true)
	sif := vcCost(5, spec, alloc.SepIF, arbiter.Matrix, true)
	if wf.DelayNS <= sif.DelayNS {
		t.Fatalf("wf delay (%.3f) should exceed sep_if/m (%.3f) at mesh 2x1x4", wf.DelayNS, sif.DelayNS)
	}
	if wf.AreaUM2 <= sif.AreaUM2 || wf.PowerMW <= sif.PowerMW {
		t.Fatal("wf area/power should also exceed separable at mesh 2x1x4")
	}
}

func TestSeparableWinsAtHighRadix(t *testing.T) {
	// Conclusions: separable variants offer lower delay and cost for
	// networks with higher radix and more VCs.
	spec := fbPoints[0] // fbfly 2x2x1
	wf := vcCost(10, spec, alloc.Wavefront, arbiter.RoundRobin, true)
	sif := vcCost(10, spec, alloc.SepIF, arbiter.Matrix, true)
	if !wf.Synthesized {
		t.Fatal("sparse wf at fbfly 2x2x1 should synthesize")
	}
	if sif.DelayNS >= wf.DelayNS {
		t.Fatalf("sep_if/m (%.3f) should beat wf (%.3f) at fbfly radix", sif.DelayNS, wf.DelayNS)
	}
}

func TestSynthesisFailuresMatchPaper(t *testing.T) {
	// §4.3.1: DC ran out of memory for the un-optimized wavefront at
	// larger design points; even sparse wavefront failed for the two
	// larger fbfly configurations; at fbfly 2x2x4 only the rr-based
	// separable variants synthesized.
	cases := []struct {
		name   string
		e      Estimate
		expect bool
	}{
		{"dense wf mesh 2x1x1", vcCost(5, meshPoints[0], alloc.Wavefront, arbiter.RoundRobin, false), true},
		{"dense wf mesh 2x1x2", vcCost(5, meshPoints[1], alloc.Wavefront, arbiter.RoundRobin, false), true},
		{"dense wf mesh 2x1x4", vcCost(5, meshPoints[2], alloc.Wavefront, arbiter.RoundRobin, false), false},
		{"sparse wf mesh 2x1x4", vcCost(5, meshPoints[2], alloc.Wavefront, arbiter.RoundRobin, true), true},
		{"sparse wf fbfly 2x2x1", vcCost(10, fbPoints[0], alloc.Wavefront, arbiter.RoundRobin, true), true},
		{"sparse wf fbfly 2x2x2", vcCost(10, fbPoints[1], alloc.Wavefront, arbiter.RoundRobin, true), false},
		{"sparse wf fbfly 2x2x4", vcCost(10, fbPoints[2], alloc.Wavefront, arbiter.RoundRobin, true), false},
		{"sparse sep_if/rr fbfly 2x2x4", vcCost(10, fbPoints[2], alloc.SepIF, arbiter.RoundRobin, true), true},
		{"sparse sep_of/rr fbfly 2x2x4", vcCost(10, fbPoints[2], alloc.SepOF, arbiter.RoundRobin, true), true},
		{"sparse sep_if/m fbfly 2x2x4", vcCost(10, fbPoints[2], alloc.SepIF, arbiter.Matrix, true), false},
		{"sparse sep_of/m fbfly 2x2x4", vcCost(10, fbPoints[2], alloc.SepOF, arbiter.Matrix, true), false},
		{"dense sep_if/m fbfly 2x2x2", vcCost(10, fbPoints[1], alloc.SepIF, arbiter.Matrix, false), true},
	}
	for _, c := range cases {
		if c.e.Synthesized != c.expect {
			t.Errorf("%s: Synthesized = %v, want %v (%s)", c.name, c.e.Synthesized, c.expect, c.e.FailReason)
		}
		if !c.e.Synthesized && c.e.FailReason == "" {
			t.Errorf("%s: failed synthesis must carry a reason", c.name)
		}
	}
}

// --- Fig. 10 / Fig. 11: switch allocator cost --------------------------------

func TestSepIFLowestSwitchDelay(t *testing.T) {
	// §5.3.1: "the separable input-first allocator consistently offers the
	// lowest delay" (comparing like arbiter kinds).
	for _, pt := range []struct{ p, v int }{{5, 2}, {5, 4}, {5, 8}, {10, 4}, {10, 8}, {10, 16}} {
		for _, mode := range []core.SpecMode{core.SpecNone, core.SpecReq, core.SpecGnt} {
			sifM := swCost(pt.p, pt.v, alloc.SepIF, arbiter.Matrix, mode)
			sofM := swCost(pt.p, pt.v, alloc.SepOF, arbiter.Matrix, mode)
			wf := swCost(pt.p, pt.v, alloc.Wavefront, arbiter.RoundRobin, mode)
			if sifM.DelayNS >= sofM.DelayNS {
				t.Errorf("P=%d V=%d %v: sep_if/m (%.3f) should beat sep_of/m (%.3f)",
					pt.p, pt.v, mode, sifM.DelayNS, sofM.DelayNS)
			}
			if sifM.DelayNS >= wf.DelayNS {
				t.Errorf("P=%d V=%d %v: sep_if/m (%.3f) should beat wf (%.3f)",
					pt.p, pt.v, mode, sifM.DelayNS, wf.DelayNS)
			}
		}
	}
}

func TestWavefrontBetweenSepIFAndSepOF(t *testing.T) {
	// §5.3.1: wavefront approaches sep_if for mesh design points and more
	// generally falls between input-first and output-first.
	wfMesh := swCost(5, 2, alloc.Wavefront, arbiter.RoundRobin, core.SpecNone)
	sifMesh := swCost(5, 2, alloc.SepIF, arbiter.Matrix, core.SpecNone)
	if gap := wfMesh.DelayNS/sifMesh.DelayNS - 1; gap > 0.15 {
		t.Errorf("mesh wf should approach sep_if delay; gap %.0f%%", 100*gap)
	}
	for _, pt := range []struct{ p, v int }{{10, 4}, {10, 8}, {10, 16}} {
		wf := swCost(pt.p, pt.v, alloc.Wavefront, arbiter.RoundRobin, core.SpecNone)
		sof := swCost(pt.p, pt.v, alloc.SepOF, arbiter.RoundRobin, core.SpecNone)
		sif := swCost(pt.p, pt.v, alloc.SepIF, arbiter.Matrix, core.SpecNone)
		if !(wf.DelayNS > sif.DelayNS && wf.DelayNS < sof.DelayNS) {
			t.Errorf("P=%d V=%d: wf (%.3f) should fall between sep_if/m (%.3f) and sep_of/rr (%.3f)",
				pt.p, pt.v, wf.DelayNS, sif.DelayNS, sof.DelayNS)
		}
	}
}

func TestSpeculationDelayOrdering(t *testing.T) {
	// Fig. 9 / §5.3.1: nonspec < spec_req (pessimistic) < spec_gnt
	// (conventional) in delay, for every architecture and design point.
	for _, pt := range []struct{ p, v int }{{5, 2}, {5, 4}, {5, 8}, {10, 4}, {10, 8}, {10, 16}} {
		for _, arch := range []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront} {
			ns := swCost(pt.p, pt.v, arch, arbiter.RoundRobin, core.SpecNone)
			pr := swCost(pt.p, pt.v, arch, arbiter.RoundRobin, core.SpecReq)
			cg := swCost(pt.p, pt.v, arch, arbiter.RoundRobin, core.SpecGnt)
			if !(ns.DelayNS < pr.DelayNS && pr.DelayNS < cg.DelayNS) {
				t.Errorf("P=%d V=%d %s: delay ordering violated: %.3f / %.3f / %.3f",
					pt.p, pt.v, arch, ns.DelayNS, pr.DelayNS, cg.DelayNS)
			}
			if cg.AreaUM2 <= ns.AreaUM2 {
				t.Errorf("P=%d V=%d %s: speculative allocator should cost more area", pt.p, pt.v, arch)
			}
		}
	}
}

func TestPessimisticHeadlineSaving(t *testing.T) {
	// §5.3.1: pessimistic speculation reduces switch allocator delay by up
	// to 23% vs conventional, most pronounced for the wavefront allocator.
	var maxSave float64
	var maxArch alloc.Arch
	for _, pt := range []struct{ p, v int }{{5, 2}, {5, 4}, {5, 8}, {10, 4}, {10, 8}, {10, 16}} {
		for _, arch := range []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront} {
			pr := swCost(pt.p, pt.v, arch, arbiter.RoundRobin, core.SpecReq)
			cg := swCost(pt.p, pt.v, arch, arbiter.RoundRobin, core.SpecGnt)
			if s := 1 - pr.DelayNS/cg.DelayNS; s > maxSave {
				maxSave, maxArch = s, arch
			}
		}
	}
	t.Logf("max pessimistic delay saving: %.0f%% (%s; paper: up to 23%%, most pronounced for wf)",
		100*maxSave, maxArch)
	if maxSave < 0.15 || maxSave > 0.30 {
		t.Errorf("max pessimistic saving %.2f outside [0.15, 0.30]", maxSave)
	}
	if maxArch != alloc.Wavefront {
		t.Errorf("max saving arch = %s, want wf", maxArch)
	}
}

func TestPessimisticApproachesNonspecDelay(t *testing.T) {
	// §5.3.1: the pessimistic implementation "in many cases approaches
	// that of a non-speculative implementation".
	for _, pt := range []struct{ p, v int }{{5, 2}, {10, 8}} {
		ns := swCost(pt.p, pt.v, alloc.SepIF, arbiter.RoundRobin, core.SpecNone)
		pr := swCost(pt.p, pt.v, alloc.SepIF, arbiter.RoundRobin, core.SpecReq)
		if pr.DelayNS > 1.12*ns.DelayNS {
			t.Errorf("P=%d V=%d: spec_req delay %.3f too far above nonspec %.3f",
				pt.p, pt.v, pr.DelayNS, ns.DelayNS)
		}
	}
}

func TestEstimateInternalConsistency(t *testing.T) {
	e := swCost(5, 2, alloc.SepIF, arbiter.RoundRobin, core.SpecNone)
	if !e.Synthesized {
		t.Fatal("tiny design must synthesize")
	}
	wantArea := e.GateEquivalents * tech.AreaPerGE
	if e.AreaUM2 != wantArea {
		t.Errorf("area %.1f != GE*AreaPerGE %.1f", e.AreaUM2, wantArea)
	}
	wantPower := tech.Activity * tech.EnergyPerGE * e.GateEquivalents / e.DelayNS
	if e.PowerMW != wantPower {
		t.Errorf("power %.4f != expected %.4f", e.PowerMW, wantPower)
	}
}

func TestUnknownKindsPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { tech.ArbiterGE(arbiter.Kind(9), 4) },
		func() { tech.ArbiterDelay(arbiter.Kind(9), 4) },
		func() {
			VCAllocCost(tech, core.VCAllocConfig{Ports: 5, Spec: core.NewVCSpec(1, 1, 1), Arch: alloc.Arch(9)})
		},
		func() {
			SwitchAllocCost(tech, core.SwitchAllocConfig{Ports: 5, VCs: 2, Arch: alloc.Arch(9)})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestORTreeEdges(t *testing.T) {
	if tech.ORTreeGE(1) != 0 || tech.ORTreeDelay(1) != 0 {
		t.Error("1-input OR tree should be free")
	}
	if tech.ORTreeGE(8) != 7 {
		t.Errorf("8-input OR tree GE = %f, want 7", tech.ORTreeGE(8))
	}
}

func TestComponentBreakdownSumsToTotal(t *testing.T) {
	for _, pt := range []struct {
		p    int
		spec core.VCSpec
	}{{5, meshPoints[0]}, {5, meshPoints[2]}, {10, fbPoints[0]}} {
		for _, arch := range []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront} {
			e := vcCost(pt.p, pt.spec, arch, arbiter.RoundRobin, true)
			if !e.Synthesized {
				continue
			}
			if len(e.Components) == 0 {
				t.Fatalf("%v %s: no component breakdown", arch, pt.spec)
			}
			var sum float64
			onPath := false
			for _, c := range e.Components {
				if c.GE < 0 || c.Name == "" {
					t.Fatalf("%v: bad component %+v", arch, c)
				}
				sum += c.GE
				onPath = onPath || c.OnCriticalPath
			}
			if diff := sum - e.GateEquivalents; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("%v %s: components sum %.1f != total %.1f", arch, pt.spec, sum, e.GateEquivalents)
			}
			if !onPath {
				t.Fatalf("%v: no component marked on the critical path", arch)
			}
		}
	}
}

// BenchmarkAblationWavefrontImpl compares the synthesis cost of the paper's
// loop-free replicated wavefront against the full-custom single-array bound
// (§2.2).
func BenchmarkAblationWavefrontImpl(b *testing.B) {
	b.Run("replicated", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tech.WavefrontGE(40) <= tech.WavefrontCustomGE(40) {
				b.Fatal("replicated must cost more")
			}
		}
	})
	b.Run("custom", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = tech.WavefrontCustomDelay(40)
		}
	})
}
