package quality

import (
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/core"
)

const testTrials = 400

func vcCfg(p int, spec core.VCSpec, arch alloc.Arch) core.VCAllocConfig {
	return core.VCAllocConfig{Ports: p, Spec: spec, Arch: arch, ArbKind: arbiter.RoundRobin}
}

func swCfg(p, v int, arch alloc.Arch) core.SwitchAllocConfig {
	return core.SwitchAllocConfig{Ports: p, VCs: v, Arch: arch, ArbKind: arbiter.RoundRobin}
}

func TestDefaultRates(t *testing.T) {
	rates := DefaultRates()
	if len(rates) != 20 || rates[0] != 0.05 || rates[19] != 1.0 {
		t.Fatalf("unexpected default rates: %v", rates)
	}
	for i := 1; i < len(rates); i++ {
		if rates[i] <= rates[i-1] {
			t.Fatal("rates must be increasing")
		}
	}
}

func TestVCWorkloadLegality(t *testing.T) {
	spec := core.NewVCSpec(2, 2, 2)
	w := NewVCWorkload(5, spec, 7)
	v := spec.V()
	for trial := 0; trial < 50; trial++ {
		reqs := w.Next(0.5)
		for i, r := range reqs {
			if !r.Active {
				continue
			}
			if r.OutPort < 0 || r.OutPort >= 5 {
				t.Fatalf("bad out port %d", r.OutPort)
			}
			vc := i % v
			sm := spec.SuccessorMask(vc)
			ok := true
			r.Candidates.ForEach(func(c int) {
				if !sm.Get(c) {
					ok = false
				}
			})
			if !ok {
				t.Fatalf("workload produced illegal candidate set for VC %d", vc)
			}
		}
	}
}

func TestVCWorkloadRate(t *testing.T) {
	spec := core.NewVCSpec(2, 1, 2)
	w := NewVCWorkload(5, spec, 11)
	active := 0
	total := 0
	for trial := 0; trial < 500; trial++ {
		for _, r := range w.Next(0.3) {
			total++
			if r.Active {
				active++
			}
		}
	}
	rate := float64(active) / float64(total)
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("empirical request rate %.3f, want ~0.30", rate)
	}
}

func TestVCWorkloadDeterministic(t *testing.T) {
	spec := core.NewVCSpec(2, 1, 2)
	a := NewVCWorkload(5, spec, 3)
	b := NewVCWorkload(5, spec, 3)
	for trial := 0; trial < 20; trial++ {
		ra := a.Next(0.5)
		rb := b.Next(0.5)
		for i := range ra {
			if ra[i].Active != rb[i].Active || ra[i].OutPort != rb[i].OutPort {
				t.Fatal("same seed must give same workload")
			}
		}
	}
}

func TestFig7SingleVCPerClassQualityOne(t *testing.T) {
	// Fig. 7(a)/(d): with one VC per class every allocator has constant
	// quality 1 at all rates.
	for _, pt := range []struct {
		p    int
		spec core.VCSpec
	}{{5, core.NewVCSpec(2, 1, 1)}, {10, core.NewVCSpec(2, 2, 1)}} {
		var cfgs []core.VCAllocConfig
		for _, arch := range []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront} {
			cfgs = append(cfgs, vcCfg(pt.p, pt.spec, arch))
		}
		for _, s := range VCSeriesMulti(cfgs, []float64{0.2, 0.6, 1.0}, testTrials, 21, 1) {
			for _, p := range s.Points {
				if p.Quality != 1 {
					t.Errorf("%s %s rate %.1f: quality %.4f, want exactly 1",
						s.Name, pt.spec, p.Rate, p.Quality)
				}
			}
		}
	}
}

func TestFig7WavefrontQualityOne(t *testing.T) {
	// §4.3.2: "a wavefront-based VC allocator yields a matching quality of
	// 1 for all configurations".
	for _, pt := range []struct {
		p    int
		spec core.VCSpec
	}{{5, core.NewVCSpec(2, 1, 2)}, {5, core.NewVCSpec(2, 1, 4)}, {10, core.NewVCSpec(2, 2, 2)}} {
		s := VCSeriesMulti([]core.VCAllocConfig{vcCfg(pt.p, pt.spec, alloc.Wavefront)}, []float64{0.3, 0.7, 1.0}, testTrials, 23, 1)[0]
		for _, p := range s.Points {
			if p.Quality != 1 {
				t.Errorf("wf %s rate %.1f: quality %.4f, want 1", pt.spec, p.Rate, p.Quality)
			}
		}
	}
}

func TestFig7SeparableDegradesWithLoadAndVCs(t *testing.T) {
	// §4.3.2: separable quality decreases with higher injection rates and
	// more VCs per class; input-first stays above output-first.
	spec2 := core.NewVCSpec(2, 1, 2)
	spec4 := core.NewVCSpec(2, 1, 4)
	rates := []float64{0.2, 1.0}

	sif2 := VCSeriesMulti([]core.VCAllocConfig{vcCfg(5, spec2, alloc.SepIF)}, rates, testTrials, 29, 1)[0]
	s4 := VCSeriesMulti([]core.VCAllocConfig{vcCfg(5, spec4, alloc.SepIF), vcCfg(5, spec4, alloc.SepOF)}, rates, testTrials, 29, 1)
	sif4, sof4 := s4[0], s4[1]

	if !(sif4.Points[1].Quality < sif4.Points[0].Quality) {
		t.Errorf("sep_if 2x1x4: quality should fall with rate: %v", sif4.Points)
	}
	if !(sif4.Points[1].Quality < sif2.Points[1].Quality) {
		t.Errorf("sep_if: quality at 4 VCs/class (%.4f) should be below 2 VCs/class (%.4f)",
			sif4.Points[1].Quality, sif2.Points[1].Quality)
	}
	if !(sif4.Points[1].Quality > sof4.Points[1].Quality) {
		t.Errorf("sep_if (%.4f) should beat sep_of (%.4f) under load",
			sif4.Points[1].Quality, sof4.Points[1].Quality)
	}
	if sof4.MinQuality() < 0.5 {
		t.Errorf("sep_of quality %.4f implausibly low", sof4.MinQuality())
	}
}

func TestFig12SwitchQualityShapes(t *testing.T) {
	// Fig. 12: at low load all allocators are near 1; under load wf stays
	// above sep_of, which stays above sep_if (which flattens out).
	p, v := 10, 8
	rates := []float64{0.05, 0.5, 1.0}
	series := SwitchSeriesMulti([]core.SwitchAllocConfig{
		swCfg(p, v, alloc.Wavefront), swCfg(p, v, alloc.SepOF), swCfg(p, v, alloc.SepIF),
	}, rates, testTrials, 31, 1)
	wf, sof, sif := series[0], series[1], series[2]

	for _, s := range series {
		if s.Points[0].Quality < 0.95 {
			t.Errorf("%s: low-load quality %.4f should be near 1", s.Name, s.Points[0].Quality)
		}
	}
	if !(wf.Points[2].Quality > sof.Points[2].Quality) {
		t.Errorf("wf (%.4f) should beat sep_of (%.4f) at saturation",
			wf.Points[2].Quality, sof.Points[2].Quality)
	}
	if !(sof.Points[2].Quality > sif.Points[2].Quality) {
		t.Errorf("sep_of (%.4f) should beat sep_if (%.4f) at saturation",
			sof.Points[2].Quality, sif.Points[2].Quality)
	}
}

func TestFig12WavefrontDipAndRecover(t *testing.T) {
	// §5.3.2: wavefront quality initially decreases with rate, then rises
	// again as the maximum-size allocator hits its natural limit.
	p, v := 10, 16
	rates := []float64{0.05, 0.35, 1.0}
	wf := SwitchSeriesMulti([]core.SwitchAllocConfig{swCfg(p, v, alloc.Wavefront)}, rates, 600, 37, 1)[0]
	lo, mid, hi := wf.Points[0].Quality, wf.Points[1].Quality, wf.Points[2].Quality
	if !(mid < lo) {
		t.Errorf("wf quality should dip: low %.4f, mid %.4f", lo, mid)
	}
	if !(hi > mid) {
		t.Errorf("wf quality should recover at saturation: mid %.4f, high %.4f", mid, hi)
	}
}

func TestSeparableInputFirstFlattens(t *testing.T) {
	// §5.3.2: sep_if is limited to one request per input port in stage 2,
	// so its quality at saturation is markedly below wavefront for large
	// request matrices.
	p, v := 10, 16
	s := SwitchSeriesMulti([]core.SwitchAllocConfig{swCfg(p, v, alloc.Wavefront), swCfg(p, v, alloc.SepIF)}, []float64{1.0}, 600, 41, 1)
	gap := s[0].Points[0].Quality - s[1].Points[0].Quality
	if gap < 0.02 {
		t.Errorf("wf-sep_if saturation quality gap %.4f too small", gap)
	}
}

func TestSwitchSeriesForcesNonspec(t *testing.T) {
	cfg := swCfg(5, 2, alloc.SepIF)
	cfg.SpecMode = core.SpecGnt
	s := SwitchSeriesMulti([]core.SwitchAllocConfig{cfg}, []float64{0.5}, 50, 1, 1)[0]
	if !strings.Contains(s.Name, "nonspec") {
		t.Fatalf("quality must be measured on the base allocator, got %q", s.Name)
	}
}

func TestSeriesHelpers(t *testing.T) {
	s := Series{Name: "x", Points: []Point{{Rate: 0.2, Quality: 0.9}, {Rate: 0.8, Quality: 0.7}}}
	if s.MinQuality() != 0.7 {
		t.Errorf("MinQuality = %f", s.MinQuality())
	}
	if s.QualityAt(0.75) != 0.7 || s.QualityAt(0.1) != 0.9 {
		t.Error("QualityAt picked wrong sample")
	}
	out := FormatSeries([]Series{s})
	if !strings.Contains(out, "rate\tx") || !strings.Contains(out, "0.20\t0.9000") {
		t.Errorf("FormatSeries output unexpected:\n%s", out)
	}
	if FormatSeries(nil) != "" {
		t.Error("empty FormatSeries should be empty")
	}
}

func TestQualityAtEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Series{}.QualityAt(0.5)
}

func TestQualityNeverExceedsOne(t *testing.T) {
	// The maximum-size reference bounds every allocator.
	var vcs []core.VCAllocConfig
	var sws []core.SwitchAllocConfig
	for _, arch := range []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront} {
		vcs = append(vcs, vcCfg(5, core.NewVCSpec(2, 1, 4), arch))
		sws = append(sws, swCfg(5, 4, arch))
	}
	rates := []float64{0.5, 1.0}
	series := append(VCSeriesMulti(vcs, rates, 200, 43, 1), SwitchSeriesMulti(sws, rates, 200, 43, 1)...)
	for _, s := range series {
		for _, p := range s.Points {
			if p.Quality > 1.0000001 {
				t.Errorf("%s: quality %.6f exceeds 1", s.Name, p.Quality)
			}
		}
	}
}

func BenchmarkVCQualityPoint(b *testing.B) {
	cfg := vcCfg(5, core.NewVCSpec(2, 1, 2), alloc.SepIF)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VCSeriesMulti([]core.VCAllocConfig{cfg}, []float64{0.5}, 100, 1, 1)
	}
}
