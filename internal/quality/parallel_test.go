package quality

import (
	"runtime"
	"testing"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/core"
)

func seriesEqual(t *testing.T, label string, a, b []Series) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d series vs %d", label, len(a), len(b))
	}
	for k := range a {
		if a[k].Name != b[k].Name {
			t.Fatalf("%s: series %d name %q vs %q", label, k, a[k].Name, b[k].Name)
		}
		if len(a[k].Points) != len(b[k].Points) {
			t.Fatalf("%s: series %q has %d vs %d points", label, a[k].Name, len(a[k].Points), len(b[k].Points))
		}
		for i := range a[k].Points {
			if a[k].Points[i] != b[k].Points[i] {
				t.Fatalf("%s: series %q point %d differs: %+v vs %+v",
					label, a[k].Name, i, a[k].Points[i], b[k].Points[i])
			}
		}
	}
}

// TestVCSeriesMultiWorkerInvariance pins the harness contract: results are
// bit-identical for any worker count and match sequential per-config runs.
func TestVCSeriesMultiWorkerInvariance(t *testing.T) {
	spec := core.NewVCSpec(2, 1, 2)
	var cfgs []core.VCAllocConfig
	for _, arch := range []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront} {
		cfgs = append(cfgs, core.VCAllocConfig{Ports: 5, Spec: spec, Arch: arch, ArbKind: arbiter.RoundRobin})
	}
	rates := []float64{0.3, 0.7, 1.0}
	const trials, seed = 100, 42

	base := VCSeriesMulti(cfgs, rates, trials, seed, 1)
	for _, workers := range []int{4, runtime.NumCPU()} {
		got := VCSeriesMulti(cfgs, rates, trials, seed, workers)
		seriesEqual(t, "vc workers", base, got)
	}
	// Sequential single-config runs must agree point for point.
	for k, cfg := range cfgs {
		seq := VCSeriesMulti([]core.VCAllocConfig{cfg}, rates, trials, seed, 1)[0]
		seriesEqual(t, "vc sequential", []Series{base[k]}, []Series{seq})
	}
}

// TestSwitchSeriesMultiWorkerInvariance is the switch-allocation analogue.
func TestSwitchSeriesMultiWorkerInvariance(t *testing.T) {
	var cfgs []core.SwitchAllocConfig
	for _, arch := range []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront} {
		cfgs = append(cfgs, core.SwitchAllocConfig{Ports: 5, VCs: 4, Arch: arch, ArbKind: arbiter.RoundRobin})
	}
	rates := []float64{0.3, 0.7, 1.0}
	const trials, seed = 100, 42

	base := SwitchSeriesMulti(cfgs, rates, trials, seed, 1)
	for _, workers := range []int{4, runtime.NumCPU()} {
		got := SwitchSeriesMulti(cfgs, rates, trials, seed, workers)
		seriesEqual(t, "sw workers", base, got)
	}
	for k, cfg := range cfgs {
		seq := SwitchSeriesMulti([]core.SwitchAllocConfig{cfg}, rates, trials, seed, 1)[0]
		seriesEqual(t, "sw sequential", []Series{base[k]}, []Series{seq})
	}
}
