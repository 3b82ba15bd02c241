package core_test

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/quality"
	"repro/internal/xrand"
)

// The VC allocator benches run dense Allocate over a pool of request sets
// from the open-loop quality workload at rate 0.5 — what matchquality and the
// benchmark's core.vcalloc_* probes time — on the paper's largest mesh and
// fbfly design points, with the dense and the sparse (§4.2) organization.

func BenchmarkVCAllocMeshSepIF(b *testing.B)  { benchVC(b, 5, core.NewVCSpec(2, 1, 4), alloc.SepIF) }
func BenchmarkVCAllocMeshSepOF(b *testing.B)  { benchVC(b, 5, core.NewVCSpec(2, 1, 4), alloc.SepOF) }
func BenchmarkVCAllocFbflySepIF(b *testing.B) { benchVC(b, 10, core.NewVCSpec(2, 2, 4), alloc.SepIF) }
func BenchmarkVCAllocFbflySepOF(b *testing.B) { benchVC(b, 10, core.NewVCSpec(2, 2, 4), alloc.SepOF) }
func BenchmarkVCAllocMeshWavefront(b *testing.B) {
	benchVC(b, 5, core.NewVCSpec(2, 1, 4), alloc.Wavefront)
}
func BenchmarkVCAllocFbflyWavefront(b *testing.B) {
	benchVC(b, 10, core.NewVCSpec(2, 2, 4), alloc.Wavefront)
}

var vcGrantSink []int

func benchVC(b *testing.B, p int, spec core.VCSpec, arch alloc.Arch) {
	w := quality.NewVCWorkload(p, spec, 1)
	pool := make([][]core.VCRequest, 64)
	for i := range pool {
		pool[i] = append([]core.VCRequest(nil), w.Next(0.5)...)
	}
	for _, sparse := range []bool{false, true} {
		name := "dense"
		if sparse {
			name = "sparse"
		}
		b.Run(name, func(b *testing.B) {
			a := core.NewVCAllocator(core.VCAllocConfig{Ports: p, Spec: spec, Arch: arch, ArbKind: arbiter.RoundRobin, Sparse: sparse})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vcGrantSink = a.Allocate(pool[i%len(pool)])
			}
		})
	}
}

// BenchmarkAblationSparseVCAlloc compares dense and sparse VC allocation
// throughput at the fbfly 2x2x4 design point (the sparse scheme also wins
// in software because the per-class engines are smaller).
func BenchmarkAblationSparseVCAlloc(b *testing.B) {
	spec := core.NewVCSpec(2, 2, 4)
	reqs := make([]core.VCRequest, 10*spec.V())
	rng := xrand.New(3)
	for i := range reqs {
		if rng.Bool(0.5) {
			m, r, _ := spec.Decompose(i % spec.V())
			lo, hi := spec.SuccessorClasses(r)
			reqs[i] = core.VCRequest{
				Active:     true,
				OutPort:    rng.Intn(10),
				Candidates: spec.ClassMask(m, lo+rng.Intn(hi-lo)),
			}
		}
	}
	for _, sparse := range []bool{false, true} {
		name := "dense"
		if sparse {
			name = "sparse"
		}
		b.Run(name, func(b *testing.B) {
			a := core.NewVCAllocator(core.VCAllocConfig{
				Ports: 10, Spec: spec, Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin, Sparse: sparse,
			})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.Allocate(reqs)
			}
		})
	}
}
