// Sparsevc: size a VC allocator for a custom router with the synthesis cost
// model and show what the sparse VC allocation scheme of §4.2 saves.
//
// The scenario: a P = 5 router with two message classes, two resource
// classes (two-phase routing, as in UGAL's Valiant and minimal phases) and
// two VCs per class — a design point the paper does not tabulate directly.
package main

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/xrand"
)

func main() {
	tech := costmodel.Default45nm()
	spec := core.NewVCSpec(2, 2, 2) // two-phase routing: V = 8

	fmt.Printf("a P = 5 router, 2 message × 2 resource classes (two-phase routing), VCs %s (V=%d)\n", spec, spec.V())
	fmt.Printf("legal VC transitions: %d of %d\n\n", spec.CountLegalTransitions(), spec.V()*spec.V())

	fmt.Println("variant      scheme  delay(ns)  area(µm²)  power(mW)")
	for _, arch := range []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront} {
		for _, sparse := range []bool{false, true} {
			cfg := core.VCAllocConfig{
				Ports: 5, Spec: spec, Arch: arch, ArbKind: arbiter.RoundRobin, Sparse: sparse,
			}
			est := costmodel.VCAllocCost(tech, cfg)
			scheme := "dense"
			if sparse {
				scheme = "sparse"
			}
			if !est.Synthesized {
				fmt.Printf("%-12s %-7s synthesis failed: %s\n", arch, scheme, est.FailReason)
				continue
			}
			fmt.Printf("%-12s %-7s %8.3f  %9.0f  %9.2f\n",
				arch, scheme, est.DelayNS, est.AreaUM2, est.PowerMW)
		}
	}

	// Functional check: the sparse allocator grants exactly as well as the
	// dense one on router-shaped traffic, where each head flit requests one
	// (message class, resource class) group of VCs — there the wavefront
	// allocator is maximum per class in both layouts.
	dense := core.NewVCAllocator(core.VCAllocConfig{Ports: 5, Spec: spec, Arch: alloc.Wavefront})
	sparse := core.NewVCAllocator(core.VCAllocConfig{Ports: 5, Spec: spec, Arch: alloc.Wavefront, Sparse: true})
	rng := xrand.New(1)
	reqs := make([]core.VCRequest, 5*spec.V())
	for i := range reqs {
		if rng.Bool(0.5) {
			m, r, _ := spec.Decompose(i % spec.V())
			lo, hi := spec.SuccessorClasses(r)
			reqs[i] = core.VCRequest{
				Active:     true,
				OutPort:    rng.Intn(5),
				Candidates: spec.ClassMask(m, lo+rng.Intn(hi-lo)),
			}
		}
	}
	gd, gs := 0, 0
	for _, g := range dense.Allocate(reqs) {
		if g >= 0 {
			gd++
		}
	}
	for _, g := range sparse.Allocate(reqs) {
		if g >= 0 {
			gs++
		}
	}
	fmt.Printf("\nfunctional check: dense wavefront granted %d, sparse granted %d (must match)\n", gd, gs)
}
