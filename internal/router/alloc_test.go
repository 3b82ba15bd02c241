package router

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/traffic"
)

// TestStepSteadyStateZeroAlloc locks in the zero-allocation steady state:
// once warmed up, a router cycle (accept, Step, credit return) must not touch
// the heap, so simulation throughput is not GC-bound. Both request schedules
// are covered: the default change-driven path (dirty masks, cached request
// vectors) and the DenseRequests reference rebuild.
func TestStepSteadyStateZeroAlloc(t *testing.T) {
	for _, mode := range []core.SpecMode{core.SpecNone, core.SpecReq, core.SpecGnt} {
		for _, dense := range []bool{false, true} {
			name := mode.String() + "/dirty"
			if dense {
				name = mode.String() + "/denserequests"
			}
			t.Run(name, func(t *testing.T) {
				cfg := testConfig(mode)
				cfg.DenseRequests = dense
				r := New(cfg)
				// Pre-built single-flit packets, recycled through the router so
				// the measured loop performs no packet construction of its own.
				flits := make([]*Flit, 16)
				for i := range flits {
					flits[i] = MakeFlits(mkPacket(int64(i), traffic.ReadRequest, 0))[0]
				}
				next := 0
				cycle := func() {
					if r.InputOccupancy(0, 0) < 4 {
						r.AcceptFlit(0, 0, flits[next%len(flits)])
						next++
					}
					deps, _ := r.Step()
					for _, d := range deps {
						r.AcceptCredit(d.OutPort, d.OutVC)
					}
				}
				for i := 0; i < 100; i++ { // reach steady state first
					cycle()
				}
				if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
					t.Fatalf("steady-state router cycle allocates %.2f times, want 0", avg)
				}
			})
		}
	}
}

// TestRouterNewLayout pins the router's own share of construction: beyond its
// two allocators (core.NewAllocators, pinned by the core layout tests) a
// router is eight blocks — the Router, four per-VC slices, the int32 column
// slab and the vector slab's two — whatever its size. The per-port VC masks
// live on the vector slab's word backing, not in a block of their own.
func TestRouterNewLayout(t *testing.T) {
	const want = 8
	runtime.GC() // see core.TestSwitchAllocatorLayout
	for _, size := range []struct {
		p    int
		spec core.VCSpec
	}{{5, core.NewVCSpec(2, 1, 1)}, {10, core.NewVCSpec(2, 2, 4)}} {
		cfg := testConfig(core.SpecReq)
		cfg.Ports, cfg.Spec = size.p, size.spec
		va, sa := cfg.VA, cfg.SA
		va.Ports, va.Spec, sa.Ports, sa.VCs = size.p, size.spec, size.p, size.spec.V()
		allocators := testing.AllocsPerRun(5, func() { core.NewAllocators(va, sa) })
		if got := testing.AllocsPerRun(5, func() { New(cfg) }) - allocators; got > want {
			t.Errorf("%d ports × %s: router.New makes %v allocations of its own, want %d", size.p, size.spec, got, want)
		}
	}
}
