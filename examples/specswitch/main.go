// Specswitch: quantify what speculative switch allocation buys on the
// flattened butterfly — zero-load latency per scheme (Fig. 14) plus the
// hardware delay each scheme costs (Fig. 10), illustrating the paper's
// trade-off: the pessimistic scheme keeps nearly all of the latency benefit
// at a fraction of the conventional scheme's critical-path cost.
package main

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func main() {
	topo := topology.FlattenedButterfly(4, 4)
	tech := costmodel.Default45nm()

	fmt.Println("fbfly 4x4 c=4, 2x2x1 VCs, sep_if switch allocator")
	fmt.Println("scheme    zero-load latency   allocator delay (ns)")
	for _, mode := range []core.SpecMode{core.SpecNone, core.SpecReq, core.SpecGnt} {
		cfg := sim.Config{
			Topology: topo,
			Routing:  routing.NewUGAL(topo, 1),
			Spec:     core.NewVCSpec(2, 2, 1),
			VA:       core.VCAllocConfig{Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin},
			SA: core.SwitchAllocConfig{
				Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin, SpecMode: mode,
			},
			Workload: traffic.Workload{Rate: 0.05},
			Seed:     3,
			Warmup:   1000,
			Measure:  3000,
			Drain:    8000,
		}
		res := sim.New(cfg).Run()
		est := costmodel.SwitchAllocCost(tech, core.SwitchAllocConfig{
			Ports: 10, VCs: 4, Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin, SpecMode: mode,
		})
		fmt.Printf("%-9s %10.1f cycles %14.3f\n", mode, res.AvgLatency, est.DelayNS)
	}
	fmt.Println("\nExpected shape (paper §5.2/§5.3): both speculative schemes cut")
	fmt.Println("zero-load latency equally; spec_req pays almost no delay over the")
	fmt.Println("non-speculative allocator, while spec_gnt pays for its grant-based")
	fmt.Println("conflict masking.")
}
