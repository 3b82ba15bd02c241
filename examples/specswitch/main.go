// Specswitch: quantify what speculative switch allocation buys on the
// flattened butterfly — zero-load latency per scheme (Fig. 14) plus the
// hardware delay each scheme costs (Fig. 10), illustrating the paper's
// trade-off: the pessimistic scheme keeps nearly all of the latency benefit
// at a fraction of the conventional scheme's critical-path cost.
package main

import (
	"fmt"

	"repro"
)

func main() {
	topo := repro.FlattenedButterfly(4, 4)
	tech := repro.Default45nm()

	fmt.Println("fbfly 4x4 c=4, 2x2x1 VCs, sep_if switch allocator")
	fmt.Println("scheme    zero-load latency   allocator delay (ns)")
	for _, mode := range []repro.SpecMode{repro.SpecNone, repro.SpecReq, repro.SpecGnt} {
		cfg := repro.SimConfig{
			Topology: topo,
			Routing:  repro.NewUGAL(topo, 1),
			Spec:     repro.NewVCSpec(2, 2, 1),
			VA:       repro.VCAllocConfig{Arch: repro.SepIF, ArbKind: repro.RoundRobin},
			SA: repro.SwitchAllocConfig{
				Arch: repro.SepIF, ArbKind: repro.RoundRobin, SpecMode: mode,
			},
			Workload: repro.Workload{Rate: 0.05},
			Seed:     3,
			Warmup:   1000,
			Measure:  3000,
			Drain:    8000,
		}
		res := repro.NewNetwork(cfg).Run()
		est := repro.SwitchAllocCost(tech, repro.SwitchAllocConfig{
			Ports: 10, VCs: 4, Arch: repro.SepIF, ArbKind: repro.RoundRobin, SpecMode: mode,
		})
		fmt.Printf("%-9s %10.1f cycles %14.3f\n", mode, res.AvgLatency, est.DelayNS)
	}
	fmt.Println("\nExpected shape (paper §5.2/§5.3): both speculative schemes cut")
	fmt.Println("zero-load latency equally; spec_req pays almost no delay over the")
	fmt.Println("non-speculative allocator, while spec_gnt pays for its grant-based")
	fmt.Println("conflict masking.")
}
