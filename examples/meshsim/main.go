// Meshsim: run the paper's 8×8 mesh (§3.2) through a short latency-vs-load
// sweep with a wavefront switch allocator and pessimistic speculation, and
// print the resulting curve — a miniature of Fig. 13(a-c).
package main

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

func main() {
	topo := topology.Mesh(8)
	base := sim.Config{
		Topology: topo,
		Routing:  routing.NewDOR(topo),
		// 2 message classes (request/reply), 1 resource class, 2 VCs per
		// class — the paper's mesh 2x1x2 design point.
		Spec: core.NewVCSpec(2, 1, 2),
		VA:   core.VCAllocConfig{Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin},
		SA: core.SwitchAllocConfig{
			Arch:     alloc.Wavefront,
			ArbKind:  arbiter.RoundRobin,
			SpecMode: core.SpecReq,
		},
		Seed:    7,
		Warmup:  1000,
		Measure: 3000,
		Drain:   10000,
	}

	fmt.Println("8x8 mesh, 2x1x2 VCs, wf switch allocator, pessimistic speculation")
	fmt.Println("rate\tavg latency\tthroughput\tsaturated")
	for _, rate := range []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40} {
		cfg := base
		cfg.Workload.Rate = rate
		res := sim.New(cfg).Run()
		fmt.Printf("%.2f\t%8.1f\t%8.3f\t%v\n", rate, res.AvgLatency, res.Throughput, res.Saturated)
		if res.Saturated {
			fmt.Println("network saturated; stopping sweep")
			break
		}
	}
}
