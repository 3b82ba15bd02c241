// Quickstart: build the switch and VC allocators of Becker & Dally (SC '09)
// in the three architectures the simulator runs, feed each the same requests
// of a 5-port router with 2 VCs per port, and compare the matchings they
// produce against the size of a maximum matching.
package main

import (
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/bitvec"
	"repro/internal/core"
)

func main() {
	const ports = 5
	spec := core.NewVCSpec(1, 1, 2) // V = 2 VCs per port
	v := spec.V()

	// Switch requests, one per input VC: the first VCs of input ports 0-2 all
	// want output 0, plus a scattering of alternatives. The bound matches
	// input ports to output ports.
	sw := make([]core.SwitchRequest, ports*v)
	swReq := bitvec.NewMatrix(ports, ports)
	for _, r := range [][3]int{{0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {1, 1, 3}, {2, 1, 1}, {3, 0, 2}, {3, 1, 4}, {4, 0, 4}} {
		sw[r[0]*v+r[1]] = core.SwitchRequest{Active: true, OutPort: r[2]}
		swReq.Set(r[0], r[2])
	}
	// VC requests, one per input VC: each may take either VC of its output
	// port, and input VCs 0, 2, 3 and 4 all want port 1. The bound matches
	// input VCs to output VCs.
	vc := make([]core.VCRequest, ports*v)
	vcReq := bitvec.NewMatrix(ports*v, ports*v)
	for i, out := range []int{1, 3, 1, 1, 1, -1, 2, 2, 0, -1} {
		if out >= 0 {
			vc[i] = core.VCRequest{Active: true, OutPort: out, Candidates: 1<<v - 1}
			vcReq.Set(i, out*v)
			vcReq.Set(i, out*v+1)
		}
	}
	fmt.Println("switch requests (rows: input ports, columns: output ports):")
	fmt.Println(swReq)
	fmt.Printf("maximum matching size: switch %d, VC %d\n\n", alloc.MatchSize(swReq), alloc.MatchSize(vcReq))

	for _, arch := range []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront} {
		sa := core.NewSwitchAllocator(core.SwitchAllocConfig{Ports: ports, VCs: v, Arch: arch, ArbKind: arbiter.RoundRobin})
		va := core.NewVCAllocator(core.VCAllocConfig{Ports: ports, Spec: spec, Arch: arch, ArbKind: arbiter.RoundRobin})
		swGrants, vcGrants := sa.Allocate(sw), va.Allocate(vc)
		if err := errors.Join(core.CheckSwitchGrants(ports, v, sw, swGrants), core.CheckVCGrants(ports, spec, vc, vcGrants)); err != nil {
			panic(err)
		}
		nsw, nvc := 0, 0
		for _, g := range swGrants {
			if g.OutPort >= 0 {
				nsw++
			}
		}
		for _, g := range vcGrants {
			if g >= 0 {
				nvc++
			}
		}
		fmt.Printf("%-6s granted: switch %d, VC %d\n", arch, nsw, nvc)
	}

	// Repeated allocation with full contention demonstrates fairness: the
	// separable allocators' iSLIP-style priority updates rotate grants.
	contended := make([]core.SwitchRequest, ports*v)
	for p := 0; p < 3; p++ {
		contended[p*v] = core.SwitchRequest{Active: true, OutPort: 0}
	}
	sa := core.NewSwitchAllocator(core.SwitchAllocConfig{Ports: ports, VCs: v, Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin})
	var wins [3]int
	for cycle := 0; cycle < 9; cycle++ {
		for p, g := range sa.Allocate(contended)[:3] {
			if g.OutPort == 0 {
				wins[p]++
			}
		}
	}
	fmt.Printf("\nsep_if, 3 input ports wanting output 0 for 9 cycles: grants %v\n", wins)
}
