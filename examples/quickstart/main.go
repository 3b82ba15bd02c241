// Quickstart: build the three allocator architectures from Becker & Dally
// (SC '09), feed them the same 6×6 request matrix, and compare the
// matchings they produce against the maximum-size reference.
package main

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/bitvec"
)

func main() {
	const n = 6
	// A request matrix with deliberate conflicts: rows 0-2 all want
	// column 0, plus a scattering of alternatives.
	req := bitvec.NewMatrix(n, n)
	for _, rc := range [][2]int{
		{0, 0}, {1, 0}, {2, 0},
		{1, 3}, {2, 1}, {3, 2}, {3, 4}, {4, 4}, {5, 5}, {0, 5},
	} {
		req.Set(rc[0], rc[1])
	}
	fmt.Println("request matrix (rows: requesters, columns: resources):")
	fmt.Println(req)
	fmt.Println()

	bound := alloc.MatchSize(req)
	fmt.Printf("maximum matching size: %d\n\n", bound)

	for _, cfg := range []alloc.Config{
		{Arch: alloc.SepIF, Rows: n, Cols: n, ArbKind: arbiter.RoundRobin},
		{Arch: alloc.SepOF, Rows: n, Cols: n, ArbKind: arbiter.RoundRobin},
		{Arch: alloc.Wavefront, Rows: n, Cols: n},
		{Arch: alloc.Maximum, Rows: n, Cols: n},
	} {
		a := alloc.New(cfg)
		gnt := a.Allocate(req)
		if err := alloc.Validate(req, gnt); err != nil {
			panic(err)
		}
		fmt.Printf("%-9s granted %d/%d  maximal=%v\n",
			a.Name(), gnt.Count(), bound, alloc.IsMaximal(req, gnt))
	}

	// Repeated allocation with full contention demonstrates fairness: the
	// separable allocators' iSLIP-style priority updates rotate grants.
	fmt.Println("\nfairness under persistent contention (3 requesters, 1 resource):")
	contended := bitvec.NewMatrix(3, 1)
	for i := 0; i < 3; i++ {
		contended.Set(i, 0)
	}
	a := alloc.New(alloc.Config{Arch: alloc.SepIF, Rows: 3, Cols: 1, ArbKind: arbiter.RoundRobin})
	wins := [3]int{}
	for cycle := 0; cycle < 9; cycle++ {
		g := a.Allocate(contended)
		for i := 0; i < 3; i++ {
			if g.Get(i, 0) {
				wins[i]++
			}
		}
	}
	fmt.Printf("grants over 9 cycles: %v\n", wins)
}
