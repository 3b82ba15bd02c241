package core

import (
	"repro/internal/arbiter"
	"repro/internal/slab"
)

// slabs is the storage a router's allocators are laid out in: every arbiter,
// bit vector and index table of the VC allocator and the switch allocator
// comes out of these five blocks (arbiter values, vector headers, vector
// words, int32 tables, int tables) instead of being its own heap object.
// It is a two-pass slab (see package slab).
//
// One slabs value serves exactly one router's allocators. Routers step
// concurrently under the sharded simulator, and neighbours in a slab share
// cache lines, so storage is never laid out across routers.
type slabs struct {
	arbiter.Slab
	i32  slab.Of[int32]
	ints slab.Of[int]
}

func (s *slabs) Alloc() {
	s.Slab.Alloc()
	s.i32.Alloc()
	s.ints.Alloc()
}

// part is an allocator (or a piece of one) that lives on slabs.
type part interface {
	// layout carves the part's storage out of s and returns s. It runs
	// twice, measuring then carving, so it only takes and assigns. The slabs
	// travel by value: a pointer handed to an interface method would force
	// them onto the heap, one more object per router.
	layout(s slabs) slabs
	// fill runs once after carving and sets whatever does not start at zero.
	fill()
}

// build lays the parts out on one shared set of slabs.
func build(parts ...part) {
	var s slabs
	for _, p := range parts {
		s = p.layout(s)
	}
	s.Alloc()
	for _, p := range parts {
		s = p.layout(s)
	}
	for _, p := range parts {
		p.fill()
	}
}

// NewAllocators builds the VC allocator and the switch allocator of one
// router. They behave exactly like the results of NewVCAllocator and
// NewSwitchAllocator, but share one set of slabs, which is what keeps router
// construction to a few dozen allocations.
func NewAllocators(va VCAllocConfig, sa SwitchAllocConfig) (*VCAllocator, *SwitchAllocator) {
	v, w := newVCAllocator(va), newSwitchAllocator(sa)
	build(v, w)
	return v, w
}
