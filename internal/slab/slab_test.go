package slab

import "testing"

// layout is a stand-in for a constructor's layout function: it takes the
// same lengths in the same order on every pass.
func layout(s *Of[int]) [][]int {
	return [][]int{s.Take(3), s.Take(0), s.Take(5), s.Take(1)}
}

func TestTwoPassCarvesExactly(t *testing.T) {
	var s Of[int]
	for i, got := range layout(&s) {
		if got != nil {
			t.Fatalf("measuring pass returned storage for take %d", i)
		}
	}
	s.Alloc()
	parts := layout(&s)
	if len(s.buf) != 0 {
		t.Fatalf("%d elements left after the carving pass", len(s.buf))
	}
	// Every element belongs to exactly one part: write a distinct value
	// through each part and read all of them back.
	v := 0
	for _, p := range parts {
		if cap(p) != len(p) {
			t.Fatalf("part has cap %d, len %d: capacity not cut", cap(p), len(p))
		}
		for i := range p {
			v++
			p[i] = v
		}
	}
	v = 0
	for _, p := range parts {
		for i := range p {
			if v++; p[i] != v {
				t.Fatalf("parts overlap: read %d, want %d", p[i], v)
			}
		}
	}
	// An append to a part must reallocate, never grow into the neighbour.
	_ = append(parts[0], 99)
	if parts[2][0] != 4 {
		t.Fatal("append to one part overwrote the next")
	}
}

func TestOneAllocation(t *testing.T) {
	take := func(s *Of[int]) {
		s.Take(3)
		s.Take(5)
		s.Take(1)
	}
	allocs := testing.AllocsPerRun(10, func() {
		var s Of[int]
		take(&s)
		s.Alloc()
		take(&s)
	})
	if allocs != 1 {
		t.Fatalf("%v allocations for three parts, want 1", allocs)
	}
}

func TestEmptySlabAllocatesNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		var s Of[uint64]
		s.Take(0)
		s.Alloc()
		if got := s.Take(0); len(got) != 0 {
			t.Fatal("empty take returned elements")
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations for an empty slab", allocs)
	}
}

func TestOvertakePanics(t *testing.T) {
	var s Of[int]
	s.Take(2)
	s.Alloc()
	defer func() {
		if recover() == nil {
			t.Fatal("taking more than was measured did not panic")
		}
	}()
	s.Take(3)
}
