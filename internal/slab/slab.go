// Package slab carves the many small slices a constructor needs out of one
// allocation, sized exactly, without a separate size computation.
//
// A constructor describes its storage once, as a layout function that calls
// Take for every slice it owns, and runs that function twice: on the first
// pass the slab only adds up the demand (Take returns nil), Alloc then makes
// a single backing array of exactly that length, and on the second pass Take
// hands out the real sub-slices. Because both passes execute the same code,
// the size can never drift from the use. A layout function must therefore do
// nothing but carve and assign — no indexing into what Take returned — and
// must ask for the same lengths in the same order on both passes.
//
// Where the layout is short it is written as a loop rather than a function,
// which also keeps the slab on the constructor's stack:
//
//	var s slab.Of[int32]
//	for pass := 0; pass < 2; pass++ {
//		x.head, x.count = s.Take(n), s.Take(n)
//		if pass == 0 {
//			s.Alloc()
//		}
//	}
package slab

// Of is a two-pass slab of T. The zero value is ready for the measuring pass.
type Of[T any] struct {
	buf     []T
	need    int
	carving bool
}

// Take returns the next n elements of the slab as a slice whose capacity is
// cut to its length, so an append by the holder reallocates instead of
// running into the neighbour. Before Alloc it records the demand and returns
// nil. Taking more than was measured panics.
func (s *Of[T]) Take(n int) []T {
	if !s.carving {
		s.need += n
		return nil
	}
	out := s.buf[:n:n]
	s.buf = s.buf[n:]
	return out
}

// Alloc ends the measuring pass: it allocates the backing array for
// everything taken so far (nothing at all when that is zero elements) and
// switches Take to carving.
func (s *Of[T]) Alloc() {
	s.buf = make([]T, s.need)
	s.carving = true
}
