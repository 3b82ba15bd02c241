// Package bitvec provides dense bit vectors and bit matrices sized for
// allocator request/grant bookkeeping.
//
// Allocators in this repository operate on request matrices with up to
// a few hundred rows and columns (P×V reaches 160 for the largest
// flattened-butterfly design point), so the representation favors
// simplicity and cache friendliness over large-scale sparse tricks.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/slab"
)

const wordBits = 64

// Vec is a fixed-size dense bit vector. The zero value is unusable; create
// vectors with New, NewSlab or a Slab. All indices must be in [0, Len()).
type Vec struct {
	n     int
	words []uint64
}

// New returns a zeroed bit vector with n bits.
func New(n int) *Vec {
	return &Vec{n: n, words: make([]uint64, wordsFor(n))}
}

func wordsFor(n int) int {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return (n + wordBits - 1) / wordBits
}

// Slab lays many vectors, of any mix of widths, out in two allocations: one
// block of Vec headers and one word backing that every header points into.
// It is a two-pass slab (see package slab): run the layout code once to
// measure, call Alloc, run it again to carve. Elements are used through their
// address (&vs[i] is the *Vec the rest of the API takes); each element's
// word slice has its capacity cut to its length, so no operation on one
// element, not even an append to its Words, can reach a neighbour.
//
// A slab belongs to whoever built it — in the simulator, to one router. It
// must not be shared by objects that step on different goroutines: adjacent
// elements share cache lines.
type Slab struct {
	hdr   slab.Of[Vec]
	words slab.Of[uint64]
}

// Vecs returns count zeroed n-bit vectors (nil on the measuring pass).
func (s *Slab) Vecs(count, n int) []Vec {
	if count < 0 {
		panic("bitvec: negative count")
	}
	k := wordsFor(n)
	hdr, words := s.hdr.Take(count), s.words.Take(count*k)
	for i := range hdr {
		hdr[i] = Vec{n: n, words: words[i*k : (i+1)*k : (i+1)*k]}
	}
	return hdr
}

// Vec returns one zeroed n-bit vector (nil on the measuring pass).
func (s *Slab) Vec(n int) *Vec {
	if vs := s.Vecs(1, n); vs != nil {
		return &vs[0]
	}
	return nil
}

// Words returns n zeroed raw words from the word backing, capacity cut like a
// vector's (nil on the measuring pass). It is for owners whose sets fit one
// machine word each and need no header: word i of the result is set i.
func (s *Slab) Words(n int) []uint64 {
	if n < 0 {
		panic("bitvec: negative count")
	}
	return s.words.Take(n)
}

// Matrix returns a zeroed rows×cols matrix whose rows come from the slab
// (unusable on the measuring pass).
func (s *Slab) Matrix(rows, cols int) Matrix {
	if rows < 0 || cols < 0 {
		panic("bitvec: negative matrix dimension")
	}
	return Matrix{rows: rows, cols: cols, bits: s.Vecs(rows, cols)}
}

// Alloc ends the measuring pass and allocates the two blocks.
func (s *Slab) Alloc() {
	s.hdr.Alloc()
	s.words.Alloc()
}

// NewSlab returns count zeroed n-bit vectors laid out in one header block and
// one word backing.
func NewSlab(count, n int) []Vec {
	var s Slab
	s.Vecs(count, n)
	s.Alloc()
	return s.Vecs(count, n)
}

// Len returns the number of bits in the vector.
func (v *Vec) Len() int { return v.n }

// Words exposes the backing word slice for read-only word-at-a-time
// iteration in hot loops:
//
//	for wi, w := range v.Words() {
//		for base := wi * 64; w != 0; w &= w - 1 {
//			i := base + bits.TrailingZeros64(w)
//			...
//		}
//	}
//
// This visits set bits in the same ascending order as NextSet iteration
// without re-entering the scan for every bit. Callers must not mutate the
// returned slice, and must not change v's bits while ranging over a word
// already loaded into a local (loading w snapshots that word).
func (v *Vec) Words() []uint64 { return v.words }

func (v *Vec) check(i int) {
	// Single unsigned compare: a negative index wraps to a huge uint.
	if uint(i) >= uint(v.n) {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Get reports whether bit i is set.
func (v *Vec) Get(i int) bool {
	v.check(i)
	return v.words[uint(i)/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Set sets bit i.
func (v *Vec) Set(i int) {
	v.check(i)
	v.words[uint(i)/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i.
func (v *Vec) Clear(i int) {
	v.check(i)
	v.words[uint(i)/wordBits] &^= 1 << (uint(i) % wordBits)
}

// SetTo sets bit i to b.
func (v *Vec) SetTo(i int, b bool) {
	if b {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

// Reset clears all bits.
func (v *Vec) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Any reports whether any bit is set.
func (v *Vec) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (v *Vec) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// First returns the index of the lowest set bit, or -1 if none.
func (v *Vec) First() int {
	for wi, w := range v.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// NextSet returns the index of the lowest set bit >= i, or -1 if no set bit
// exists at or above i. Unlike NextFrom it does not wrap. Together with
// TrailingZeros64 word scans it is the primitive for iterating set bits
// without per-bit Get calls:
//
//	for i := v.NextSet(0); i >= 0; i = v.NextSet(i + 1) { ... }
func (v *Vec) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= v.n {
		return -1
	}
	wi := int(uint(i) / wordBits)
	if w := v.words[wi] >> (uint(i) % wordBits); w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.words); wi++ {
		if w := v.words[wi]; w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// NextFrom returns the index of the lowest set bit >= i, wrapping around to
// the start of the vector if none is found at or above i. Returns -1 if the
// vector is empty of set bits. This is the primitive behind round-robin
// arbitration.
func (v *Vec) NextFrom(i int) int {
	if v.n == 0 {
		return -1
	}
	if i < 0 || i >= v.n {
		i = 0
	}
	if b := v.NextSet(i); b >= 0 {
		return b
	}
	// Wrap: lowest set bit strictly below i.
	wi := i / wordBits
	for k := 0; k < wi; k++ {
		if w := v.words[k]; w != 0 {
			return k*wordBits + bits.TrailingZeros64(w)
		}
	}
	if w := v.words[wi] & (1<<(uint(i)%wordBits) - 1); w != 0 {
		return wi*wordBits + bits.TrailingZeros64(w)
	}
	return -1
}

// ForEach calls fn for every set bit, in increasing index order.
func (v *Vec) ForEach(fn func(i int)) {
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Or sets v = v | o. Panics if lengths differ.
func (v *Vec) Or(o *Vec) {
	if v.n != o.n {
		panic("bitvec: length mismatch")
	}
	for i := range v.words {
		v.words[i] |= o.words[i]
	}
}

// AndNot sets v = v &^ o. Panics if lengths differ.
func (v *Vec) AndNot(o *Vec) {
	if v.n != o.n {
		panic("bitvec: length mismatch")
	}
	for i := range v.words {
		v.words[i] &^= o.words[i]
	}
}

// AndNotInto sets v = a &^ b in a single pass and reports whether any bit is
// set. Panics if lengths differ.
func (v *Vec) AndNotInto(a, b *Vec) bool {
	if v.n != a.n || v.n != b.n {
		panic("bitvec: length mismatch")
	}
	var acc uint64
	for i := range v.words {
		w := a.words[i] &^ b.words[i]
		v.words[i] = w
		acc |= w
	}
	return acc != 0
}

// maskTail clears the unused high bits of the last word so that word-level
// reductions (Any, Count, acc |= ...) never see bits beyond Len().
func (v *Vec) maskTail() {
	if tail := uint(v.n) % wordBits; tail != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= 1<<tail - 1
	}
}

// SliceFrom fills v with bits [off, off+v.Len()) of src using word shifts
// and reports whether any bit is set. Panics when the range does not fit in
// src. It is the word-parallel form of the per-bit Get/Set copy loops used
// to extract a class window from a wider candidate vector.
func (v *Vec) SliceFrom(src *Vec, off int) bool {
	if off < 0 || off+v.n > src.n {
		panic(fmt.Sprintf("bitvec: slice [%d,%d) out of range [0,%d)", off, off+v.n, src.n))
	}
	sw := off / wordBits
	shift := uint(off) % wordBits
	if shift == 0 {
		copy(v.words, src.words[sw:sw+len(v.words)])
	} else {
		for i := range v.words {
			w := src.words[sw+i] >> shift
			if sw+i+1 < len(src.words) {
				w |= src.words[sw+i+1] << (wordBits - shift)
			}
			v.words[i] = w
		}
	}
	v.maskTail()
	var acc uint64
	for _, w := range v.words {
		acc |= w
	}
	return acc != 0
}

// Equal reports whether v and o have identical length and contents.
func (v *Vec) Equal(o *Vec) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of v.
func (v *Vec) Clone() *Vec {
	c := New(v.n)
	copy(c.words, v.words)
	return c
}

// CopyFrom overwrites v with the contents of o. Panics if lengths differ.
func (v *Vec) CopyFrom(o *Vec) {
	if v.n != o.n {
		panic("bitvec: length mismatch")
	}
	copy(v.words, o.words)
}

// String renders the vector as a bit string, index 0 leftmost.
func (v *Vec) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Matrix is a dense rows×cols bit matrix used for allocator request and
// grant matrices: rows index requesters, columns index resources.
type Matrix struct {
	rows, cols int
	bits       []Vec // one Vec per row, from one slab
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("bitvec: negative matrix dimension")
	}
	return &Matrix{rows: rows, cols: cols, bits: NewSlab(rows, cols)}
}

// Rows returns the number of rows (requesters).
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns (resources).
func (m *Matrix) Cols() int { return m.cols }

// Get reports whether entry (r, c) is set.
func (m *Matrix) Get(r, c int) bool { return m.bits[r].Get(c) }

// Set sets entry (r, c).
func (m *Matrix) Set(r, c int) { m.bits[r].Set(c) }

// Clear clears entry (r, c).
func (m *Matrix) Clear(r, c int) { m.bits[r].Clear(c) }

// SetTo sets entry (r, c) to b.
func (m *Matrix) SetTo(r, c int, b bool) { m.bits[r].SetTo(c, b) }

// Row returns the live Vec backing row r. Mutations are visible in m.
func (m *Matrix) Row(r int) *Vec { return &m.bits[r] }

// Reset clears all entries.
func (m *Matrix) Reset() {
	for i := range m.bits {
		m.bits[i].Reset()
	}
}

// Count returns the total number of set entries.
func (m *Matrix) Count() int {
	c := 0
	for i := range m.bits {
		c += m.bits[i].Count()
	}
	return c
}

// Any reports whether any entry is set.
func (m *Matrix) Any() bool {
	for i := range m.bits {
		if m.bits[i].Any() {
			return true
		}
	}
	return false
}

// ColCount returns the number of set entries in column c.
func (m *Matrix) ColCount(c int) int {
	n := 0
	for i := range m.bits {
		if m.bits[i].Get(c) {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	for i := range m.bits {
		c.bits[i].CopyFrom(&m.bits[i])
	}
	return c
}

// Equal reports whether m and o have identical dimensions and contents.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.bits {
		if !m.bits[i].Equal(&o.bits[i]) {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every set entry of m is also set in o.
func (m *Matrix) SubsetOf(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.bits {
		t := m.bits[i].Clone()
		t.AndNot(&o.bits[i])
		if t.Any() {
			return false
		}
	}
	return true
}

// IsMatching reports whether m has at most one set entry per row and per
// column, i.e. whether it is a valid matching.
func (m *Matrix) IsMatching() bool {
	for i := range m.bits {
		if m.bits[i].Count() > 1 {
			return false
		}
	}
	for c := 0; c < m.cols; c++ {
		if m.ColCount(c) > 1 {
			return false
		}
	}
	return true
}

// String renders the matrix one row per line.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := range m.bits {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(m.bits[i].String())
	}
	return sb.String()
}
