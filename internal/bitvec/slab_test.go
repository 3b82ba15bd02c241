package bitvec

import (
	"testing"
)

// matrixSink makes a constructed matrix escape, as it does in real use.
var matrixSink *Matrix

func TestNewSlabLayout(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		vs := NewSlab(5, n)
		if len(vs) != 5 {
			t.Fatalf("n=%d: %d vectors, want 5", n, len(vs))
		}
		for i := range vs {
			v := &vs[i]
			if v.Len() != n || v.Any() {
				t.Fatalf("n=%d: element %d has length %d, any=%v", n, i, v.Len(), v.Any())
			}
			if w := v.Words(); cap(w) != len(w) {
				t.Fatalf("n=%d: element %d word capacity %d not cut to its length %d", n, i, cap(w), len(w))
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { NewSlab(100, 70) }); allocs != 2 {
		t.Fatalf("NewSlab made %v allocations, want 2 (headers, words)", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { matrixSink = NewMatrix(100, 70) }); allocs != 3 {
		t.Fatalf("NewMatrix made %v allocations, want 3 (matrix, headers, words)", allocs)
	}
}

func TestSlabMixedWidths(t *testing.T) {
	var s Slab
	var narrow, wide []Vec
	var one *Vec
	var m Matrix
	var raw []uint64
	for pass := 0; pass < 2; pass++ {
		narrow = s.Vecs(3, 5)
		one = s.Vec(64)
		raw = s.Words(3)
		wide = s.Vecs(2, 129)
		m = s.Matrix(4, 7)
		if pass == 0 {
			if narrow != nil || one != nil || wide != nil || raw != nil {
				t.Fatal("measuring pass returned storage")
			}
			s.Alloc()
		}
	}
	if len(raw) != 3 || cap(raw) != 3 || raw[0]|raw[1]|raw[2] != 0 {
		t.Fatalf("Words(3) = %v (cap %d), want three zero words with the capacity cut", raw, cap(raw))
	}
	for i := range raw {
		raw[i] = ^uint64(0)
	}
	for i := 0; i < 64; i++ {
		one.Set(i)
	}
	for i := 0; i < 129; i++ {
		wide[0].Set(i)
	}
	m.Set(3, 6)
	for i := range narrow {
		if narrow[i].Len() != 5 || narrow[i].Any() {
			t.Fatalf("narrow[%d] disturbed: %s", i, narrow[i].String())
		}
	}
	if one.Count() != 64 || wide[0].Count() != 129 || wide[1].Any() || m.Count() != 1 || !m.Row(3).Get(6) {
		t.Fatal("mixed-width slab elements overlap")
	}
}

// FuzzSlabIsolation runs a fuzzer-chosen program of vector operations on the
// elements of a slab and, in lockstep, on standalone New(n) vectors holding
// the same bits. After every step each slab element must equal its standalone
// twin word for word: that is at once "an operation on slab element i does
// what it does on an ordinary vector" and "it never touches elements i±1".
// Widths cover n%64 != 0 tails and exact multiples; an append to an element's
// Words must reallocate rather than run into the next element.
func FuzzSlabIsolation(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []byte{0xa5, 0x0f}, uint16(64), uint8(3))
	f.Add([]byte{4, 4, 4, 10, 0, 200, 6, 1, 5}, []byte{0xff}, uint16(65), uint8(4))
	f.Add([]byte{9, 3, 9, 70, 4, 4, 10, 2}, []byte{0x01, 0x80, 0x33}, uint16(129), uint8(2))
	f.Add([]byte{5, 6, 7, 8, 10, 10}, []byte{}, uint16(1), uint8(5))
	f.Add([]byte{4, 0, 10, 1, 4, 2, 10, 0}, []byte{0x55}, uint16(63), uint8(3))
	f.Fuzz(func(t *testing.T, prog, pattern []byte, n16 uint16, count8 uint8) {
		n := int(n16)%200 + 1
		count := int(count8)%5 + 2
		bitAt := func(salt, i int) bool {
			if len(pattern) == 0 {
				return false
			}
			i += salt * 37
			return pattern[(i/8)%len(pattern)]&(1<<(i%8)) != 0
		}
		slab := NewSlab(count, n)
		twin := make([]*Vec, count)
		for e := range slab {
			twin[e] = New(n)
			for i := 0; i < n; i++ {
				slab[e].SetTo(i, bitAt(e, i))
				twin[e].SetTo(i, bitAt(e, i))
			}
		}
		// src feeds SliceFrom; it is wider than the elements and standalone.
		src := New(2*n + 3)
		for i := 0; i < src.Len(); i++ {
			src.SetTo(i, bitAt(count, i))
		}
		check := func(step int, op byte) {
			for e := range slab {
				got, want := slab[e].Words(), twin[e].Words()
				if len(got) != len(want) {
					t.Fatalf("step %d op %d: element %d has %d words, twin %d", step, op, e, len(got), len(want))
				}
				for w := range got {
					if got[w] != want[w] {
						t.Fatalf("step %d op %d: element %d word %d = %#x, standalone twin %#x (n=%d)",
							step, op, e, w, got[w], want[w], n)
					}
				}
			}
		}
		check(-1, 0)
		arg := func(k int) int {
			if len(prog) == 0 {
				return 0
			}
			return int(prog[k%len(prog)])
		}
		for step, op := range prog {
			e := arg(step+1) % count      // element operated on
			o := arg(step+2) % count      // operand element
			p := arg(step+3) % count      // second operand element
			bit := arg(step+4) * 7 % n    // bit index
			off := arg(step+5) % (n + 4)  // SliceFrom offset, always in range of src
			from := arg(step+6)%(n+2) - 1 // iterator start, may be -1 or past the end
			s, w := &slab[e], twin[e]
			switch op % 11 {
			case 0:
				s.Set(bit)
				w.Set(bit)
			case 1:
				s.Clear(bit)
				w.Clear(bit)
			case 2:
				s.SetTo(bit, o%2 == 0)
				w.SetTo(bit, o%2 == 0)
			case 3:
				s.Reset()
				w.Reset()
			case 4:
				s.Or(&slab[o])
				w.Or(twin[o])
			case 5:
				s.AndNot(&slab[o])
				w.AndNot(twin[o])
			case 6:
				if got, want := s.AndNotInto(&slab[o], &slab[p]), w.AndNotInto(twin[o], twin[p]); got != want {
					t.Fatalf("step %d: AndNotInto reported %v on the slab, %v standalone", step, got, want)
				}
			case 7:
				s.CopyFrom(&slab[o])
				w.CopyFrom(twin[o])
			case 8:
				if got, want := s.SliceFrom(src, off), w.SliceFrom(src, off); got != want {
					t.Fatalf("step %d: SliceFrom reported %v on the slab, %v standalone", step, got, want)
				}
			case 9:
				// Read-only operations must agree too.
				if s.Count() != w.Count() || s.Any() != w.Any() || s.First() != w.First() ||
					s.NextSet(from) != w.NextSet(from) || s.NextFrom(from) != w.NextFrom(from) ||
					s.Get(bit) != w.Get(bit) || s.String() != w.String() || !s.Equal(w) {
					t.Fatalf("step %d: read-only operations differ between slab element %d and its twin", step, e)
				}
			case 10:
				// Growing an element's word slice must copy it away: neither
				// the appended words nor a write through the grown slice may
				// land in the slab.
				grown := append(s.Words(), ^uint64(0), ^uint64(0))
				grown[0] = ^grown[0]
			}
			check(step, op%11)
		}
	})
}
