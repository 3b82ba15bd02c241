package bitvec

import (
	"testing"
	"testing/quick"
)

func TestVecBasics(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	if v.Any() {
		t.Fatal("new vector should be empty")
	}
	v.Set(0)
	v.Set(63)
	v.Set(64)
	v.Set(129)
	for _, i := range []int{0, 63, 64, 129} {
		if !v.Get(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if v.Count() != 4 {
		t.Fatalf("Count = %d, want 4", v.Count())
	}
	v.Clear(63)
	if v.Get(63) {
		t.Error("bit 63 should be clear")
	}
	if v.Count() != 3 {
		t.Fatalf("Count = %d, want 3", v.Count())
	}
	v.Reset()
	if v.Any() {
		t.Fatal("Reset should clear all bits")
	}
}

func TestVecSetTo(t *testing.T) {
	v := New(10)
	v.SetTo(3, true)
	if !v.Get(3) {
		t.Fatal("SetTo(true) did not set")
	}
	v.SetTo(3, false)
	if v.Get(3) {
		t.Fatal("SetTo(false) did not clear")
	}
}

func TestVecOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	New(5).Get(5)
}

func TestVecFirst(t *testing.T) {
	v := New(200)
	if v.First() != -1 {
		t.Fatal("empty vector First should be -1")
	}
	v.Set(150)
	v.Set(70)
	if got := v.First(); got != 70 {
		t.Fatalf("First = %d, want 70", got)
	}
}

func TestVecNextFrom(t *testing.T) {
	v := New(100)
	if v.NextFrom(10) != -1 {
		t.Fatal("empty vector NextFrom should be -1")
	}
	v.Set(5)
	v.Set(80)
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 80}, {80, 80}, {81, 5}, {99, 5}, {-1, 5}, {100, 5},
	}
	for _, c := range cases {
		if got := v.NextFrom(c.from); got != c.want {
			t.Errorf("NextFrom(%d) = %d, want %d", c.from, got, c.want)
		}
	}
}

func TestVecNextFromWrapWithinWord(t *testing.T) {
	v := New(64)
	v.Set(3)
	if got := v.NextFrom(10); got != 3 {
		t.Fatalf("NextFrom(10) = %d, want wrap to 3", got)
	}
}

func TestVecForEachOrder(t *testing.T) {
	v := New(130)
	want := []int{1, 63, 64, 100, 129}
	for _, i := range want {
		v.Set(i)
	}
	var got []int
	v.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", got, want)
		}
	}
}

// fromBools builds a vector from a bool slice.
func fromBools(b []bool) *Vec {
	v := New(len(b))
	for i, x := range b {
		if x {
			v.Set(i)
		}
	}
	return v
}

func TestVecBoolOps(t *testing.T) {
	a := fromBools([]bool{true, false, true, false})
	b := fromBools([]bool{true, true, false, false})

	or := a.Clone()
	or.Or(b)
	if or.String() != "1110" {
		t.Errorf("Or = %s, want 1110", or)
	}
	and := a.Clone()
	and.And(b)
	if and.String() != "1000" {
		t.Errorf("And = %s, want 1000", and)
	}
	andNot := a.Clone()
	andNot.AndNot(b)
	if andNot.String() != "0010" {
		t.Errorf("AndNot = %s, want 0010", andNot)
	}
}

func TestVecEqualCloneCopy(t *testing.T) {
	a := New(77)
	a.Set(5)
	a.Set(76)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone should equal original")
	}
	b.Clear(5)
	if a.Equal(b) {
		t.Fatal("mutated clone should differ")
	}
	b.CopyFrom(a)
	if !a.Equal(b) {
		t.Fatal("CopyFrom should restore equality")
	}
	if a.Equal(New(78)) {
		t.Fatal("different lengths should not be equal")
	}
}

func TestVecLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	New(5).Or(New(6))
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	m.Set(0, 0)
	m.Set(1, 2)
	m.Set(2, 3)
	if m.Count() != 3 {
		t.Fatalf("Count = %d, want 3", m.Count())
	}
	if !m.Get(1, 2) {
		t.Fatal("(1,2) should be set")
	}
	if m.ColCount(2) != 1 || m.ColCount(1) != 0 {
		t.Fatal("ColCount wrong")
	}
	m.Clear(1, 2)
	if m.Get(1, 2) {
		t.Fatal("(1,2) should be clear")
	}
	m.Reset()
	if m.Any() {
		t.Fatal("Reset should empty matrix")
	}
}

func TestMatrixMatchingPredicate(t *testing.T) {
	m := NewMatrix(3, 3)
	m.Set(0, 1)
	m.Set(1, 0)
	m.Set(2, 2)
	if !m.IsMatching() {
		t.Fatal("permutation should be a matching")
	}
	m.Set(0, 2) // two in row 0
	if m.IsMatching() {
		t.Fatal("two grants in one row is not a matching")
	}
	m.Clear(0, 2)
	m.Set(1, 1) // two in row 1? no: (1,0) and (1,1) -> row violation
	if m.IsMatching() {
		t.Fatal("two grants in one row is not a matching")
	}
	m.Clear(1, 0)
	// now rows fine: (0,1),(1,1),(2,2) -> column 1 has two
	if m.IsMatching() {
		t.Fatal("two grants in one column is not a matching")
	}
}

func TestMatrixSubsetEqualClone(t *testing.T) {
	m := NewMatrix(4, 4)
	m.Set(0, 0)
	m.Set(3, 2)
	c := m.Clone()
	if !m.Equal(c) || !c.SubsetOf(m) || !m.SubsetOf(c) {
		t.Fatal("clone should be equal and mutual subset")
	}
	c.Set(1, 1)
	if c.SubsetOf(m) {
		t.Fatal("superset should not be subset")
	}
	if !m.SubsetOf(c) {
		t.Fatal("m should be subset of extended c")
	}
	if m.Equal(NewMatrix(4, 5)) {
		t.Fatal("different dims should not be equal")
	}
	if m.SubsetOf(NewMatrix(5, 4)) {
		t.Fatal("SubsetOf with different dims should be false")
	}
}

func TestMatrixRowAliasing(t *testing.T) {
	m := NewMatrix(2, 8)
	m.Row(1).Set(5)
	if !m.Get(1, 5) {
		t.Fatal("Row must alias the matrix storage")
	}
}

func TestVecString(t *testing.T) {
	v := New(5)
	v.Set(1)
	v.Set(4)
	if v.String() != "01001" {
		t.Fatalf("String = %q, want 01001", v.String())
	}
}

// Property: Count equals the number of indices reported by ForEach, and each
// reported index is Get-true.
func TestQuickCountForEachConsistency(t *testing.T) {
	f := func(raw []bool) bool {
		v := fromBools(raw)
		n := 0
		ok := true
		v.ForEach(func(i int) {
			n++
			if !v.Get(i) {
				ok = false
			}
		})
		return ok && n == v.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: NextFrom(i) always returns a set bit when the vector is
// non-empty, and the bit returned is the nearest set bit in cyclic order.
func TestQuickNextFromCyclicNearest(t *testing.T) {
	f := func(raw []bool, start uint8) bool {
		v := fromBools(raw)
		if v.Len() == 0 {
			return v.NextFrom(int(start)) == -1
		}
		i := int(start) % v.Len()
		got := v.NextFrom(i)
		if !v.Any() {
			return got == -1
		}
		if got < 0 || !v.Get(got) {
			return false
		}
		// brute-force expected
		for k := 0; k < v.Len(); k++ {
			idx := (i + k) % v.Len()
			if v.Get(idx) {
				return got == idx
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
