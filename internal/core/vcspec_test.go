package core

import (
	"testing"
	"testing/quick"
)

func TestVCSpecBasics(t *testing.T) {
	s := NewVCSpec(2, 2, 4)
	if s.V() != 16 {
		t.Fatalf("V = %d, want 16", s.V())
	}
	if s.Classes() != 4 {
		t.Fatalf("Classes = %d, want 4", s.Classes())
	}
	if s.String() != "2x2x4" {
		t.Fatalf("String = %q, want 2x2x4", s.String())
	}
}

func TestVCSpecIndexRoundTrip(t *testing.T) {
	s := NewVCSpec(3, 2, 5)
	seen := make(map[int]bool)
	for m := 0; m < 3; m++ {
		for r := 0; r < 2; r++ {
			for c := 0; c < 5; c++ {
				idx := s.VCIndex(m, r, c)
				if idx < 0 || idx >= s.V() || seen[idx] {
					t.Fatalf("VCIndex(%d,%d,%d) = %d invalid or duplicate", m, r, c, idx)
				}
				seen[idx] = true
				gm, gr, gc := s.Decompose(idx)
				if gm != m || gr != r || gc != c {
					t.Fatalf("Decompose(%d) = (%d,%d,%d), want (%d,%d,%d)", idx, gm, gr, gc, m, r, c)
				}
				if idx/s.VCsPerClass != s.ClassIndex(m, r) {
					t.Fatalf("VC %d lies in class %d, ClassIndex(%d,%d) = %d", idx, idx/s.VCsPerClass, m, r, s.ClassIndex(m, r))
				}
			}
		}
	}
}

func TestVCSpecClassContiguity(t *testing.T) {
	// Sparse decomposition relies on message classes occupying contiguous
	// VC index ranges.
	s := NewVCSpec(2, 2, 4)
	perMsg := s.ResourceClasses * s.VCsPerClass
	for m := 0; m < s.MessageClasses; m++ {
		for r := 0; r < s.ResourceClasses; r++ {
			for c := 0; c < s.VCsPerClass; c++ {
				idx := s.VCIndex(m, r, c)
				if idx < m*perMsg || idx >= (m+1)*perMsg {
					t.Fatalf("VC (%d,%d,%d) index %d outside message-class block", m, r, c, idx)
				}
			}
		}
	}
}

func TestVCSpecValidate(t *testing.T) {
	bad := []VCSpec{
		{MessageClasses: 0, ResourceClasses: 1, VCsPerClass: 1},
		{MessageClasses: 1, ResourceClasses: -1, VCsPerClass: 1},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := NewVCSpec(2, 2, 4).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestSuccessorClasses pins the one successor relation: class r stays in r
// or advances to r+1, and the final class only stays.
func TestSuccessorClasses(t *testing.T) {
	for _, c := range []struct{ classes, r, lo, hi int }{
		{1, 0, 0, 1},
		{3, 0, 0, 2}, {3, 1, 1, 3}, {3, 2, 2, 3},
	} {
		if lo, hi := NewVCSpec(1, c.classes, 1).SuccessorClasses(c.r); lo != c.lo || hi != c.hi {
			t.Errorf("R=%d: successors of class %d = [%d, %d), want [%d, %d)", c.classes, c.r, lo, hi, c.lo, c.hi)
		}
	}
}

func TestFig4TransitionMatrix(t *testing.T) {
	// Paper Fig. 4: for the flattened butterfly with 2 message classes,
	// 2 resource classes and 4 VCs per class, exactly 96 of 256 possible
	// VC-to-VC transitions are legal, and any given VC has at most 8
	// successors, all within the same quadrant.
	s := NewVCSpec(2, 2, 4)
	m := s.TransitionMatrix()
	if m.Rows() != 16 || m.Cols() != 16 {
		t.Fatalf("transition matrix %dx%d, want 16x16", m.Rows(), m.Cols())
	}
	if got := m.Count(); got != 96 {
		t.Fatalf("legal transitions = %d, want 96", got)
	}
	if got := s.CountLegalTransitions(); got != 96 {
		t.Fatalf("CountLegalTransitions = %d, want 96", got)
	}
	if got := s.MaxSuccessorsPerVC(); got != 8 {
		t.Fatalf("MaxSuccessorsPerVC = %d, want 8", got)
	}
	// Quadrant confinement: transitions never cross message classes.
	for from := 0; from < 16; from++ {
		fm, _, _ := s.Decompose(from)
		for to := 0; to < 16; to++ {
			tm, _, _ := s.Decompose(to)
			if m.Get(from, to) && fm != tm {
				t.Fatalf("transition %d->%d crosses message class", from, to)
			}
		}
	}
	// Predecessor bound: at most 8 predecessors per VC.
	for to := 0; to < 16; to++ {
		if m.ColCount(to) > 8 {
			t.Fatalf("VC %d has %d predecessors, want <= 8", to, m.ColCount(to))
		}
	}
}

func TestMeshTransitionMatrix(t *testing.T) {
	// Mesh configs (2x1xC) allow transitions only within the same class.
	s := NewVCSpec(2, 1, 4)
	m := s.TransitionMatrix()
	if got := m.Count(); got != 2*4*4 {
		t.Fatalf("legal transitions = %d, want 32", got)
	}
}

func TestLegalTransitionSemantics(t *testing.T) {
	s := NewVCSpec(2, 2, 2)
	// Same message class, resource 0 -> 1 allowed.
	if !s.LegalTransition(s.VCIndex(0, 0, 0), s.VCIndex(0, 1, 1)) {
		t.Error("0->1 resource transition should be legal")
	}
	// Resource 1 -> 0 forbidden (partial order).
	if s.LegalTransition(s.VCIndex(0, 1, 0), s.VCIndex(0, 0, 0)) {
		t.Error("1->0 resource transition should be illegal")
	}
	// Message class change always forbidden.
	if s.LegalTransition(s.VCIndex(0, 0, 0), s.VCIndex(1, 0, 0)) {
		t.Error("message class transition should be illegal")
	}
	// Staying put is legal.
	if !s.LegalTransition(s.VCIndex(1, 1, 0), s.VCIndex(1, 1, 1)) {
		t.Error("same-class transition should be legal")
	}
}

func TestClassAndSuccessorMasks(t *testing.T) {
	s := NewVCSpec(2, 2, 4)
	cm := s.ClassMask(1, 0)
	if cm.Count() != 4 {
		t.Fatalf("class mask count = %d, want 4", cm.Count())
	}
	for c := 0; c < 4; c++ {
		if !cm.Get(s.VCIndex(1, 0, c)) {
			t.Fatalf("class mask missing VC (1,0,%d)", c)
		}
	}
	sm := s.SuccessorMask(s.VCIndex(0, 0, 2))
	if sm.Count() != 8 {
		t.Fatalf("successor mask count = %d, want 8 (classes 0 and 1)", sm.Count())
	}
	sm1 := s.SuccessorMask(s.VCIndex(0, 1, 2))
	if sm1.Count() != 4 {
		t.Fatalf("final class successor mask count = %d, want 4", sm1.Count())
	}
}

func TestSuccessorPredecessorClassCounts(t *testing.T) {
	s := NewVCSpec(2, 2, 4)
	if got := s.MaxSuccessorClasses(); got != 2 {
		t.Fatalf("MaxSuccessorClasses = %d, want 2", got)
	}
	if got := s.MaxPredecessorClasses(); got != 2 {
		t.Fatalf("MaxPredecessorClasses = %d, want 2", got)
	}
	if got := s.PredecessorCount(0); got != 1 {
		t.Fatalf("PredecessorCount(0) = %d, want 1", got)
	}
	if got := s.PredecessorCount(1); got != 2 {
		t.Fatalf("PredecessorCount(1) = %d, want 2", got)
	}
	r1 := NewVCSpec(2, 1, 4)
	if got := r1.MaxSuccessorClasses(); got != 1 {
		t.Fatalf("R=1 MaxSuccessorClasses = %d, want 1", got)
	}
}

func TestVCIndexPanics(t *testing.T) {
	s := NewVCSpec(2, 2, 2)
	for _, fn := range []func(){
		func() { s.VCIndex(2, 0, 0) },
		func() { s.VCIndex(0, 2, 0) },
		func() { s.VCIndex(0, 0, 2) },
		func() { s.Decompose(8) },
		func() { s.Decompose(-1) },
		func() { s.ClassIndex(2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: the count of legal transitions follows the closed form
// M · C² · Σ_r |succ(r)| for default monotonic successors.
func TestQuickTransitionCountClosedForm(t *testing.T) {
	f := func(mRaw, rRaw, cRaw uint8) bool {
		m := int(mRaw%3) + 1
		r := int(rRaw%3) + 1
		c := int(cRaw%3) + 1
		s := NewVCSpec(m, r, c)
		succSum := 0
		for i := 0; i < r; i++ {
			if i+1 < r {
				succSum += 2
			} else {
				succSum++
			}
		}
		want := m * c * c * succSum
		return s.CountLegalTransitions() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFig04VCTransitions(b *testing.B) {
	spec := NewVCSpec(2, 2, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := spec.TransitionMatrix()
		if m.Count() != 96 {
			b.Fatalf("legal transitions = %d, want 96", m.Count())
		}
	}
}
