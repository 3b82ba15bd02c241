package alloc

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/arbiter"
	"repro/internal/bitvec"
	"repro/internal/xrand"
)

// allAllocators returns one rows×cols allocator of every kind the package
// builds, the two separable ones first.
func allAllocators(rows, cols int) []Allocator {
	return []Allocator{
		New(Config{Arch: SepIF, Rows: rows, Cols: cols, ArbKind: arbiter.RoundRobin}),
		New(Config{Arch: SepIF, Rows: rows, Cols: cols, ArbKind: arbiter.Matrix}),
		New(Config{Arch: Wavefront, Rows: rows, Cols: cols}),
		NewMaximum(rows, cols),
	}
}

func randomMatrix(rng *xrand.Source, rows, cols int, p float64) *bitvec.Matrix {
	m := bitvec.NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Bool(p) {
				m.Set(i, j)
			}
		}
	}
	return m
}

func TestArchString(t *testing.T) {
	cases := map[Arch]string{SepIF: "sep_if", SepOF: "sep_of", Wavefront: "wf"}
	for a, want := range cases {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), want)
		}
	}
	if Arch(42).String() == "" {
		t.Error("unknown arch should still render")
	}
}

func TestNames(t *testing.T) {
	want := map[string]bool{"sep_if/rr": true, "sep_if/m": true, "wf": true, "max": true}
	for _, a := range allAllocators(4, 4) {
		if !want[a.Name()] {
			t.Errorf("unexpected allocator name %q", a.Name())
		}
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		says string
	}{
		{Config{Arch: SepIF, Rows: 0, Cols: 4}, "dimensions"},
		{Config{Arch: Arch(9), Rows: 4, Cols: 4}, "arch Arch(9)"},
		// sep_of runs only on words, in internal/core.
		{Config{Arch: SepOF, Rows: 4, Cols: 4}, "arch sep_of"},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("config %+v: expected panic", c.cfg)
				} else if msg := fmt.Sprint(r); !strings.Contains(msg, c.says) {
					t.Errorf("config %+v: panic %q does not say %q", c.cfg, msg, c.says)
				}
			}()
			New(c.cfg)
		}()
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a := New(Config{Arch: Wavefront, Rows: 4, Cols: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Allocate(bitvec.NewMatrix(4, 5))
}

func TestEmptyRequestsEmptyGrants(t *testing.T) {
	for _, a := range allAllocators(5, 5) {
		g := a.Allocate(bitvec.NewMatrix(5, 5))
		if g.Any() {
			t.Errorf("%s: grants for empty request matrix", a.Name())
		}
	}
}

func TestIdentityRequestsFullyGranted(t *testing.T) {
	// Non-conflicting requests must all be granted by every architecture
	// (paper §4.3.2: "all three allocator types are guaranteed to grant
	// non-conflicting requests").
	for _, a := range allAllocators(6, 6) {
		req := bitvec.NewMatrix(6, 6)
		for i := 0; i < 6; i++ {
			req.Set(i, (i+2)%6)
		}
		g := a.Allocate(req)
		if g.Count() != 6 {
			t.Errorf("%s: granted %d of 6 non-conflicting requests", a.Name(), g.Count())
		}
	}
}

func TestSingleConflictOneGrant(t *testing.T) {
	// All rows request the same single column: exactly one grant.
	for _, a := range allAllocators(5, 5) {
		req := bitvec.NewMatrix(5, 5)
		for i := 0; i < 5; i++ {
			req.Set(i, 2)
		}
		g := a.Allocate(req)
		if g.Count() != 1 {
			t.Errorf("%s: %d grants for single-column conflict, want 1", a.Name(), g.Count())
		}
		if err := Validate(req, g); err != nil {
			t.Errorf("%s: %v", a.Name(), err)
		}
	}
}

func TestValidityRandom(t *testing.T) {
	rng := xrand.New(101)
	for _, a := range allAllocators(8, 8) {
		for trial := 0; trial < 300; trial++ {
			req := randomMatrix(rng, 8, 8, 0.3)
			g := a.Allocate(req)
			if err := Validate(req, g); err != nil {
				t.Fatalf("%s trial %d: %v\nreq:\n%v\ngnt:\n%v", a.Name(), trial, err, req, g)
			}
		}
	}
}

func TestValidityRectangular(t *testing.T) {
	rng := xrand.New(103)
	for _, dims := range [][2]int{{3, 7}, {7, 3}, {1, 5}, {5, 1}} {
		for _, a := range allAllocators(dims[0], dims[1]) {
			for trial := 0; trial < 100; trial++ {
				req := randomMatrix(rng, dims[0], dims[1], 0.4)
				g := a.Allocate(req)
				if err := Validate(req, g); err != nil {
					t.Fatalf("%s %v trial %d: %v", a.Name(), dims, trial, err)
				}
			}
		}
	}
}

func TestWavefrontMaximal(t *testing.T) {
	// Paper §2.2: wavefront allocators are guaranteed to find maximal
	// matchings.
	rng := xrand.New(107)
	a := New(Config{Arch: Wavefront, Rows: 10, Cols: 10})
	for trial := 0; trial < 500; trial++ {
		req := randomMatrix(rng, 10, 10, 0.25)
		g := a.Allocate(req)
		if !IsMaximal(req, g) {
			t.Fatalf("trial %d: wavefront matching not maximal\nreq:\n%v\ngnt:\n%v", trial, req, g)
		}
	}
}

func TestWavefrontMaximalRectangular(t *testing.T) {
	rng := xrand.New(109)
	a := New(Config{Arch: Wavefront, Rows: 6, Cols: 11})
	for trial := 0; trial < 300; trial++ {
		req := randomMatrix(rng, 6, 11, 0.3)
		g := a.Allocate(req)
		if !IsMaximal(req, g) {
			t.Fatalf("trial %d: not maximal\nreq:\n%v\ngnt:\n%v", trial, req, g)
		}
	}
}

// TestWavefrontMatchesCellByCell holds the wavefront allocator to the
// textbook formulation it abbreviates: every one of the n diagonals visited
// from the priority diagonal on, every row of each tried in turn, all index
// arithmetic by %, a fresh grant matrix per call. Square, wide and tall
// shapes (one past a word boundary), request matrices from empty to full so
// that stale grant rows and request-free calls occur, runs of empty calls and
// Reset in between.
func TestWavefrontMatchesCellByCell(t *testing.T) {
	// The last four are wider than a word in both dimensions: a row word's
	// diagonal classes then pass n-1 and wrap mid-word (64 and 128 wrap on a
	// word boundary; 80 and 160 are the VC allocators of the paper's mesh and
	// fbfly routers).
	for _, shape := range [][2]int{{1, 1}, {5, 5}, {16, 16}, {6, 11}, {11, 6}, {65, 9}, {3, 70}, {64, 64}, {80, 80}, {70, 130}, {160, 160}} {
		rows, cols := shape[0], shape[1]
		n := max(rows, cols)
		a := NewWavefront(rows, cols)
		empty := bitvec.NewMatrix(rows, cols)
		rng := xrand.New(uint64(113 + rows*100 + cols))
		prio := 0
		for trial := 0; trial < 400; trial++ {
			switch rng.Intn(12) {
			case 0:
				// An empty matrix grants nothing and still turns the
				// priority diagonal.
				k := rng.Intn(3 * n)
				for c := 0; c < k; c++ {
					if a.Allocate(empty).Any() {
						t.Fatalf("%dx%d: an empty request matrix was granted", rows, cols)
					}
				}
				prio = (prio + k) % n
			case 1:
				a.Reset()
				prio = 0
			}
			req := randomMatrix(rng, rows, cols, []float64{0, 0.02, 0.3, 1}[rng.Intn(4)])
			want := bitvec.NewMatrix(rows, cols)
			rowUsed, colUsed := make([]bool, rows), make([]bool, cols)
			for k := 0; k < n; k++ {
				d := (prio + k) % n
				for i := 0; i < rows; i++ {
					j := ((d-i)%n + n) % n
					if j < cols && req.Get(i, j) && !rowUsed[i] && !colUsed[j] {
						want.Set(i, j)
						rowUsed[i], colUsed[j] = true, true
					}
				}
			}
			prio = (prio + 1) % n
			if got := a.Allocate(req); !got.Equal(want) {
				t.Fatalf("%dx%d trial %d:\nreq:\n%v\ngot:\n%v\nwant:\n%v", rows, cols, trial, req, got, want)
			}
		}
	}
}

func TestMaximumIsMaximum(t *testing.T) {
	// Cross-check Kuhn's algorithm against brute force on small matrices.
	rng := xrand.New(113)
	a := NewMaximum(5, 5)
	for trial := 0; trial < 300; trial++ {
		req := randomMatrix(rng, 5, 5, 0.35)
		got := a.Allocate(req).Count()
		want := bruteForceMax(req)
		if got != want {
			t.Fatalf("trial %d: maximum allocator found %d, brute force %d\n%v", trial, got, want, req)
		}
	}
}

// bruteForceMax computes the maximum matching size by exhaustive search.
func bruteForceMax(req *bitvec.Matrix) int {
	var rec func(row int, usedCols uint32) int
	rec = func(row int, usedCols uint32) int {
		if row == req.Rows() {
			return 0
		}
		best := rec(row+1, usedCols) // skip this row
		req.Row(row).ForEach(func(j int) {
			if usedCols&(1<<j) == 0 {
				if v := 1 + rec(row+1, usedCols|1<<j); v > best {
					best = v
				}
			}
		})
		return best
	}
	return rec(0, 0)
}

func TestMaximumDominatesAll(t *testing.T) {
	// Paper §2.3: maximum-size allocation is the upper bound all other
	// allocators are benchmarked against.
	rng := xrand.New(127)
	max := NewMaximum(8, 8)
	others := []Allocator{
		New(Config{Arch: SepIF, Rows: 8, Cols: 8, ArbKind: arbiter.RoundRobin}),
		New(Config{Arch: SepIF, Rows: 8, Cols: 8, ArbKind: arbiter.Matrix}),
		New(Config{Arch: Wavefront, Rows: 8, Cols: 8}),
	}
	for trial := 0; trial < 300; trial++ {
		req := randomMatrix(rng, 8, 8, 0.3)
		bound := max.Allocate(req).Count()
		for _, a := range others {
			if got := a.Allocate(req).Count(); got > bound {
				t.Fatalf("%s produced %d grants > maximum %d", a.Name(), got, bound)
			}
		}
	}
}

func TestWavefrontDiagonalFairness(t *testing.T) {
	// With full requests, repeated allocation must serve every (row, col)
	// pair eventually thanks to the rotating priority diagonal.
	a := New(Config{Arch: Wavefront, Rows: 4, Cols: 4})
	req := bitvec.NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			req.Set(i, j)
		}
	}
	served := bitvec.NewMatrix(4, 4)
	for k := 0; k < 8; k++ {
		g := a.Allocate(req)
		if g.Count() != 4 {
			t.Fatalf("full request matrix should yield full matching, got %d", g.Count())
		}
		for i := 0; i < 4; i++ {
			g.Row(i).ForEach(func(j int) { served.Set(i, j) })
		}
	}
	if served.Count() != 16 {
		t.Fatalf("rotating diagonal served only %d/16 pairs", served.Count())
	}
}

func TestSeparableFairnessUnderContention(t *testing.T) {
	// Two rows permanently contending for one column must alternate.
	for _, a := range allAllocators(2, 1)[:2] {
		req := bitvec.NewMatrix(2, 1)
		req.Set(0, 0)
		req.Set(1, 0)
		counts := [2]int{}
		for k := 0; k < 100; k++ {
			g := a.Allocate(req)
			if g.Count() != 1 {
				t.Fatalf("%s: want exactly 1 grant", a.Name())
			}
			if g.Get(0, 0) {
				counts[0]++
			} else {
				counts[1]++
			}
		}
		if counts[0] != 50 || counts[1] != 50 {
			t.Errorf("%s: unfair alternation %v", a.Name(), counts)
		}
	}
}

func TestConditionalUpdateFairness(t *testing.T) {
	// The scenario from the paper's fairness rule (§2.1, [13]): with
	// unconditional input-pointer updates a requester can starve. Verify
	// our sep_if does not: row 0 requests {0}, row 1 requests {0, 1}.
	// Row 1 must not be locked out of column 0 forever when a third row
	// competes for column 1.
	a := New(Config{Arch: SepIF, Rows: 3, Cols: 2, ArbKind: arbiter.RoundRobin})
	req := bitvec.NewMatrix(3, 2)
	req.Set(0, 0)
	req.Set(1, 0)
	req.Set(1, 1)
	req.Set(2, 1)
	rowGrants := [3]int{}
	for k := 0; k < 400; k++ {
		g := a.Allocate(req)
		for i := 0; i < 3; i++ {
			if g.Row(i).Any() {
				rowGrants[i]++
			}
		}
	}
	for i, c := range rowGrants {
		if c < 100 {
			t.Errorf("row %d granted only %d/400 times: starvation", i, c)
		}
	}
}

func TestGrantMatrixReused(t *testing.T) {
	// Documented contract: the grant matrix is valid until next Allocate.
	a := New(Config{Arch: Wavefront, Rows: 3, Cols: 3})
	req := bitvec.NewMatrix(3, 3)
	req.Set(0, 0)
	g1 := a.Allocate(req)
	if !g1.Get(0, 0) {
		t.Fatal("expected grant")
	}
	req.Reset()
	req.Set(1, 1)
	g2 := a.Allocate(req)
	if g2 != g1 {
		t.Fatal("allocator should reuse its grant matrix")
	}
	if g1.Get(0, 0) {
		t.Fatal("stale grant left in reused matrix")
	}
}

func TestResetAllocators(t *testing.T) {
	for _, a := range allAllocators(4, 4) {
		req := bitvec.NewMatrix(4, 4)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				req.Set(i, j)
			}
		}
		first := a.Allocate(req).Clone()
		a.Allocate(req)
		a.Reset()
		again := a.Allocate(req)
		if !first.Equal(again) {
			t.Errorf("%s: Reset did not restore initial decision", a.Name())
		}
	}
}

func TestIsMaximalDetectsNonMaximal(t *testing.T) {
	req := bitvec.NewMatrix(2, 2)
	req.Set(0, 0)
	req.Set(1, 1)
	gnt := bitvec.NewMatrix(2, 2)
	gnt.Set(0, 0)
	if IsMaximal(req, gnt) {
		t.Fatal("missing grant (1,1) should make matching non-maximal")
	}
	gnt.Set(1, 1)
	if !IsMaximal(req, gnt) {
		t.Fatal("full matching should be maximal")
	}
}

func TestValidateErrors(t *testing.T) {
	req := bitvec.NewMatrix(2, 2)
	req.Set(0, 0)
	gnt := bitvec.NewMatrix(2, 3)
	if Validate(req, gnt) == nil {
		t.Fatal("shape mismatch must error")
	}
	gnt = bitvec.NewMatrix(2, 2)
	gnt.Set(1, 1) // no request
	if Validate(req, gnt) == nil {
		t.Fatal("grant without request must error")
	}
	req.Set(0, 1)
	req.Set(1, 1)
	bad := bitvec.NewMatrix(2, 2)
	bad.Set(0, 1)
	bad.Set(1, 1) // column conflict
	if Validate(req, bad) == nil {
		t.Fatal("column conflict must error")
	}
}

func TestMatchSize(t *testing.T) {
	req := bitvec.NewMatrix(3, 3)
	req.Set(0, 0)
	req.Set(1, 0)
	req.Set(1, 1)
	req.Set(2, 1)
	// Rows {0,1,2} compete for columns {0,1}: best is (0,0),(1,1) or
	// (0,0),(2,1) etc., size 2.
	if got := MatchSize(req); got != 2 {
		t.Fatalf("MatchSize = %d, want 2", got)
	}
	req.Set(1, 2)
	if got := MatchSize(req); got != 3 {
		t.Fatalf("MatchSize after adding (1,2) = %d, want 3", got)
	}
}

func BenchmarkSepIFRR16x16(b *testing.B) {
	benchAlloc(b, New(Config{Arch: SepIF, Rows: 16, Cols: 16, ArbKind: arbiter.RoundRobin}))
}
func BenchmarkWavefront16x16(b *testing.B) { benchAlloc(b, NewWavefront(16, 16)) }
func BenchmarkMaximum16x16(b *testing.B)   { benchAlloc(b, NewMaximum(16, 16)) }

// BenchmarkAblationPriorityUpdate measures separable allocation with the
// paper's conditional (iSLIP-style) priority updates; the rule's effect on
// grants is exercised by tests, here we measure the allocator's speed.
func BenchmarkAblationPriorityUpdate(b *testing.B) {
	a := New(Config{Arch: SepIF, Rows: 16, Cols: 16, ArbKind: arbiter.RoundRobin})
	req := randomMatrix(xrand.New(7), 16, 16, 0.4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Allocate(req)
	}
}

// benchAlloc times a on one random 16×16 request matrix of density 0.3.
func benchAlloc(b *testing.B, a Allocator) {
	rng := xrand.New(1)
	req := randomMatrix(rng, 16, 16, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Allocate(req)
	}
}

func TestConditionalUpdateAvoidsSynchronization(t *testing.T) {
	// The classic iSLIP pathology the conditional-update rule (§2.1, [13])
	// avoids: two rows both requesting columns {0, 1}. Updating the input
	// pointers on every first-stage pick would move them in lockstep, so
	// every cycle would collide (1 grant/cycle); updating them only on an
	// end-to-end grant desynchronizes them after one cycle, and the
	// allocator sustains 2 grants/cycle.
	req := bitvec.NewMatrix(2, 2)
	req.Set(0, 0)
	req.Set(0, 1)
	req.Set(1, 0)
	req.Set(1, 1)
	a := New(Config{Arch: SepIF, Rows: 2, Cols: 2, ArbKind: arbiter.RoundRobin})
	total := 0
	for cycle := 0; cycle < 100; cycle++ {
		total += a.Allocate(req).Count()
	}
	if total < 190 {
		t.Fatalf("conditional updates should sustain ~2 grants/cycle, got %d/100 cycles", total)
	}
}
