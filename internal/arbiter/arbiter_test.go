package arbiter

import (
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/xrand"
)

func allKinds() []Kind { return []Kind{RoundRobin, Matrix} }

// one returns a bank of one n-input arbiter of kind k: a single arbiter,
// addressed as index 0.
func one(k Kind, n int) *Bank {
	b := NewBank(k, 1, n)
	return &b
}

// oneTree returns a bank of one tree arbiter over groups*groupSize inputs.
func oneTree(k Kind, groups, groupSize int) *TreeBank {
	t := NewTreeBank(k, 1, groups, groupSize)
	return &t
}

func vec(bits ...int) *bitvec.Vec {
	max := 0
	for _, b := range bits {
		if b >= max {
			max = b + 1
		}
	}
	v := bitvec.New(max)
	for _, b := range bits {
		v.Set(b)
	}
	return v
}

func vecN(n int, bits ...int) *bitvec.Vec {
	v := bitvec.New(n)
	for _, b := range bits {
		v.Set(b)
	}
	return v
}

func TestKindString(t *testing.T) {
	if RoundRobin.String() != "rr" || Matrix.String() != "m" {
		t.Fatal("Kind names must match paper legends")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestNewUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBank(Kind(99), 1, 4)
}

func TestPickEmptyReturnsMinusOne(t *testing.T) {
	for _, k := range allKinds() {
		a := one(k, 8)
		if got := a.Pick(0, bitvec.New(8)); got != -1 {
			t.Errorf("%v: Pick(empty) = %d, want -1", k, got)
		}
	}
}

func TestPickSingleRequest(t *testing.T) {
	for _, k := range allKinds() {
		a := one(k, 8)
		for i := 0; i < 8; i++ {
			if got := a.Pick(0, vecN(8, i)); got != i {
				t.Errorf("%v: sole requester %d not granted (got %d)", k, i, got)
			}
		}
	}
}

func TestPickIsStatelessUntilUpdate(t *testing.T) {
	for _, k := range allKinds() {
		a := one(k, 8)
		r := vecN(8, 2, 5, 7)
		w1 := a.Pick(0, r)
		w2 := a.Pick(0, r)
		if w1 != w2 {
			t.Errorf("%v: Pick changed winner without Update: %d then %d", k, w1, w2)
		}
	}
}

func TestRoundRobinRotation(t *testing.T) {
	a := one(RoundRobin, 4)
	all := vecN(4, 0, 1, 2, 3)
	want := []int{0, 1, 2, 3, 0, 1}
	for i, w := range want {
		got := a.Pick(0, all)
		if got != w {
			t.Fatalf("step %d: got %d, want %d", i, got, w)
		}
		a.Update(0, got)
	}
}

func TestRoundRobinSkipsNonRequesting(t *testing.T) {
	a := one(RoundRobin, 4)
	a.Update(0, 0) // priority now at 1
	if got := a.Pick(0, vecN(4, 0, 3)); got != 3 {
		t.Fatalf("got %d, want 3 (first requester at/after pointer)", got)
	}
}

func TestMatrixLeastRecentlyServed(t *testing.T) {
	a := one(Matrix, 3)
	all := vecN(3, 0, 1, 2)
	// initial order 0>1>2
	if w := a.Pick(0, all); w != 0 {
		t.Fatalf("want 0 first, got %d", w)
	}
	a.Update(0, 0)
	if w := a.Pick(0, all); w != 1 {
		t.Fatalf("want 1 second, got %d", w)
	}
	a.Update(0, 1)
	if w := a.Pick(0, all); w != 2 {
		t.Fatalf("want 2 third, got %d", w)
	}
	a.Update(0, 2)
	if w := a.Pick(0, all); w != 0 {
		t.Fatalf("want 0 again, got %d", w)
	}
	// LRS beyond simple rotation: serve 0, then 0 and 2 request; 2 was
	// served longer ago than... both 1 and 2 unserved; after Update(0),
	// order is 1>2>0; request {0,2} should pick 2.
	a.Reset()
	a.Update(0, 0)
	if w := a.Pick(0, vecN(3, 0, 2)); w != 2 {
		t.Fatalf("LRS pick: got %d, want 2", w)
	}
}

func TestConditionalUpdatePreservesWinner(t *testing.T) {
	// Without Update, the same input keeps winning — this is the hook the
	// separable allocators rely on for iSLIP-style fairness.
	for _, k := range allKinds() {
		a := one(k, 5)
		r := vecN(5, 1, 3)
		w := a.Pick(0, r)
		for i := 0; i < 5; i++ {
			if a.Pick(0, r) != w {
				t.Errorf("%v: winner drifted without Update", k)
			}
		}
	}
}

func TestUpdateOutOfRangePanics(t *testing.T) {
	for _, k := range allKinds() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: expected panic", k)
				}
			}()
			one(k, 4).Update(0, 4)
		}()
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	for _, k := range allKinds() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: expected panic", k)
				}
			}()
			one(k, 4).Pick(0, bitvec.New(5))
		}()
	}
}

func TestResetRestoresInitialOrder(t *testing.T) {
	for _, k := range allKinds() {
		a := one(k, 4)
		all := vecN(4, 0, 1, 2, 3)
		first := a.Pick(0, all)
		a.Update(0, first)
		a.Update(0, a.Pick(0, all))
		a.Reset()
		if got := a.Pick(0, all); got != first {
			t.Errorf("%v: Reset did not restore initial winner (got %d, want %d)", k, got, first)
		}
	}
}

// Property: the winner is always a requesting input.
func TestQuickWinnerRequests(t *testing.T) {
	for _, k := range allKinds() {
		a := one(k, 16)
		f := func(reqBits uint16, updates uint8) bool {
			r := bitvec.New(16)
			for i := 0; i < 16; i++ {
				if reqBits&(1<<i) != 0 {
					r.Set(i)
				}
			}
			w := a.Pick(0, r)
			if !r.Any() {
				return w == -1
			}
			if w < 0 || !r.Get(w) {
				return false
			}
			if updates%2 == 0 {
				a.Update(0, w)
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%v: %v", k, err)
		}
	}
}

// Fairness: under persistent full load with Update after every grant, every
// input is served the same number of times over a full rotation multiple.
func TestFairnessUnderFullLoad(t *testing.T) {
	for _, k := range allKinds() {
		a := one(k, 6)
		all := bitvec.New(6)
		for i := 0; i < 6; i++ {
			all.Set(i)
		}
		counts := make([]int, 6)
		for i := 0; i < 6*50; i++ {
			w := a.Pick(0, all)
			counts[w]++
			a.Update(0, w)
		}
		for i, c := range counts {
			if c != 50 {
				t.Errorf("%v: input %d served %d times, want 50", k, i, c)
			}
		}
	}
}

// Fairness: under random load, no requester starves: any persistent
// requester is served within as many grants as the arbiter has inputs.
func TestNoStarvation(t *testing.T) {
	for _, k := range allKinds() {
		a := one(k, 8)
		rng := xrand.New(99)
		// input 3 always requests; others randomly.
		sinceServed := 0
		for step := 0; step < 2000; step++ {
			r := bitvec.New(8)
			r.Set(3)
			for i := 0; i < 8; i++ {
				if i != 3 && rng.Bool(0.7) {
					r.Set(i)
				}
			}
			w := a.Pick(0, r)
			a.Update(0, w)
			if w == 3 {
				sinceServed = 0
			} else {
				sinceServed++
				if sinceServed > 8 {
					t.Fatalf("%v: persistent requester starved for %d grants", k, sinceServed)
				}
			}
		}
	}
}

func TestTreeArbiterBasics(t *testing.T) {
	tr := oneTree(RoundRobin, 3, 4) // 12 inputs
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("an 11-wide request to a 12-input tree must panic")
			}
		}()
		tr.Pick(0, bitvec.New(11))
	}()
	if got := tr.Pick(0, bitvec.New(12)); got != -1 {
		t.Fatalf("Pick(empty) = %d, want -1", got)
	}
	// single request in group 2
	if got := tr.Pick(0, vecN(12, 9)); got != 9 {
		t.Fatalf("got %d, want 9", got)
	}
}

func TestTreeArbiterWinnerRequests(t *testing.T) {
	tr := oneTree(Matrix, 4, 4)
	rng := xrand.New(5)
	for step := 0; step < 500; step++ {
		r := bitvec.New(16)
		for i := 0; i < 16; i++ {
			if rng.Bool(0.3) {
				r.Set(i)
			}
		}
		w := tr.Pick(0, r)
		if !r.Any() {
			if w != -1 {
				t.Fatal("empty request must yield -1")
			}
			continue
		}
		if w < 0 || !r.Get(w) {
			t.Fatalf("winner %d not a requester", w)
		}
		tr.Update(0, w)
	}
}

func TestTreeArbiterGroupFairness(t *testing.T) {
	tr := oneTree(RoundRobin, 2, 2)
	all := vecN(4, 0, 1, 2, 3)
	counts := make([]int, 4)
	for i := 0; i < 400; i++ {
		w := tr.Pick(0, all)
		counts[w]++
		tr.Update(0, w)
	}
	for i, c := range counts {
		if c != 100 {
			t.Errorf("input %d served %d, want 100", i, c)
		}
	}
}

func TestTreeArbiterReset(t *testing.T) {
	tr := oneTree(RoundRobin, 2, 2)
	all := vecN(4, 0, 1, 2, 3)
	first := tr.Pick(0, all)
	tr.Update(0, first)
	tr.Reset()
	if got := tr.Pick(0, all); got != first {
		t.Fatalf("Reset did not restore state: got %d, want %d", got, first)
	}
}

func TestTreeArbiterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad dimensions")
		}
	}()
	NewTreeBank(RoundRobin, 1, 0, 4)
}

func TestVecHelpersInTests(t *testing.T) {
	// sanity for the local test helpers themselves
	v := vec(0, 2)
	if v.Len() != 3 || !v.Get(0) || v.Get(1) || !v.Get(2) {
		t.Fatal("vec helper broken")
	}
}

func BenchmarkRoundRobinPick64(b *testing.B) {
	a := one(RoundRobin, 64)
	r := bitvec.New(64)
	for i := 0; i < 64; i += 3 {
		r.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := a.Pick(0, r)
		a.Update(0, w)
	}
}

func BenchmarkMatrixPick64(b *testing.B) {
	a := one(Matrix, 64)
	r := bitvec.New(64)
	for i := 0; i < 64; i += 3 {
		r.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := a.Pick(0, r)
		a.Update(0, w)
	}
}

// BenchmarkAblationTreeArbiter compares tree vs flat arbitration for the
// P×V-input output stage of VC allocators (§4.1).
func BenchmarkAblationTreeArbiter(b *testing.B) {
	req := bitvec.New(160)
	for i := 0; i < 160; i += 7 {
		req.Set(i)
	}
	b.Run("flat160", func(b *testing.B) {
		b.ReportAllocs()
		a := one(RoundRobin, 160)
		for i := 0; i < b.N; i++ {
			a.Pick(0, req)
		}
	})
	b.Run("tree10x16", func(b *testing.B) {
		b.ReportAllocs()
		a := oneTree(RoundRobin, 10, 16)
		for i := 0; i < b.N; i++ {
			a.Pick(0, req)
		}
	})
}

// BenchmarkBankPickWord is the word form of the two benches above: the same
// 64-wide request set, picked and updated through a bank.
func BenchmarkBankPickWord(b *testing.B) {
	var req uint64
	for i := 0; i < 64; i += 3 {
		req |= 1 << uint(i)
	}
	for _, k := range allKinds() {
		b.Run(k.String(), func(b *testing.B) {
			bank := NewBank(k, 1, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := bank.PickWord(0, req)
				bank.Update(0, w)
			}
		})
	}
}

// BenchmarkTreeBankPickWords is the output stage of a separable VC allocator
// at the fbfly design point: a tree of 10 ports × 16 VCs, a third of the
// inputs requesting, picked and updated through the word entry point.
func BenchmarkTreeBankPickWords(b *testing.B) {
	leaves := make([]uint64, 10)
	var any uint64
	for i := 0; i < 160; i += 3 {
		leaves[i/16] |= 1 << uint(i%16)
		any |= 1 << uint(i/16)
	}
	for _, k := range allKinds() {
		b.Run(k.String(), func(b *testing.B) {
			bank := NewTreeBank(k, 1, 10, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := bank.PickWords(0, any, leaves)
				bank.Update(0, w)
			}
		})
	}
}

// Property: the matrix arbiter's priority matrix always encodes a
// tournament (exactly one of "i beats j" / "j beats i" for i != j), so a
// unique winner exists for every non-empty request set.
func TestQuickMatrixTournamentInvariant(t *testing.T) {
	bank := one(Matrix, 6)
	a := &bank.mx[0]
	rng := xrand.New(771)
	check := func() {
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				if i == j {
					continue
				}
				if a.beats[i].Get(j) == a.beats[j].Get(i) {
					t.Fatalf("tournament violated at (%d,%d)", i, j)
				}
			}
		}
	}
	check()
	for step := 0; step < 500; step++ {
		r := bitvec.New(6)
		for i := 0; i < 6; i++ {
			if rng.Bool(0.5) {
				r.Set(i)
			}
		}
		if w := bank.Pick(0, r); w >= 0 {
			bank.Update(0, w)
		}
		check()
	}
}

// Property: a matrix arbiter's winner is unique — no two requesting inputs
// can simultaneously beat all other requesters.
func TestQuickMatrixWinnerUnique(t *testing.T) {
	bank := one(Matrix, 8)
	a := &bank.mx[0]
	rng := xrand.New(773)
	for step := 0; step < 500; step++ {
		r := bitvec.New(8)
		for i := 0; i < 8; i++ {
			if rng.Bool(0.6) {
				r.Set(i)
			}
		}
		winners := 0
		r.ForEach(func(i int) {
			ok := true
			r.ForEach(func(j int) {
				if i != j && !a.beats[i].Get(j) {
					ok = false
				}
			})
			if ok {
				winners++
			}
		})
		if r.Any() && winners != 1 {
			t.Fatalf("step %d: %d winners for %s", step, winners, r)
		}
		if w := bank.Pick(0, r); w >= 0 && step%3 == 0 {
			bank.Update(0, w)
		}
	}
}
