package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	s := New(0)
	var acc uint64
	for i := 0; i < 100; i++ {
		acc |= s.Uint64()
	}
	if acc == 0 {
		t.Fatal("zero seed produced all-zero stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	c1 := root.Split(1)
	c2 := root.Split(2)
	c1again := root.Split(1)
	if c1.Uint64() != c1again.Uint64() {
		t.Fatal("Split must be a pure function of (state, id)")
	}
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("distinct split ids should give distinct streams")
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Split(5)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Split advanced parent state")
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	s := New(11)
	const n, iters = 8, 80000
	counts := make([]int, n)
	for i := 0; i < iters; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(iters) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("bucket %d count %d deviates >5%% from %f", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %f out of [0,1)", f)
		}
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(5)
	if s.Bool(0) {
		t.Fatal("Bool(0) must be false")
	}
	if !s.Bool(1) {
		t.Fatal("Bool(1) must be true")
	}
	if s.Bool(-0.5) {
		t.Fatal("Bool(negative) must be false")
	}
}

func TestBoolRate(t *testing.T) {
	s := New(13)
	const iters = 100000
	hits := 0
	for i := 0; i < iters; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	rate := float64(hits) / iters
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) empirical rate %f", rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(23)
	p := make([]int, 50)
	s.Perm(p)
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	s := New(29)
	const n, iters = 5, 50000
	counts := make([]int, n)
	p := make([]int, n)
	for i := 0; i < iters; i++ {
		s.Perm(p)
		counts[p[0]]++
	}
	want := float64(iters) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.06*want {
			t.Fatalf("first-element bucket %d count %d deviates from %f", i, c, want)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= s.Uint64()
	}
	_ = acc
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	var acc int
	for i := 0; i < b.N; i++ {
		acc ^= s.Intn(160)
	}
	_ = acc
}

// TestStateRestore pins that a Source's whole state is its value: a copy
// taken at any point, assigned back after arbitrary draws, replays the
// identical stream, and equal values compare equal. Tests that compare
// streams by comparing Source values rely on both.
func TestStateRestore(t *testing.T) {
	s := New(99)
	s.Uint64() // advance off the seed state
	snap := *s
	var first [32]uint64
	for i := range first {
		first[i] = s.Uint64()
	}
	s.Intn(17)
	s.Bool(0.3)
	*s = snap
	if *s != snap {
		t.Fatal("a restored Source must equal its copy")
	}
	for i := range first {
		if got := s.Uint64(); got != first[i] {
			t.Fatalf("draw %d after restoring the copy = %d, want %d", i, got, first[i])
		}
	}
}

// yielding returns a source whose next Uint64 is u: the output function
// rotl(s1*5, 7)*9 is a bijection on s1 (5 and 9 are odd), so invert it.
func yielding(t *testing.T, u uint64) *Source {
	t.Helper()
	const inv5, inv9 = 0xcccccccccccccccd, 0x8e38e38e38e38e39
	s := New(1)
	s.s[1] = rotl(u*inv9, 64-7) * inv5
	if probe := *s; probe.Uint64() != u {
		t.Fatalf("yielding(%#x) yields %#x", u, probe.Uint64())
	}
	return s
}

// TestThresholdAgreesWithBool pins the integer form of the gate: for
// probabilities on and either side of the 2^-53 lattice a draw lands on, and
// draws on and either side of the threshold, FirstBelow(Threshold(p), 1)
// decides what Bool(p) decides and leaves the generator where Bool leaves
// it — one draw on, or untouched at p <= 0 and p >= 1.
func TestThresholdAgreesWithBool(t *testing.T) {
	const one = 1 << 53
	var ps []float64
	for _, k := range []uint64{1, 2, 3, 1 << 20, 1<<52 - 1, 1 << 52, 1<<52 + 1, one - 2, one - 1} {
		p := float64(k) / one
		ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, 1))
	}
	ps = append(ps, 0, -0.5, 1, 1.5, math.SmallestNonzeroFloat64, 0.02/6, 1.0/3)
	for _, p := range ps {
		th := Threshold(p)
		ms := []uint64{0, 1, one - 1}
		for d := uint64(0); d <= 2; d++ {
			ms = append(ms, (th+d)%one, (th+one-d)%one)
		}
		for _, m := range ms {
			for _, low := range []uint64{0, 1<<11 - 1} {
				a, b := yielding(t, m<<11|low), yielding(t, m<<11|low)
				start := *a
				want := a.Bool(p)
				if got := b.FirstBelow(th, 1) == 0; got != want {
					t.Errorf("p=%g (threshold %d) draw %d: FirstBelow says %v, Bool says %v", p, th, m, got, want)
				}
				if *a != *b {
					t.Errorf("p=%g draw %d: FirstBelow and Bool left different generator states", p, m)
				}
				if drew := *a != start; drew != (p > 0 && p < 1) {
					t.Errorf("p=%g: consumed a draw: %v", p, drew)
				}
			}
		}
	}
}

// TestFirstBelowIsRepeatedBool pins the batch against the loop it replaces:
// same index, same generator state, for hits, misses and the max <= 0 and
// no-draw probabilities.
func TestFirstBelowIsRepeatedBool(t *testing.T) {
	for _, p := range []float64{-1, 0, 1e-9, 0.001, 0.02 / 6, 0.3, 0.999, 1, 2} {
		for _, max := range []int{-3, 0, 1, 7, 1024} {
			a, b := New(42), New(42)
			for trial := 0; trial < 200; trial++ {
				want := -1
				for i := 0; i < max; i++ {
					if a.Bool(p) {
						want = i
						break
					}
				}
				if got := b.FirstBelow(Threshold(p), max); got != want {
					t.Fatalf("p=%g max=%d trial %d: FirstBelow = %d, Bool loop = %d", p, max, trial, got, want)
				}
				if *a != *b {
					t.Fatalf("p=%g max=%d trial %d: generator states diverged", p, max, trial)
				}
			}
		}
	}
}
