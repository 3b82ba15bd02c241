package bitvec

import (
	"math/rand"
	"testing"
)

func TestVecNextSet(t *testing.T) {
	v := New(200)
	if v.NextSet(0) != -1 {
		t.Fatal("empty vector NextSet should be -1")
	}
	for _, i := range []int{0, 63, 64, 130, 199} {
		v.Set(i)
	}
	cases := []struct{ from, want int }{
		{0, 0}, {1, 63}, {63, 63}, {64, 64}, {65, 130}, {131, 199}, {199, 199}, {200, -1},
	}
	for _, c := range cases {
		if got := v.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if got := v.NextSet(-5); got != 0 {
		t.Errorf("NextSet(-5) = %d, want 0", got)
	}
}

func TestVecNextSetMatchesForEach(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		v := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				v.Set(i)
			}
		}
		var want []int
		v.ForEach(func(i int) { want = append(want, i) })
		var got []int
		for i := v.NextSet(0); i >= 0; i = v.NextSet(i + 1) {
			got = append(got, i)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: NextSet visited %d bits, ForEach %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: NextSet order %v, want %v", n, got, want)
			}
		}
	}
}

func TestVecSetAll(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		v := New(n)
		v.SetAll()
		if v.Count() != n {
			t.Fatalf("n=%d: SetAll Count = %d", n, v.Count())
		}
		// The tail word must stay masked so Count/Any remain correct.
		v.Clear(n - 1)
		if v.Count() != n-1 {
			t.Fatalf("n=%d: Count after Clear = %d, want %d", n, v.Count(), n-1)
		}
	}
}

func TestVecAndIntoAndNotInto(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
			}
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		wantAnd := a.Clone()
		wantAnd.And(b)
		wantAndNot := a.Clone()
		wantAndNot.AndNot(b)

		dst := New(n)
		if any := dst.AndInto(a, b); any != wantAnd.Any() {
			t.Fatalf("n=%d: AndInto any = %v, want %v", n, any, wantAnd.Any())
		}
		if !dst.Equal(wantAnd) {
			t.Fatalf("n=%d: AndInto = %s, want %s", n, dst, wantAnd)
		}
		if any := dst.AndNotInto(a, b); any != wantAndNot.Any() {
			t.Fatalf("n=%d: AndNotInto any = %v, want %v", n, any, wantAndNot.Any())
		}
		if !dst.Equal(wantAndNot) {
			t.Fatalf("n=%d: AndNotInto = %s, want %s", n, dst, wantAndNot)
		}
	}
}

func TestVecSliceFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		srcN := 1 + rng.Intn(400)
		src := New(srcN)
		for i := 0; i < srcN; i++ {
			if rng.Intn(3) == 0 {
				src.Set(i)
			}
		}
		w := 1 + rng.Intn(srcN)
		off := rng.Intn(srcN - w + 1)
		dst := New(w)
		any := dst.SliceFrom(src, off)
		wantAny := false
		for c := 0; c < w; c++ {
			want := src.Get(off + c)
			wantAny = wantAny || want
			if dst.Get(c) != want {
				t.Fatalf("srcN=%d off=%d w=%d: bit %d = %v, want %v",
					srcN, off, w, c, dst.Get(c), want)
			}
		}
		if any != wantAny {
			t.Fatalf("srcN=%d off=%d w=%d: any = %v, want %v", srcN, off, w, any, wantAny)
		}
		if got := dst.Count(); got > w {
			t.Fatalf("tail word not masked: Count = %d > width %d", got, w)
		}
	}
}

// FuzzWordOps differentially checks every word-parallel operation against a
// naive per-bit reference model. The fuzzer chooses the vector length, the
// bit patterns (drawn cyclically from raw byte strings), and the offsets fed
// to the windowed and iterator operations, so word-boundary and tail-masking
// edge cases (n = 64k, 64k±1) are reached without being enumerated by hand.
func FuzzWordOps(f *testing.F) {
	f.Add([]byte{0xff}, []byte{0x0f}, uint16(64), uint16(0), uint16(0))
	f.Add([]byte{0xaa, 0x55}, []byte{0x01}, uint16(65), uint16(3), uint16(64))
	f.Add([]byte{}, []byte{0x80}, uint16(129), uint16(70), uint16(128))
	f.Add([]byte{0x01, 0x00, 0x80}, []byte{0xff, 0xff}, uint16(200), uint16(190), uint16(199))
	f.Add([]byte{0x10}, []byte{}, uint16(63), uint16(62), uint16(1))
	f.Fuzz(func(t *testing.T, aBytes, bBytes []byte, n16, off16, from16 uint16) {
		n := int(n16)%512 + 1
		bitAt := func(pattern []byte, i int) bool {
			if len(pattern) == 0 {
				return false
			}
			return pattern[(i/8)%len(pattern)]&(1<<(i%8)) != 0
		}
		refA := make([]bool, n)
		refB := make([]bool, n)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			refA[i] = bitAt(aBytes, i)
			refB[i] = bitAt(bBytes, i)
			a.SetTo(i, refA[i])
			b.SetTo(i, refB[i])
		}

		// Point queries and reductions.
		wantCount, wantFirst := 0, -1
		for i := 0; i < n; i++ {
			if a.Get(i) != refA[i] {
				t.Fatalf("n=%d: Get(%d) = %v, want %v", n, i, a.Get(i), refA[i])
			}
			if refA[i] {
				wantCount++
				if wantFirst < 0 {
					wantFirst = i
				}
			}
		}
		if a.Count() != wantCount || a.Any() != (wantCount > 0) || a.First() != wantFirst {
			t.Fatalf("n=%d: Count/Any/First = %d/%v/%d, want %d/%v/%d",
				n, a.Count(), a.Any(), a.First(), wantCount, wantCount > 0, wantFirst)
		}

		// Iterators: NextSet from an arbitrary start, the full NextSet scan
		// against ForEach, and NextFrom's wrap-around.
		from := int(from16) % (n + 2) // may equal n or n+1: past-the-end must return -1
		wantNext := -1
		for i := from; i < n; i++ {
			if i >= 0 && refA[i] {
				wantNext = i
				break
			}
		}
		if got := a.NextSet(from); got != wantNext {
			t.Fatalf("n=%d: NextSet(%d) = %d, want %d", n, from, got, wantNext)
		}
		var scan []int
		for i := a.NextSet(0); i >= 0; i = a.NextSet(i + 1) {
			scan = append(scan, i)
		}
		var walked []int
		a.ForEach(func(i int) { walked = append(walked, i) })
		if len(scan) != len(walked) {
			t.Fatalf("n=%d: NextSet scan %d bits, ForEach %d", n, len(scan), len(walked))
		}
		for i := range scan {
			if scan[i] != walked[i] {
				t.Fatalf("n=%d: NextSet scan %v != ForEach %v", n, scan, walked)
			}
		}
		start := from
		if start >= n || start < 0 {
			start = 0
		}
		wantWrap := -1
		for k := 0; k < n; k++ {
			if i := (start + k) % n; refA[i] {
				wantWrap = i
				break
			}
		}
		if got := a.NextFrom(from); got != wantWrap {
			t.Fatalf("n=%d: NextFrom(%d) = %d, want %d", n, from, got, wantWrap)
		}

		// Boolean combinations, in-place and fused destination forms.
		for _, op := range []struct {
			name string
			word func() *Vec
			bit  func(x, y bool) bool
		}{
			{"Or", func() *Vec { c := a.Clone(); c.Or(b); return c }, func(x, y bool) bool { return x || y }},
			{"And", func() *Vec { c := a.Clone(); c.And(b); return c }, func(x, y bool) bool { return x && y }},
			{"AndNot", func() *Vec { c := a.Clone(); c.AndNot(b); return c }, func(x, y bool) bool { return x && !y }},
			{"AndInto", func() *Vec { c := New(n); c.AndInto(a, b); return c }, func(x, y bool) bool { return x && y }},
			{"AndNotInto", func() *Vec { c := New(n); c.AndNotInto(a, b); return c }, func(x, y bool) bool { return x && !y }},
		} {
			got := op.word()
			anyRef := false
			for i := 0; i < n; i++ {
				want := op.bit(refA[i], refB[i])
				anyRef = anyRef || want
				if got.Get(i) != want {
					t.Fatalf("n=%d: %s bit %d = %v, want %v", n, op.name, i, got.Get(i), want)
				}
			}
			if got.Any() != anyRef || got.Count() > n {
				t.Fatalf("n=%d: %s Any/Count = %v/%d, want any=%v within width",
					n, op.name, got.Any(), got.Count(), anyRef)
			}
		}
		gotAny := New(n).AndInto(a, b)
		wantAny := false
		for i := 0; i < n; i++ {
			wantAny = wantAny || (refA[i] && refB[i])
		}
		if gotAny != wantAny {
			t.Fatalf("n=%d: AndInto reported any=%v, want %v", n, gotAny, wantAny)
		}

		// Windowed extraction at a fuzzer-chosen offset, including the
		// shift==0 fast path when off lands on a word boundary.
		off := int(off16) % n
		w := n - off
		dst := New(w)
		sliceAny := dst.SliceFrom(a, off)
		wantSliceAny := false
		for c := 0; c < w; c++ {
			want := refA[off+c]
			wantSliceAny = wantSliceAny || want
			if dst.Get(c) != want {
				t.Fatalf("n=%d off=%d: SliceFrom bit %d = %v, want %v", n, off, c, dst.Get(c), want)
			}
		}
		if sliceAny != wantSliceAny || dst.Count() > w {
			t.Fatalf("n=%d off=%d: SliceFrom any/Count = %v/%d, want any=%v within width %d",
				n, off, sliceAny, dst.Count(), wantSliceAny, w)
		}

		// Tail masking: SetAll must not leak bits past Len into reductions.
		full := New(n)
		full.SetAll()
		if full.Count() != n {
			t.Fatalf("n=%d: SetAll Count = %d", n, full.Count())
		}
		full.Clear(n - 1)
		if full.Count() != n-1 || full.NextSet(n-1) != -1 {
			t.Fatalf("n=%d: tail word leaked bits past Len", n)
		}

		// Copy semantics: Clone and CopyFrom round-trip through Equal.
		c := a.Clone()
		if !c.Equal(a) || !a.Equal(c) {
			t.Fatalf("n=%d: Clone not Equal to source", n)
		}
		c.Reset()
		if c.Any() {
			t.Fatalf("n=%d: Reset left bits set", n)
		}
		c.CopyFrom(a)
		if !c.Equal(a) {
			t.Fatalf("n=%d: CopyFrom diverged from source", n)
		}
	})
}
