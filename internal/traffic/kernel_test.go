package traffic

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// The per-tick reference: the injection processes as they were before the
// batch kernel — one xrand.Bool against a float probability per gate, one
// cycle per call. It exists only here; the kernels are tested against it.

type tickedProc interface {
	rate() float64
	tick(rng *xrand.Source) bool
}

type tickedBernoulli struct{ r float64 }

func (b *tickedBernoulli) rate() float64 { return b.r }
func (b *tickedBernoulli) tick(rng *xrand.Source) bool {
	return rng.Bool(b.r / FlitsPerTransaction)
}

type tickedMMP struct {
	r, pOnOff, pOffOn, pArr float64
	on                      bool
}

func newTickedMMP(rate, burstLen, duty float64) *tickedMMP {
	m := &tickedMMP{r: rate, pArr: rate / FlitsPerTransaction / duty, on: true}
	if duty < 1 {
		m.pOnOff = 1 / burstLen
		m.pOffOn = duty / (1 - duty) * m.pOnOff
	}
	return m
}

func (m *tickedMMP) rate() float64 { return m.r }
func (m *tickedMMP) tick(rng *xrand.Source) bool {
	if m.r <= 0 {
		return false
	}
	if m.on {
		if rng.Bool(m.pOnOff) {
			m.on = false
		}
	} else if rng.Bool(m.pOffOn) {
		m.on = true
	}
	return m.on && rng.Bool(m.pArr)
}

// tickDelta is NextArrivalDelta one tick at a time.
func tickDelta(p tickedProc, rng *xrand.Source, max int) int {
	if p.rate() <= 0 {
		return -1
	}
	for k := 0; k < max; k++ {
		if p.tick(rng) {
			return k
		}
	}
	return -1
}

// checkBatchedEqualsTicked drives proc in chunks of NextArrivalDelta and ref
// one tick at a time over the same number of cycles and requires, after
// every chunk, the same return value, the same process state and the same
// generator state. on reads the reference's phase (nil for a stateless one).
func checkBatchedEqualsTicked(t *testing.T, proc ArrivalProcess, ref tickedProc, on func() bool, seed uint64, chunk int) {
	t.Helper()
	const cycles = 3000
	a, b := xrand.New(seed), xrand.New(seed)
	for c := 0; c < cycles; {
		max := chunk
		if rem := cycles - c; rem < max {
			max = rem
		}
		want, got := tickDelta(ref, a, max), proc.NextArrivalDelta(b, max)
		if got != want {
			t.Fatalf("cycle %d chunk %d: batched returned %d, ticked %d", c, max, got, want)
		}
		if *a != *b {
			t.Fatalf("cycle %d chunk %d: generator states diverged", c, max)
		}
		if on != nil && proc.(*MMP).on != on() {
			t.Fatalf("cycle %d chunk %d: batched phase on=%v, ticked on=%v", c, max, proc.(*MMP).on, on())
		}
		if want < 0 {
			c += max
		} else {
			c += want + 1
		}
	}
}

// FuzzBatchedEqualsTicked is the "arrival process batched ≡ ticked" clause
// of the ArrivalProcess contract, for Bernoulli and MMP, against the
// per-tick float reference: return value, process state and final generator
// state, at chunk sizes 1, 7 and 1024 (the presampler's).
func FuzzBatchedEqualsTicked(f *testing.F) {
	ulp := 1.0 / (1 << 53)
	for _, rate := range []float64{0, -1, 0.001, 0.02, 0.3, 1.5, 6, 7,
		6 * ulp, 6 * math.Nextafter(ulp, 1), 6 * (1 - ulp), math.SmallestNonzeroFloat64} {
		for _, duty := range []float64{1, 0.25, 0.9} {
			f.Add(uint64(42), rate, 16.0, duty)
			f.Add(uint64(7), rate*duty, 1.0, duty) // MMP arrival gate at rate/6
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, rate, burstLen, duty float64) {
		if math.IsNaN(rate) || math.IsInf(rate, 0) {
			t.Skip()
		}
		for _, chunk := range []int{1, 7, 1024} {
			checkBatchedEqualsTicked(t, NewBernoulli(rate), &tickedBernoulli{rate}, nil, seed, chunk)
			// NewMMP rejects rates past 6·duty; at exactly 6·duty the ON
			// gate is p = 1, where the kernel must match Bool's
			// draw-nothing-at-p>=1.
			m, err := NewMMP(rate, burstLen, duty)
			if err != nil {
				continue
			}
			ref := newTickedMMP(rate, burstLen, duty)
			checkBatchedEqualsTicked(t, m, ref, func() bool { return ref.on }, seed, chunk)
		}
	})
}

// TestPresampleMatchesTicked pins the generator's presample against
// per-cycle ticking from the same stream: a batch that finds an arrival
// names the cycle NextRequest first fires in, one that finds none parks at
// the chunk checkpoint, and either way both streams end in the same place.
func TestPresampleMatchesTicked(t *testing.T) {
	p, err := NewPattern("uniform", 64)
	if err != nil {
		t.Fatal(err)
	}
	const start, chunk = 100, 1024
	for _, tc := range []struct {
		name string
		mk   func() ArrivalProcess
		real bool // whether the chunk holds an arrival at seed 9
	}{
		{"bernoulli", func() ArrivalProcess { return NewBernoulli(0.01) }, true},
		{"bernoulli-sparse", func() ArrivalProcess { return NewBernoulli(0.0001) }, false},
		{"mmp", func() ArrivalProcess { m, _ := NewMMP(0.01, 8, 0.25); return m }, true},
	} {
		g, ref := NewGeneratorProcess(p, tc.mk(), 0.5), NewGeneratorProcess(p, tc.mk(), 0.5)
		rng, refRNG := xrand.New(9), xrand.New(9)
		g.Presample(rng, start, chunk)
		want := int64(start + chunk)
		for c := int64(start); c < start+chunk; c++ {
			if _, _, ok := ref.NextRequest(0, refRNG); ok {
				want = c
				break
			}
		}
		if got := g.PresampledArrival(); got != want || g.PresampledReal() != (want < start+chunk) {
			t.Errorf("%s: presampled %d (real %v), ticking fires at %d", tc.name, got, g.PresampledReal(), want)
		}
		if g.PresampledReal() != tc.real {
			t.Fatalf("%s: arrival in the chunk %v, want %v; pick another seed", tc.name, g.PresampledReal(), tc.real)
		}
		if g.PresampledReal() {
			g.RequestAt(0, rng) // NextRequest drew the request after its gate
		}
		if *rng != *refRNG {
			t.Errorf("%s: presample left the stream off the ticked one", tc.name)
		}
	}
}

// BenchmarkArrivalDelta is ns per gate draw for one presampler chunk after
// another, batched kernel against the per-tick reference.
func BenchmarkArrivalDelta(b *testing.B) {
	mmp, err := NewMMP(0.005, 32, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		batched ArrivalProcess
		ticked  tickedProc
	}{
		{"bernoulli", NewBernoulli(0.005), &tickedBernoulli{0.005}},
		{"mmp", mmp, newTickedMMP(0.005, 32, 0.25)},
	} {
		run := func(delta func(*xrand.Source, int) int) func(*testing.B) {
			return func(b *testing.B) {
				rng := xrand.New(42)
				ticks := 0
				for i := 0; i < b.N; i++ {
					if d := delta(rng, 1024); d < 0 {
						ticks += 1024
					} else {
						ticks += d + 1
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ticks), "ns/tick")
			}
		}
		b.Run(bc.name+"/ticked", run(func(rng *xrand.Source, max int) int { return tickDelta(bc.ticked, rng, max) }))
		b.Run(bc.name+"/batched", run(bc.batched.NextArrivalDelta))
	}
}
