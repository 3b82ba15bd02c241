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
		if on != nil && proc.State().on != on() {
			t.Fatalf("cycle %d chunk %d: batched phase on=%v, ticked on=%v", c, max, proc.State().on, on())
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

// TestRewindPanicsOnReplayedArrival: a rewind replays cycles that by
// construction precede the presampled arrival, so finding one means the
// snapshot and the stream disagree; that must stay a panic, not a silently
// different run.
func TestRewindPanicsOnReplayedArrival(t *testing.T) {
	p, err := NewPattern("uniform", 64)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGeneratorProcess(p, NewBernoulli(0.6), 0.5)
	rng := xrand.New(42)
	g.Presample(rng, 100, 1024)
	if !g.PresampledReal() {
		t.Fatal("no arrival in 1024 cycles at rate 0.6; the test is vacuous")
	}
	arrival := g.PresampledArrival()
	defer func() {
		if recover() == nil {
			t.Error("Rewind through the presampled arrival did not panic")
		}
	}()
	g.Rewind(rng, arrival)
}

// TestRewindReplaysExactly pins the other side: a rewind to any cycle before
// the arrival leaves the generator exactly where per-cycle ticking from the
// snapshot would, including one through the cycle before the snapshot,
// which replays nothing.
func TestRewindReplaysExactly(t *testing.T) {
	p, err := NewPattern("uniform", 64)
	if err != nil {
		t.Fatal(err)
	}
	const snap = 100
	for _, tc := range []struct {
		name string
		mk   func() ArrivalProcess
	}{
		{"bernoulli", func() ArrivalProcess { return NewBernoulli(0.01) }},
		{"mmp", func() ArrivalProcess { m, _ := NewMMP(0.01, 8, 0.25); return m }},
	} {
		probe := NewGeneratorProcess(p, tc.mk(), 0.5)
		probe.Presample(xrand.New(9), snap, 1024)
		arrival := probe.PresampledArrival()
		if !probe.PresampledReal() || arrival < snap+3 {
			t.Fatalf("%s: presampled arrival at %d; pick another seed", tc.name, arrival)
		}
		for _, through := range []int64{snap - 1, snap, arrival - 2, arrival - 1} {
			proc, ref := tc.mk(), tc.mk()
			g := NewGeneratorProcess(p, proc, 0.5)
			rng, refRNG := xrand.New(9), xrand.New(9)
			g.Presample(rng, snap, 1024)
			g.Rewind(rng, through)
			for c := int64(snap); c <= through; c++ {
				if tick(ref, refRNG) {
					t.Fatalf("%s: reference arrival at %d, before the presampled %d", tc.name, c, arrival)
				}
			}
			if *rng != *refRNG || proc.State() != ref.State() || g.PresampledArrival() != -1 {
				t.Errorf("%s: rewind through %d left generator or process off the ticked stream", tc.name, through)
			}
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
