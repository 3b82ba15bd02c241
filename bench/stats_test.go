package main

import (
	"math"
	"testing"
	"time"
)

func ramp(n int) sample {
	s := make(sample, n)
	for i := range s {
		s[n-1-i] = float64(i + 1) // descending input: summary must sort
	}
	return s
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {80000, 99.9}, {100000, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummaryKnownVectors(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	// 1..n: the p-th percentile by linear interpolation is 1 + p/100*(n-1).
	for _, c := range []struct {
		n          int
		p50, tailP float64
		tail       float64
	}{
		{10, 5.5, 0, 0},
		{40, 20.5, 75, 30.25},
		{100, 50.5, 90, 90.1},
		{80000, 40000.5, 99.9, 79920.001},
	} {
		s := ramp(c.n).summary("ms")
		if s.N != c.n || !near(s.P50, c.p50) || s.TailP != c.tailP || !near(s.Tail, c.tail) {
			t.Errorf("n=%d: got %+v, want p50 %g p%g %g", c.n, s, c.p50, c.tailP, c.tail)
		}
		if beyond := float64(c.n) * (100 - s.TailP) / 100; s.TailP > 0 && beyond < 10 {
			t.Errorf("n=%d: only %g samples beyond p%g", c.n, beyond, s.TailP)
		}
	}
	if got := ramp(10).summary("ms").String(); got != "p50 5.5 ms [q1 2.75, q3 8.25] (n=10)" {
		t.Errorf("String() = %q", got)
	}
	if got := ramp(100).summary("us").String(); got != "p50 50.5 us [q1 25.25, q3 75.75], p90 90.1 us (n=100)" {
		t.Errorf("String() = %q", got)
	}
	if got := (sample{3}).summary("s").String(); got != "p50 3 s (n=1)" {
		t.Errorf("String() = %q", got)
	}
}

// Python: statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) ==
// [3.5, 13.5, 31.0]; statistics.quantiles(range(1, 41), n=4) == [10.25, 20.5, 30.75].
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles(sample{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}.sorted())
	if q1 != 3.5 || med != 13.5 || q3 != 31.0 {
		t.Errorf("quartiles = %g %g %g, want 3.5 13.5 31", q1, med, q3)
	}
	q1, med, q3 = quartiles(ramp(40).sorted())
	if q1 != 10.25 || med != 20.5 || q3 != 30.75 {
		t.Errorf("quartiles(1..40) = %g %g %g, want 10.25 20.5 30.75", q1, med, q3)
	}
}

// A host that takes twice the reference kernel time throughout, with
// exponent 2, is four times slow: every timing and the loop length shrink by
// four; a pass taken inside an operation is left out of its time.
func TestHostSpeedScaling(t *testing.T) {
	h := &hostSpeed{exponent: 2}
	epoch := time.Unix(0, 0)
	for j := 0; j < 8; j++ { // a 2 ms pass every 100 ms
		t0 := epoch.Add(time.Duration(j) * 100 * time.Millisecond)
		h.start, h.end, h.ms = append(h.start, t0), append(h.end, t0.Add(2*time.Millisecond)), append(h.ms, 2*referenceKernelMS)
	}
	h.ms[3] = 40 // one pass hit by an interrupt: the window median ignores it
	h.smooth()
	for j, f := range h.factor {
		if f != 4 {
			t.Errorf("factor[%d] = %g, want 4", j, f)
		}
	}
	var tm timed
	tm.raw, tm.from, tm.to = sample{8, 20}, []int{1, 6}, []int{1, 99} // the second ends after the last pass
	if got := tm.scaled(h); got[0] != 2 || got[1] != 5 {
		t.Errorf("scaled = %v, want [2 5]", got)
	}
	scaled, raw := h.seconds(1, 5)
	if math.Abs(raw-4*0.098) > 1e-12 || math.Abs(scaled-0.098) > 1e-12 {
		t.Errorf("seconds(1, 5) = %g scaled, %g raw; want 0.098 and 0.392", scaled, raw)
	}
}
