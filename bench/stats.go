package main

import (
	"fmt"
	"math"
	"sort"
)

// sample is a set of timings of one operation. Every printed timing goes
// through summary(), so it always carries its n and the percentile used.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func (s sample) median() float64 { return percentile(s.sorted(), 50) }

// percentile returns the p-th percentile (0..100) of an ascending slice by
// linear interpolation between closest ranks. Empty input yields NaN.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// quartiles returns Q1, the median and Q3 of an ascending slice as Python's
// statistics.quantiles(v, n=4) computes them (the "exclusive" method), which
// is what the acceptance check for run-to-run spread uses. It needs n >= 2.
func quartiles(s []float64) (q1, med, q3 float64) {
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// tailLadder are the tail percentiles a timing may be reported at.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75}

// tailPercentile returns the highest percentile of the ladder that still has
// at least ten of n samples beyond it, or 0 when even p75 does not (n < 40):
// then only the median is reported.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		// Rounded to 1e-9 so that 100 samples at p90 count as exactly ten.
		if math.Round(float64(n)*(100-p)/100*1e9)/1e9 >= 10 {
			return p
		}
	}
	return 0
}

// summary is a timing as printed: median with quartiles, tail percentile
// chosen by tailPercentile, and the sample count.
type summary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	Q1     float64 `json:"q1,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	TailP  float64 `json:"tail_percentile,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
	Unit   string  `json:"unit"`
	sorted []float64
}

func (s sample) summary(unit string) summary {
	sorted := s.sorted()
	out := summary{N: len(sorted), P50: percentile(sorted, 50), Unit: unit, sorted: sorted}
	if len(sorted) >= 2 {
		out.Q1, _, out.Q3 = quartiles(sorted)
	}
	if p := tailPercentile(len(sorted)); p > 0 {
		out.TailP, out.Tail = p, percentile(sorted, p)
	}
	return out
}

func (s summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	out := fmt.Sprintf("p50 %.4g %s", s.P50, s.Unit)
	if s.N >= 2 {
		out += fmt.Sprintf(" [q1 %.4g, q3 %.4g]", s.Q1, s.Q3)
	}
	if s.TailP > 0 {
		out += fmt.Sprintf(", p%g %.4g %s", s.TailP, s.Tail, s.Unit)
	}
	return out + fmt.Sprintf(" (n=%d)", s.N)
}
