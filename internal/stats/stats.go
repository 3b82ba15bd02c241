// Package stats provides the streaming statistics used by the network
// simulator: a running mean and exact order statistics over bounded
// integer domains (cycle-count histograms).
//
// Packet latencies in a cycle-accurate simulation are small non-negative
// integers, so quantiles are computed exactly from a sparse histogram
// instead of an approximation sketch.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates a mean online.
type Running struct {
	n    int64
	mean float64
}

// Add records one sample.
func (r *Running) Add(x float64) {
	r.n++
	r.mean += (x - r.mean) / float64(r.n)
}

// Mean returns the sample mean (0 with no samples).
func (r *Running) Mean() float64 { return r.mean }

// Hist is a sparse histogram over non-negative integers, supporting exact
// quantiles. The zero value is ready to use.
type Hist struct {
	counts map[int]int64
	total  int64
}

// Add records one observation of value v (v < 0 panics).
func (h *Hist) Add(v int) {
	if v < 0 {
		panic(fmt.Sprintf("stats: negative histogram value %d", v))
	}
	if h.counts == nil {
		h.counts = make(map[int]int64)
	}
	h.counts[v]++
	h.total++
}

// Count returns the number of observations.
func (h *Hist) Count() int64 { return h.total }

// Mean returns the mean observation.
func (h *Hist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for v, c := range h.counts {
		sum += float64(v) * float64(c)
	}
	return sum / float64(h.total)
}

// Quantile returns the smallest value v such that at least q of the mass is
// <= v, for q in [0, 1]. With no samples it returns 0.
func (h *Hist) Quantile(q float64) int {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	keys := make([]int, 0, len(h.counts))
	for v := range h.counts {
		keys = append(keys, v)
	}
	sort.Ints(keys)
	need := int64(math.Ceil(q * float64(h.total)))
	if need == 0 {
		need = 1
	}
	var acc int64
	for _, v := range keys {
		acc += h.counts[v]
		if acc >= need {
			return v
		}
	}
	return keys[len(keys)-1]
}

// Median is Quantile(0.5).
func (h *Hist) Median() int { return h.Quantile(0.5) }

// P99 is Quantile(0.99).
func (h *Hist) P99() int { return h.Quantile(0.99) }

// Max returns the largest observed value (0 with no samples).
func (h *Hist) Max() int {
	max := 0
	for v := range h.counts {
		if v > max {
			max = v
		}
	}
	return max
}
