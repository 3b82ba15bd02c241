package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	if r.Mean() != 0 {
		t.Fatal("zero value should be empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %f, want 5", r.Mean())
	}
}

func TestRunningSingleSample(t *testing.T) {
	var r Running
	r.Add(3)
	if r.Mean() != 3 {
		t.Fatal("single-sample mean wrong")
	}
}

// Property: the online mean matches the two-pass one (sum, then divide).
func TestQuickRunningMatchesTwoPass(t *testing.T) {
	f := func(raw []uint16) bool {
		var r Running
		var sum float64
		for _, v := range raw {
			r.Add(float64(v))
			sum += float64(v)
		}
		mean := 0.0
		if len(raw) > 0 {
			mean = sum / float64(len(raw))
		}
		return math.Abs(r.Mean()-mean) < 1e-6*(1+math.Abs(mean))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistBasics(t *testing.T) {
	var h Hist
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("zero value should be empty")
	}
	for v := 1; v <= 100; v++ {
		h.Add(v)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Median() != 50 {
		t.Fatalf("Median = %d, want 50", h.Median())
	}
	if h.P99() != 99 {
		t.Fatalf("P99 = %d, want 99", h.P99())
	}
	if h.Quantile(1) != 100 || h.Max() != 100 {
		t.Fatalf("Quantile(1) = %d, Max = %d, want 100", h.Quantile(1), h.Max())
	}
	if h.Quantile(0) != 1 {
		t.Fatalf("Quantile(0) = %d, want 1", h.Quantile(0))
	}
	if math.Abs(h.Mean()-50.5) > 1e-12 {
		t.Fatalf("Mean = %f, want 50.5", h.Mean())
	}
}

func TestHistClamping(t *testing.T) {
	var h Hist
	h.Add(7)
	if h.Quantile(-1) != 7 || h.Quantile(2) != 7 {
		t.Fatal("out-of-range quantiles should clamp")
	}
}

func TestHistNegativePanics(t *testing.T) {
	var h Hist
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.Add(-1)
}

// Property: histogram quantiles agree with sorting the raw samples.
func TestQuickHistQuantileExact(t *testing.T) {
	rng := xrand.New(5)
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		samples := make([]int, n)
		var h Hist
		for i := range samples {
			samples[i] = rng.Intn(50)
			h.Add(samples[i])
		}
		// brute-force quantile
		sorted := append([]int(nil), samples...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
			idx := int(math.Ceil(q*float64(n))) - 1
			if idx < 0 {
				idx = 0
			}
			if got, want := h.Quantile(q), sorted[idx]; got != want {
				t.Fatalf("trial %d q=%.2f: hist %d, sorted %d", trial, q, got, want)
			}
		}
	}
}
