package experiments

import (
	"strings"
	"testing"
)

// TestRateLatticeCanonicalRates pins the lattice's reason to exist: the rate
// for an index is the one canonical float64 spelling (float64(i) * Step), so
// any two clients that agree on an index agree bit-for-bit on the rate —
// which is what lets an adaptive tracer's points hit a cache populated by a
// batch sweep. An accumulated sum (r += step) does NOT reproduce these
// floats; the test shows the divergence the lattice exists to prevent.
func TestRateLatticeCanonicalRates(t *testing.T) {
	lat := RateLattice{Step: DefaultLatticeStep}
	acc, diverged := 0.0, false
	for i := 1; i <= 100; i++ {
		acc += DefaultLatticeStep
		r := lat.Rate(i)
		if r != float64(i)*DefaultLatticeStep {
			t.Fatalf("index %d: non-canonical rate %v", i, r)
		}
		if lat.Index(r) != i {
			t.Fatalf("index %d does not round-trip through rate %v", i, r)
		}
		if lat.Snap(r) != r {
			t.Fatalf("lattice rate %v not a fixed point of Snap", r)
		}
		if acc != r {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("accumulated rates never diverged from canonical ones; the canonicalization test is vacuous")
	}
	// Snap pulls nearby off-lattice spellings onto the canonical one.
	if got := lat.Snap(0.30000000000000004); got != lat.Rate(30) {
		t.Fatalf("Snap(0.30000000000000004) = %v, want %v", got, lat.Rate(30))
	}
}

// TestFormatNetSeriesNonUniformGrids pins the union-of-rates rendering: two
// series sampled on different grids (an adaptive trace next to a fixed
// sweep) produce one table whose rate column is the sorted union, with "-"
// cells where a series did not sample and enough rate precision to keep
// fine-lattice points distinguishable.
func TestFormatNetSeriesNonUniformGrids(t *testing.T) {
	lat := RateLattice{Step: 0.01}
	fixed := NetSeries{Name: "fixed", Points: []NetPoint{
		{Rate: lat.Rate(10), Latency: 20, Throughput: 0.10},
		{Rate: lat.Rate(20), Latency: 30, Throughput: 0.20},
		{Rate: lat.Rate(30), Latency: 80, Throughput: 0.28, Saturated: true},
	}}
	adaptive := NetSeries{Name: "adaptive", Points: []NetPoint{
		{Rate: lat.Rate(10), Latency: 20, Throughput: 0.10},
		{Rate: lat.Rate(25), Latency: 42, Throughput: 0.24},
		{Rate: lat.Rate(30), Latency: 80, Throughput: 0.28, Saturated: true},
	}}
	out := FormatNetSeries([]NetSeries{fixed, adaptive})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header + union of {10,20,25,30}
		t.Fatalf("want header + 4 union rows, got %d:\n%s", len(lines), out)
	}
	if lines[0] != "rate\tfixed(lat)\tfixed(thr)\tadaptive(lat)\tadaptive(thr)" {
		t.Fatalf("header: %q", lines[0])
	}
	rows := map[string]string{}
	for _, l := range lines[1:] {
		rate, rest, _ := strings.Cut(l, "\t")
		rows[rate] = rest
	}
	// 0.20 exists only in the fixed series, 0.25 only in the adaptive one.
	if got := rows["0.20"]; !strings.HasSuffix(got, "\t-\t-") {
		t.Fatalf("fixed-only rate row lacks - placeholders for adaptive: %q", got)
	}
	if got := rows["0.25"]; !strings.HasPrefix(got, "-\t-\t") {
		t.Fatalf("adaptive-only rate row lacks - placeholders for fixed: %q", got)
	}
	// A shared, saturated point renders in both columns with the * marker.
	if got := rows["0.30"]; strings.Count(got, "80.0*") != 2 {
		t.Fatalf("shared saturated row: %q", got)
	}

	// A finer lattice widens the rate column until rows stay distinct.
	fine := NetSeries{Name: "fine", Points: []NetPoint{
		{Rate: RateLattice{Step: 0.005}.Rate(41), Latency: 10, Throughput: 0.2},
	}}
	out = FormatNetSeries([]NetSeries{fine})
	if !strings.Contains(out, "0.205") {
		t.Fatalf("fine lattice rate rendered without enough precision:\n%s", out)
	}
}
