package main

import (
	"fmt"
	"math"
)

// compareSets is the benchmark's check on itself: two passes over the same
// code with the same seed must agree. Every end-to-end metric's two values
// may differ by at most that metric's bound; result digests and exact counts
// must be identical. It prints one line per comparison and reports whether
// all agreed.
func compareSets(a, b setResult) bool {
	ok := true
	verdict := func(agree bool) string {
		if agree {
			return "agree"
		}
		ok = false
		return "DISAGREE"
	}
	fmt.Printf("\n== sets: first vs second pass\n")
	for _, ra := range a.EndToEnd {
		var rb *report
		for _, r := range b.EndToEnd {
			if r.Workload == ra.Workload {
				rb = r
			}
		}
		for _, m := range endToEnd {
			va, vb := ra.Metrics[m.name], rb.Metrics[m.name]
			diff := (vb - va) / va
			fmt.Printf("   %-17s %-12s %12.6g %12.6g %-4s %+7.2f%%  bound %2.0f%%  %s\n",
				ra.Workload, m.name, va, vb, m.unit, 100*diff, 100*m.bound, verdict(math.Abs(diff) <= m.bound))
		}
		for _, name := range sortedKeys(ra.Exact) {
			fmt.Printf("   %-17s %-12s %12d %12d exact  %s\n", ra.Workload, name, ra.Exact[name], rb.Exact[name], verdict(ra.Exact[name] == rb.Exact[name]))
		}
		fmt.Printf("   %-17s result_digest %.16s %.16s  %s\n", ra.Workload, ra.ResultDigest, rb.ResultDigest, verdict(ra.ResultDigest == rb.ResultDigest))
	}
	if a.Layers != nil {
		for _, m := range perLayer {
			va, vb := a.Layers.Metrics[m.name], b.Layers.Metrics[m.name]
			if m.exact {
				fmt.Printf("   %-30s %14.6g %14.6g %-5s exact  %s\n", m.name, va, vb, m.unit, verdict(va == vb))
			} else { // per-layer timings have no bound: shown, not judged
				fmt.Printf("   %-30s %14.6g %14.6g %-5s %+7.2f%%\n", m.name, va, vb, m.unit, 100*(vb-va)/va)
			}
		}
	}
	return ok
}
