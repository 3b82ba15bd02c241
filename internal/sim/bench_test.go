package sim

import (
	"fmt"
	"testing"

	"repro/internal/alloc"
)

// Benchmarks for the simulation core: each target runs one Fig.13-style
// mesh (C=1) simulation per iteration, reporting simulated cycles per second
// of wall-clock time.

func benchNetwork(b *testing.B, rate float64, mut func(*Config)) {
	b.ReportAllocs()
	var cycles int64
	for i := 0; i < b.N; i++ {
		cfg := meshConfig(1, rate)
		cfg.Seed = 42
		mut(&cfg)
		res := New(cfg).Run()
		if res.FlitsDelivered == 0 {
			b.Fatal("no traffic moved")
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/sec")
}

// BenchmarkNetworkSchedule compares the default schedule with the reference
// from drain-dominated rates, where long fully-idle stretches separate
// transactions and the clock leaps (0.0005, 0.005), over rates where some
// packet is in flight in nearly every cycle and the wake index alone pays
// (0.02, 0.05), to near saturation, which bounds the default's bookkeeping
// overhead when almost nothing is skippable (0.30). Results are bit-identical
// either way (TestGolden); only wall-clock differs.
func BenchmarkNetworkSchedule(b *testing.B) {
	for _, rate := range []float64{0.0005, 0.005, 0.02, 0.05, 0.30} {
		for _, reference := range []bool{false, true} {
			b.Run(fmt.Sprintf("rate=%g/reference=%t", rate, reference), func(b *testing.B) {
				benchNetwork(b, rate, func(cfg *Config) { cfg.Reference = reference })
			})
		}
	}
}

// BenchmarkNetworkSharded is the measurement behind barrier.go's breakEven
// and the "Sharded parallel cycle stepper" tables in EXPERIMENTS.md: the
// Fig.13 mesh from low load to the knee alone, borrowing by the rule (lent:
// one shard until it proves heavy, two from then on), and split from the
// first cycle with every cycle forced inline or concurrent. split/inline
// against alone is what the second shard costs when it is not used;
// split/concurrent against split/inline crosses over where a cycle has
// enough routers to pay for the barrier. Each cell reports host nanoseconds
// per stepped cycle, the share of cycles that ran concurrently, and the
// barrier's self-cost: the stepping goroutine's wait per concurrent cycle and
// the helper parks (ParallelStats). Run it on an otherwise idle host with at
// least two CPUs:
//
//	go test -run '^$' -bench 'NetworkSharded' -benchtime 20x -count 6 -cpu 2 ./internal/sim/
func BenchmarkNetworkSharded(b *testing.B) {
	hook := func(concurrent bool) func(*Network) {
		return func(n *Network) {
			splitLent(n)
			n.modeHook = func(int64) bool { return concurrent }
		}
	}
	modes := []struct {
		name string
		prep func(*Network)
	}{
		{"alone", oneShard},
		{"lent", func(n *Network) { n.BorrowHelpers(&testLender{}) }},
		{"split/inline", hook(false)},
		{"split/concurrent", hook(true)},
	}
	for _, rate := range []float64{0.02, 0.05, 0.10, 0.30} {
		for _, m := range modes {
			b.Run(fmt.Sprintf("rate=%g/%s", rate, m.name), func(b *testing.B) {
				var st ParallelStats
				for i := 0; i < b.N; i++ {
					cfg := meshConfig(1, rate)
					cfg.Seed = 42
					n := New(cfg)
					m.prep(n)
					if res := n.Run(); res.FlitsDelivered == 0 {
						b.Fatal("no traffic moved")
					}
					run := n.ParallelStats()
					st.Stepped += run.Stepped
					st.Concurrent += run.Concurrent
					st.Parks += run.Parks
					st.Wait += run.Wait
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(st.Stepped), "ns/cycle")
				b.ReportMetric(100*float64(st.Concurrent)/float64(st.Stepped), "concurrent-%")
				b.ReportMetric(float64(st.Wait.Nanoseconds())/float64(max(st.Concurrent, 1)), "wait-ns/cycle")
				b.ReportMetric(float64(st.Parks)/float64(b.N), "parks/run")
			})
		}
	}
}

// simNewSink keeps the constructed network reachable so the compiler cannot
// drop the call.
var simNewSink *Network

// BenchmarkSimNew times construction alone — what every design point of a
// sweep, a curve trace or a Pareto search pays before its first cycle — on
// the paper's six design points in their default sep_if / spec_req
// configuration. allocs/op and B/op are the numbers TestNewAllocBudget
// bounds.
func BenchmarkSimNew(b *testing.B) {
	for _, pt := range designPoints {
		b.Run(fmt.Sprintf("%s_c%d", pt.topo, pt.c), func(b *testing.B) {
			cfg := pt.config(alloc.SepIF)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				simNewSink = New(cfg)
			}
		})
	}
}
