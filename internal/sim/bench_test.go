package sim

import (
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
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
// either way (TestLeapGolden, TestDenseRequestsGolden); only wall-clock
// differs.
func BenchmarkNetworkSchedule(b *testing.B) {
	for _, rate := range []float64{0.0005, 0.005, 0.02, 0.05, 0.30} {
		for _, reference := range []bool{false, true} {
			b.Run(fmt.Sprintf("rate=%g/reference=%t", rate, reference), func(b *testing.B) {
				benchNetwork(b, rate, func(cfg *Config) { cfg.Reference = reference })
			})
		}
	}
}

// BenchmarkNetworkSharded measures the sharded stepper at the
// near-saturation point, where intra-run parallelism is the only speedup
// left (the default schedule skips almost nothing there). shards=1 bounds
// the restructuring overhead of the two-phase cycle itself; higher counts
// scale with available cores and degrade only by the per-cycle barrier cost
// when cores are scarce. The 8- and 16-shard points exist to profile the
// serial commit barrier (run with -blockprofile/-mutexprofile); on the Fig.13
// mesh they oversubscribe most hosts and are expected to regress wall-clock
// there.
func BenchmarkNetworkSharded(b *testing.B) {
	for _, s := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("shards=%d", s), func(b *testing.B) {
			benchNetwork(b, 0.30, func(cfg *Config) { cfg.Shards = s })
		})
	}
}

// BenchmarkNetworkShardedFig14 is the same near-saturation point under the
// conventional speculation scheme (spec_gnt, a Fig. 14 series), pinning the
// sharded stepper's scaling on a second allocator configuration.
func BenchmarkNetworkShardedFig14(b *testing.B) {
	for _, s := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", s), func(b *testing.B) {
			benchNetwork(b, 0.30, func(cfg *Config) {
				cfg.Shards = s
				cfg.SA.SpecMode = core.SpecGnt
			})
		})
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
