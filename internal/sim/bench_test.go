package sim

import (
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
)

// Benchmarks for the simulation core: each target runs one Fig.13-style
// mesh (C=1) simulation per iteration under both the active-set scheduler
// and the dense reference stepper, reporting simulated cycles per second
// of wall-clock time. The drain-dominated low-rate point is where skipping
// quiescent routers pays off most; the near-saturation point bounds the
// scheduler's overhead when almost nothing is skippable.

func benchNetwork(b *testing.B, rate float64, dense bool) {
	benchNetworkShards(b, rate, dense, 0)
}

func benchNetworkShards(b *testing.B, rate float64, dense bool, shards int) {
	benchNetworkSpec(b, rate, dense, shards, core.SpecReq)
}

func benchNetworkSpec(b *testing.B, rate float64, dense bool, shards int, spec core.SpecMode) {
	benchNetworkCfg(b, rate, func(cfg *Config) {
		cfg.Dense = dense
		cfg.Shards = shards
		cfg.SA.SpecMode = spec
	})
}

func benchNetworkCfg(b *testing.B, rate float64, mut func(*Config)) {
	b.ReportAllocs()
	var cycles int64
	for i := 0; i < b.N; i++ {
		cfg := meshConfig(1, rate)
		cfg.Seed = 42
		cfg.SA.SpecMode = core.SpecReq
		mut(&cfg)
		res := New(cfg).Run()
		if res.FlitsDelivered == 0 {
			b.Fatal("no traffic moved")
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/sec")
}

func BenchmarkNetworkLowRate(b *testing.B) {
	// Fig. 13 mesh 2x1x1 at 0.05 flits/cycle/terminal: mostly idle routers
	// and a long drain tail.
	b.Run("active", func(b *testing.B) { benchNetwork(b, 0.05, false) })
	b.Run("dense", func(b *testing.B) { benchNetwork(b, 0.05, true) })
	// At 0.02 some packet is in flight in nearly every cycle, so the leap
	// gate almost never fires: what leap=true buys here is presampled
	// arrivals and the wake index alone (most terminals asleep, a few
	// routers active), with every cycle still stepped.
	for _, leap := range []bool{false, true} {
		b.Run(fmt.Sprintf("rate=0.02/leap=%t", leap), func(b *testing.B) {
			benchNetworkCfg(b, 0.02, func(cfg *Config) { cfg.Leap = leap })
		})
	}
}

func BenchmarkNetworkNearSaturation(b *testing.B) {
	// Fig. 13 mesh 2x1x1 near its saturation rate: every router busy almost
	// every cycle, so this measures active-set bookkeeping overhead.
	b.Run("active", func(b *testing.B) { benchNetwork(b, 0.30, false) })
	b.Run("dense", func(b *testing.B) { benchNetwork(b, 0.30, true) })
}

// BenchmarkNetworkLeap compares the event-leaping fast path against ticked
// active-set stepping at drain-dominated rates, where long fully-idle
// stretches separate transactions. Results are bit-identical either way
// (TestLeapGolden); only wall-clock differs.
func BenchmarkNetworkLeap(b *testing.B) {
	for _, rate := range []float64{0.0005, 0.005} {
		for _, leap := range []bool{false, true} {
			name := fmt.Sprintf("rate=%g/leap=%t", rate, leap)
			b.Run(name, func(b *testing.B) {
				benchNetworkCfg(b, rate, func(cfg *Config) { cfg.Leap = leap })
			})
		}
	}
}

// BenchmarkNetworkSharded measures the sharded stepper at the
// near-saturation point, where intra-run parallelism is the only speedup
// left (the active-set scheduler skips almost nothing there). shards=1
// bounds the restructuring overhead of the two-phase cycle itself; higher
// counts scale with available cores and degrade only by the per-cycle
// barrier cost when cores are scarce. The 8- and 16-shard points exist to
// profile the serial commit barrier (run with -blockprofile/-mutexprofile);
// on the Fig.13 mesh they oversubscribe most hosts and are expected to
// regress wall-clock there.
func BenchmarkNetworkSharded(b *testing.B) {
	for _, s := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("shards=%d", s), func(b *testing.B) {
			benchNetworkShards(b, 0.30, false, s)
		})
	}
}

// BenchmarkNetworkShardedFig14 is the same near-saturation point under the
// conventional speculation scheme (spec_gnt, a Fig. 14 series), pinning the
// sharded stepper's scaling on a second allocator configuration.
func BenchmarkNetworkShardedFig14(b *testing.B) {
	for _, s := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", s), func(b *testing.B) {
			benchNetworkSpec(b, 0.30, false, s, core.SpecGnt)
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
