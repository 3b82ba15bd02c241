package sim

import (
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
)

// goldenRates are the two load regimes every golden matrix below runs in.
var goldenRates = []struct {
	name string
	rate float64
}{
	// Loaded: at rate 0.3 every router is busy, and the change-driven
	// request cache — rebuilding only dirty VCs' VA/SA request entries
	// where the reference (router.Config.DenseRequests) rebuilds them all —
	// is the fast path doing the work.
	{"loaded", 0.3},
	// Drain-dominated: at rate 0.002 the network is fully idle between
	// transactions, so this is where presampled arrivals and clock leaps
	// actually engage. The fbfly cells further pin the presample rewind
	// path, because UGAL draws routing randomness from the terminal's
	// stream when a reply wakes it before its presampled arrival.
	{"drain", 0.002},
}

// TestGolden runs assertGolden over topology × speculation mode at seed 42
// in both load regimes, on one shard and split in two with a lent helper. At
// the loaded rate the split leg must actually have stepped cycles
// concurrently.
func TestGolden(t *testing.T) {
	for _, r := range goldenRates {
		t.Run(fmt.Sprintf("%s/rate=%g", r.name, r.rate), func(t *testing.T) {
			for _, mk := range []func(int, float64) Config{meshConfig, fbflyConfig} {
				for _, mode := range []core.SpecMode{core.SpecNone, core.SpecGnt, core.SpecReq} {
					base := mk(2, r.rate)
					base.Seed = 42
					base.SA.SpecMode = mode
					base.Warmup, base.Measure, base.Drain = 200, 500, 5000
					name := fmt.Sprintf("%s %v rate=%g", base.Topology.Name, mode, r.rate)
					st := assertGolden(t, name, base, oneShard, splitLent)
					if r.name == "loaded" && st[1].Concurrent == 0 {
						t.Errorf("%s: the split leg stepped none of its %d cycles concurrently", name, st[1].Stepped)
					}
				}
			}
		})
	}
}

// TestLeapEngages guards against the golden equivalence passing vacuously:
// at a drain-dominated low rate the leap gate must actually fire and skip
// the bulk of the simulated cycles.
func TestLeapEngages(t *testing.T) {
	cfg := meshConfig(2, 0.001)
	cfg.Seed = 42
	cfg.Warmup, cfg.Measure, cfg.Drain = 200, 500, 5000
	cfg.Validate = true
	n := New(cfg)
	res := n.Run()
	events, cycles := n.LeapStats()
	if events == 0 {
		t.Fatal("leap gate never fired at rate 0.001")
	}
	if cycles*2 < res.Cycles {
		t.Errorf("leapt only %d of %d cycles; want the majority at rate 0.001", cycles, res.Cycles)
	}
	if res.MeasuredPackets == 0 {
		t.Error("no measured packets; the run exercised nothing")
	}
	// The reference ticks every one of those cycles.
	cfg.Reference = true
	ref := New(cfg)
	if got := ref.Run(); got != res {
		t.Errorf("reference diverged:\nreference: %+v\ndefault:   %+v", got, res)
	}
	if events, cycles := ref.LeapStats(); events != 0 || cycles != 0 {
		t.Errorf("reference run leapt %d times over %d cycles, want 0 and 0", events, cycles)
	}
}

// variantsMatrix runs assertGolden at one rate over the allocator variant
// with cross-cycle state: wavefront's SkipIdle is a modular priority advance
// and its engines keep dirty-row scratch between calls.
func variantsMatrix(t *testing.T, rate float64) {
	t.Run("wavefront", func(t *testing.T) {
		base := meshConfig(2, rate)
		base.Seed = 42
		base.Warmup, base.Measure, base.Drain = 200, 400, 4000
		base.VA.Arch = alloc.Wavefront
		base.SA.Arch = alloc.Wavefront
		assertGolden(t, fmt.Sprintf("wavefront rate=%g", rate), base, oneShard)
	})
}

// TestDenseRequestsComposesWithVariants is the variants' loaded half: their
// state has to compose with a change-driven request rebuild.
func TestDenseRequestsComposesWithVariants(t *testing.T) {
	variantsMatrix(t, goldenRates[0].rate)
}

// TestLeapComposesWithVariants is their drain-dominated half: the same state
// has to compose with multi-thousand-cycle leaps through the lastStep
// wake-up replay.
func TestLeapComposesWithVariants(t *testing.T) {
	variantsMatrix(t, goldenRates[1].rate)
}
