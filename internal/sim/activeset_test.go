package sim

import (
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// assertGolden is the golden contract of the default schedule: one run of
// base under the reference schedule (every router and terminal stepped every
// cycle, every request rebuilt, arrivals ticked, no leap), and for each leg a
// run of the default schedule that must reproduce it bit for bit — same RNG
// draw order, same packet IDs, same floating-point latency sums. A leg is how
// the network executes its cycles, applied before it runs (the reference is
// left alone): oneShard, or splitLent, the layout and goroutines a borrowing
// network reaches, from the first cycle. The default legs run under
// Validate, so a divergence is localised to a fast path at the cycle it first
// happens: the routers check their cached requests against a full rebuild,
// every stepped cycle checks the wake index against dormant()/Quiescent(),
// and every leap checks the span it skips. Under `go test -race` (CI does)
// the split legs double as the data-race certification of that bookkeeping.
// It returns how each leg's cycles were executed.
func assertGolden(t *testing.T, name string, base Config, legs ...func(*Network)) []ParallelStats {
	t.Helper()
	ref := base
	ref.Reference = true
	want := New(ref).Run()
	if want.MeasuredPackets == 0 || want.FlitsDelivered == 0 {
		t.Fatalf("%s: the reference moved no measured traffic; the golden is vacuous", name)
	}
	var stats []ParallelStats
	for _, leg := range legs {
		cfg := base
		cfg.Validate = true
		n := New(cfg)
		leg(n)
		if got := n.Run(); got != want {
			t.Errorf("%s on %d shard(s): default schedule diverged from the reference:\nreference: %+v\ndefault:   %+v",
				name, n.Shards(), want, got)
		}
		stats = append(stats, n.ParallelStats())
	}
	return stats
}

// oneShard is the golden leg of a network as New builds it: one shard, every
// cycle stepped on the caller's goroutine.
func oneShard(*Network) {}

// TestActiveSchedulerBitExact pins the default schedule against the reference
// across topologies, speculation modes and the allocator microarchitectures
// with idle-variant state (wavefront priority diagonals, precomputed request
// latches), which skipping quiescent routers has to replay on wake-up.
func TestActiveSchedulerBitExact(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"mesh/spec_none", func() Config { c := meshConfig(2, 0.25); c.SA.SpecMode = core.SpecNone; return c }()},
		{"mesh/spec_gnt", func() Config { c := meshConfig(2, 0.25); c.SA.SpecMode = core.SpecGnt; return c }()},
		{"mesh/spec_req", meshConfig(2, 0.25)},
		{"mesh/low-rate", meshConfig(1, 0.05)},
		{"mesh/wavefront-va-sa", func() Config {
			c := meshConfig(2, 0.3)
			c.VA.Arch = alloc.Wavefront
			c.SA.Arch = alloc.Wavefront
			return c
		}()},
		{"mesh/sparse-wf-va", func() Config {
			c := meshConfig(2, 0.3)
			c.VA.Arch = alloc.Wavefront
			c.VA.Sparse = true
			return c
		}()},
		{"mesh/precomputed-sa", func() Config {
			c := meshConfig(2, 0.2)
			c.SA.SpecMode = core.SpecNone
			c.SA.Precomputed = true
			return c
		}()},
		{"mesh/precomputed-wf-sa", func() Config {
			c := meshConfig(2, 0.2)
			c.SA.Arch = alloc.Wavefront
			c.SA.SpecMode = core.SpecNone
			c.SA.Precomputed = true
			return c
		}()},
		{"mesh/freequeue-va", func() Config {
			c := meshConfig(2, 0.2)
			c.VA = core.VCAllocConfig{ArbKind: arbiter.RoundRobin, FreeQueue: true}
			return c
		}()},
		{"fbfly/spec_req", fbflyConfig(2, 0.3)},
		{"fbfly/wavefront-sa", func() Config { c := fbflyConfig(2, 0.3); c.SA.Arch = alloc.Wavefront; return c }()},
		{"torus/dateline", torusConfig(1, 0.2)},
	}
	for _, tc := range cases {
		tc.cfg.Warmup, tc.cfg.Measure, tc.cfg.Drain = 300, 700, 6000
		assertGolden(t, tc.name, tc.cfg, oneShard)
	}
}

// TestActiveSchedulerBitExactValidated re-runs the equivalence with per-cycle
// allocation checking enabled in the reference's routers too, across all
// three speculation modes and both paper topologies.
func TestActiveSchedulerBitExactValidated(t *testing.T) {
	for _, mk := range []func(int, float64) Config{meshConfig, fbflyConfig} {
		for _, mode := range []core.SpecMode{core.SpecNone, core.SpecGnt, core.SpecReq} {
			cfg := mk(2, 0.3)
			cfg.SA.SpecMode = mode
			cfg.Validate = true
			cfg.Warmup, cfg.Measure, cfg.Drain = 200, 400, 4000
			assertGolden(t, fmt.Sprintf("%s %v validated", cfg.Topology.Name, mode), cfg, oneShard)
		}
	}
}

// TestFlitConservationActiveAllSpecModes drains a loaded network under the
// default schedule for every speculation mode on both topologies: every
// flit handed to a router must eventually reach a terminal, exercising the
// dormant-terminal path once injection is cut to zero.
func TestFlitConservationActiveAllSpecModes(t *testing.T) {
	for _, mk := range []func(int, float64) Config{meshConfig, fbflyConfig} {
		for _, mode := range []core.SpecMode{core.SpecNone, core.SpecGnt, core.SpecReq} {
			cfg := mk(2, 0.3)
			cfg.SA.SpecMode = mode
			n := New(cfg)
			for i := 0; i < 2500; i++ {
				n.stepCycle()
			}
			n.SetInjectionRate(0)
			for i := 0; i < 10000; i++ {
				n.stepCycle()
				if sent, delivered := n.SentFlits(), n.deliveredFlits(); sent == delivered && i > 100 {
					break
				}
			}
			sent, delivered := n.SentFlits(), n.deliveredFlits()
			if sent != delivered {
				t.Errorf("%s %v: flit conservation violated: sent %d, delivered %d",
					cfg.Topology.Name, mode, sent, delivered)
			}
			if sent == 0 {
				t.Errorf("%s %v: no traffic moved", cfg.Topology.Name, mode)
			}
		}
	}
}

// TestSteadyStateStepAllocs verifies the recycled packet path (flits are
// values and allocate nothing): once the free lists are primed, advancing a
// loaded simulation allocates nothing per cycle on average — on one shard,
// and split in two around a lent helper (the barrier, the outboxes and the
// deferred packet IDs allocate nothing either).
func TestSteadyStateStepAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		split bool
	}{{"one shard", false}, {"split", true}} {
		n := New(meshConfig(2, 0.3))
		if tc.split {
			splitLent(n)
		}
		for i := 0; i < 3000; i++ {
			n.stepCycle()
		}
		avg := testing.AllocsPerRun(2000, func() { n.stepCycle() })
		st := n.ParallelStats()
		n.Close()
		if avg >= 1 {
			t.Fatalf("%s: steady-state stepCycle allocates %.1f objects/cycle, want amortized zero", tc.name, avg)
		}
		if len(n.shards[0].freePkts) == 0 {
			t.Fatalf("%s: free lists never populated; recycling path is dead", tc.name)
		}
		if want := map[bool]int64{true: st.Stepped}[tc.split]; st.Concurrent != want {
			t.Fatalf("%s: %d of %d cycles ran concurrently, want %d", tc.name, st.Concurrent, st.Stepped, want)
		}
	}
}

// TestReadFractionZero verifies the applyDefaults bugfix: pointing
// ReadFraction at zero must yield an all-write workload (no read requests,
// no read replies), which the old float-zero-means-default config could not
// express.
func TestReadFractionZero(t *testing.T) {
	zero := 0.0
	cfg := meshConfig(1, 0.3)
	cfg.ReadFraction = &zero
	n := New(cfg)
	seen := map[traffic.PacketType]bool{}
	scan := func(p *router.Packet) {
		if p != nil {
			seen[p.Type] = true
		}
	}
	for i := 0; i < 1500; i++ {
		n.stepCycle()
		for _, term := range n.terminals {
			scan(term.cur)
			for _, q := range []*pktQueue{&term.reqQ, &term.replyQ} {
				for j := q.head; j < len(q.buf); j++ {
					scan(q.buf[j])
				}
			}
		}
	}
	if seen[traffic.ReadRequest] || seen[traffic.ReadReply] {
		t.Fatalf("ReadFraction 0 still produced read packets: %v", seen)
	}
	if !seen[traffic.WriteRequest] || !seen[traffic.WriteReply] {
		t.Fatalf("all-write workload moved no write traffic: %v", seen)
	}
}

// TestReadFractionDefault checks that leaving ReadFraction nil still applies
// the paper's 0.5 default.
func TestReadFractionDefault(t *testing.T) {
	n := New(meshConfig(1, 0.1))
	if got := n.terminals[0].gen.ReadFraction; got != 0.5 {
		t.Fatalf("default ReadFraction = %v, want 0.5", got)
	}
}

// TestLongLatencyChannels covers the wheel-sizing satellite: channel
// latencies at or above the old fixed wheel size of 16 used to panic in
// schedule; the wheel is now sized from the topology's maximum channel
// latency at New time.
func TestLongLatencyChannels(t *testing.T) {
	topo := topology.MeshWithLatency(4, 20)
	cfg := Config{
		Topology: topo,
		Routing:  routing.NewDOR(topo),
		Spec:     core.NewVCSpec(2, 1, 2),
		VA:       core.VCAllocConfig{Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin},
		SA:       core.SwitchAllocConfig{Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin, SpecMode: core.SpecReq},
		Workload: traffic.Workload{Rate: 0.05},
		Seed:     7,
		Warmup:   300,
		Measure:  700,
		Drain:    8000,
	}
	n := New(cfg)
	if want := int64(2 + 20 + 1); n.wheelSize != want {
		t.Fatalf("wheel size %d, want %d for max channel latency 20", n.wheelSize, want)
	}
	res := n.Run()
	if res.Saturated || res.Unfinished != 0 {
		t.Fatalf("long-latency mesh did not drain: %+v", res)
	}
	// A 4x4 mesh averages well over one hop, so 20-cycle channels push
	// zero-load latency far beyond the unit-latency mesh's.
	if res.AvgLatency < 40 {
		t.Fatalf("latency %.1f implausibly low for 20-cycle channels", res.AvgLatency)
	}
	// The equivalence contract holds for long-latency wheels too.
	assertGolden(t, "long-latency mesh", cfg, oneShard)
}

// TestWheelSizedFromTopology pins the wheel sizing rule for the paper's two
// topologies: max scheduled delay is max(4, 2+maxChannelLatency), plus one
// slot to distinguish it from the current cycle.
func TestWheelSizedFromTopology(t *testing.T) {
	if ws := New(meshConfig(1, 0.1)).wheelSize; ws != 5 {
		t.Errorf("mesh wheel size %d, want 5", ws)
	}
	if ws := New(fbflyConfig(1, 0.1)).wheelSize; ws != 6 {
		t.Errorf("fbfly wheel size %d, want 6", ws)
	}
}
