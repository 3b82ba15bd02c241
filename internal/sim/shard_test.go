package sim

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestShardInvarianceGolden is the core contract of the sharded stepper:
// for any shard count the two-phase schedule must reproduce the serial
// stepper bit for bit — same RNG draw order, same packet IDs, same
// floating-point latency sums — at seed 42 on both paper topologies and
// all three speculation modes.
func TestShardInvarianceGolden(t *testing.T) {
	counts := []int{2, 4, runtime.NumCPU()}
	for _, mk := range []func(int, float64) Config{meshConfig, fbflyConfig} {
		for _, mode := range []core.SpecMode{core.SpecNone, core.SpecGnt, core.SpecReq} {
			base := mk(2, 0.3)
			base.Seed = 42
			base.SA.SpecMode = mode
			base.Warmup, base.Measure, base.Drain = 200, 500, 5000
			serial := New(base).Run()
			for _, s := range counts {
				cfg := base
				cfg.Shards = s
				if got := New(cfg).Run(); got != serial {
					t.Errorf("%s %v shards=%d diverged from serial:\nserial:  %+v\nsharded: %+v",
						base.Topology.Name, mode, s, serial, got)
				}
			}
		}
	}
}

// TestShardInvarianceComposesWithDense checks the sharded stepper under the
// reference schedule too: sharding and the schedule are independent axes,
// and all four combinations must agree.
func TestShardInvarianceComposesWithDense(t *testing.T) {
	base := meshConfig(2, 0.3)
	base.Seed = 42
	base.Warmup, base.Measure, base.Drain = 200, 500, 5000
	want := New(base).Run()
	for _, reference := range []bool{false, true} {
		for _, s := range []int{1, 4} {
			cfg := base
			cfg.Reference = reference
			cfg.Shards = s
			if got := New(cfg).Run(); got != want {
				t.Errorf("reference=%v shards=%d diverged:\nwant: %+v\ngot:  %+v", reference, s, want, got)
			}
		}
	}
}

// TestShardFlitConservation drains a loaded network stepped with an uneven
// shard split (64 routers over 3 shards): every flit handed to a router
// must still reach a terminal, and Close must shut the workers down.
func TestShardFlitConservation(t *testing.T) {
	cfg := meshConfig(2, 0.3)
	cfg.Shards = 3
	n := New(cfg)
	defer n.Close()
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
		t.Fatalf("shards=3: flit conservation violated: sent %d, delivered %d", sent, delivered)
	}
	if sent == 0 {
		t.Fatal("no traffic moved")
	}
}

// TestShardValidateParallel runs every cycle concurrently with per-cycle
// allocation checking in every router on both topologies; under `go test
// -race` this doubles as the data-race certification of phase 1, and any
// helper panic must surface on the stepping goroutine.
func TestShardValidateParallel(t *testing.T) {
	for _, mk := range []func(int, float64) Config{meshConfig, fbflyConfig} {
		cfg := mk(2, 0.35)
		cfg.Shards = 4
		cfg.Validate = true
		cfg.Warmup, cfg.Measure, cfg.Drain = 200, 400, 4000
		n := New(cfg)
		alwaysConcurrent(n)
		if res := n.Run(); res.FlitsDelivered == 0 {
			t.Errorf("%s shards=4 validated: no flits moved", cfg.Topology.Name)
		}
		if st := n.ParallelStats(); st.Concurrent != st.Stepped {
			t.Errorf("%s: %d of %d cycles concurrent, want all", cfg.Topology.Name, st.Concurrent, st.Stepped)
		}
	}
}

// TestShardTraceForcesSerial pins the documented clamp: tracing collectors
// are not concurrency-safe and same-cycle trace events need inline packet
// IDs, so a traced run must fall back to one shard and still drain.
func TestShardTraceForcesSerial(t *testing.T) {
	collector := trace.NewCollector(100000)
	cfg := meshConfig(1, 0.05)
	cfg.Shards = 4
	cfg.Warmup, cfg.Measure, cfg.Drain = 100, 200, 2000
	cfg.Trace = trace.New(collector, nil)
	n := New(cfg)
	if n.Shards() != 1 {
		t.Fatalf("traced network runs %d shards, want 1", n.Shards())
	}
	if res := n.Run(); res.Unfinished != 0 || collector.Total() == 0 {
		t.Fatalf("traced sharded-config run broken: %+v, %d events", n.Run(), collector.Total())
	}
}

// TestShardPartition checks the router/terminal partition: contiguous,
// balanced within one router, covering, terminals co-resident with their
// routers, and shard counts clamped to the router count.
func TestShardPartition(t *testing.T) {
	cfg := meshConfig(1, 0)
	cfg.Shards = 3
	n := New(cfg)
	conc := cfg.Topology.Concentration
	prevR, prevT := 0, 0
	for i, s := range n.shards {
		if s.r0 != prevR || s.t0 != prevT {
			t.Fatalf("shard %d not contiguous: r0=%d t0=%d, want %d/%d", i, s.r0, s.t0, prevR, prevT)
		}
		if s.t1 != s.r1*conc {
			t.Fatalf("shard %d terminals [%d,%d) not aligned to routers [%d,%d)", i, s.t0, s.t1, s.r0, s.r1)
		}
		if size := s.r1 - s.r0; size < cfg.Topology.Routers/3 || size > cfg.Topology.Routers/3+1 {
			t.Fatalf("shard %d unbalanced: %d routers", i, size)
		}
		for r := s.r0; r < s.r1; r++ {
			if n.shardOfRouter[r] != int32(i) {
				t.Fatalf("shardOfRouter[%d] = %d, want %d", r, n.shardOfRouter[r], i)
			}
		}
		prevR, prevT = s.r1, s.t1
	}
	if prevR != cfg.Topology.Routers || prevT != cfg.Topology.Terminals() {
		t.Fatalf("partition covers %d routers / %d terminals, want %d / %d",
			prevR, prevT, cfg.Topology.Routers, cfg.Topology.Terminals())
	}

	over := meshConfig(1, 0)
	over.Shards = 10000
	if got := New(over).Shards(); got != over.Topology.Routers {
		t.Fatalf("oversized shard count clamped to %d, want %d", got, over.Topology.Routers)
	}
}

// TestWheelSlotCapacityDecay covers the slot-retention fix: a saturation
// burst balloons the wheel slots' backing arrays, and sustained
// low-occupancy cycles afterwards must shrink them back down instead of
// pinning the peak capacity for the rest of the run.
func TestWheelSlotCapacityDecay(t *testing.T) {
	cfg := meshConfig(2, 0.9) // well past saturation: slots fill up
	n := New(cfg)
	for i := 0; i < 1500; i++ {
		n.stepCycle()
	}
	maxCap := func() int {
		m := 0
		for _, s := range n.shards {
			for _, w := range s.wheel {
				if cap(w) > m {
					m = cap(w)
				}
			}
		}
		return m
	}
	peak := maxCap()
	if peak <= slotShrinkMin {
		t.Fatalf("saturation burst never grew a slot past %d (peak %d); test is vacuous", slotShrinkMin, peak)
	}
	// Cut injection, drain, then idle long enough for the hysteresis to
	// halve the slots repeatedly.
	n.SetInjectionRate(0)
	for i := 0; i < 12000; i++ {
		n.stepCycle()
	}
	if got := maxCap(); got > 2*slotShrinkMin {
		t.Fatalf("idle wheel slots retain capacity %d (burst peak %d), want <= %d",
			got, peak, 2*slotShrinkMin)
	}
}

// TestPoolShrinkAfterBurst covers the free-list analogue of the wheel-slot
// policy: a saturation burst floods the packet pool with recycled objects
// when it drains, and a sustained low-usage period afterwards must release
// the idle surplus instead of pinning the burst peak for the rest of the run.
// (Flits are values carried in the wheel and the router buffers, so the
// packet pool is the only free list.)
func TestPoolShrinkAfterBurst(t *testing.T) {
	cfg := meshConfig(2, 0.9) // well past saturation: deep in-flight backlog
	n := New(cfg)
	for i := 0; i < 1500; i++ {
		n.stepCycle()
	}
	poolSize := func() (pkts int) {
		for _, s := range n.shards {
			pkts += s.pktPool.free()
		}
		return
	}
	// Cut injection and drain: every in-flight packet lands in a pool. The
	// trim policy already fires during the drain, so the peak must be
	// sampled along the way rather than at the end.
	n.SetInjectionRate(0)
	peakPkts := 0
	for i := 0; i < 2000; i++ {
		n.stepCycle()
		peakPkts = max(peakPkts, poolSize())
	}
	if peakPkts <= len(n.shards)*poolShrinkMin {
		t.Fatalf("burst drain peaked at only %d pooled packets; test is vacuous", peakPkts)
	}
	// Idle long enough for the hysteresis to halve the surplus repeatedly.
	// The geometric step-down sheds half the idle surplus every
	// poolShrinkAfter cycles, so the surplus above the vacuity floor decays
	// by ~2^-10 over 10 windows.
	for i := 0; i < 10*poolShrinkAfter*poolShrinkAfter; i++ {
		n.stepCycle()
	}
	pkts := poolSize()
	bound := 2 * len(n.shards) * poolShrinkMin
	if pkts > bound {
		t.Fatalf("idle packet pools retain %d objects (burst peak %d), want <= %d", pkts, peakPkts, bound)
	}
}
