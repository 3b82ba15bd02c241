package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestShardInvarianceGolden is the core contract of the sharded stepper on
// the path production takes: a network that borrows from a lender, with no
// hook and no split forced on it, splits when it proves heavy, gives its
// helper back and merges whenever the lender wants it (or the host does not
// run it) and borrows again — and reproduces the network with no lender bit for bit:
// same RNG draw order, same packet IDs, same floating-point latency sums, at
// seed 42 on both paper topologies and all three speculation modes.
func TestShardInvarianceGolden(t *testing.T) {
	for _, mk := range []func(int, float64) Config{meshConfig, fbflyConfig} {
		for _, mode := range []core.SpecMode{core.SpecNone, core.SpecGnt, core.SpecReq} {
			cfg := mk(2, 0.3)
			cfg.Seed = 42
			cfg.SA.SpecMode = mode
			cfg.Warmup, cfg.Measure, cfg.Drain = 200, 500, 5000
			serial := New(cfg).Run()
			lender := &testLender{recallEvery: 20}
			n := New(cfg)
			n.BorrowHelpers(lender)
			if got := n.Run(); got != serial {
				t.Errorf("%s %v: the borrowing network diverged from the lone one:\nserial:  %+v\nsharded: %+v",
					cfg.Topology.Name, mode, serial, got)
			}
			if st := n.ParallelStats(); st.Loans == 0 || n.Shards() != 1 {
				t.Errorf("%s %v: %d loans, %d shards after Run; want a split, merged", cfg.Topology.Name, mode, st.Loans, n.Shards())
			}
		}
	}
}

// TestShardInvarianceComposesWithDense checks the sharded stepper under the
// reference schedule too: the layout and the schedule are independent axes,
// and all four combinations must agree.
func TestShardInvarianceComposesWithDense(t *testing.T) {
	base := meshConfig(2, 0.3)
	base.Seed = 42
	base.Warmup, base.Measure, base.Drain = 200, 500, 5000
	want := New(base).Run()
	for _, reference := range []bool{false, true} {
		for _, split := range []bool{false, true} {
			cfg := base
			cfg.Reference = reference
			n := New(cfg)
			if split {
				splitLent(n)
			}
			if got := n.Run(); got != want {
				t.Errorf("reference=%v split=%v diverged:\nwant: %+v\ngot:  %+v", reference, split, want, got)
			}
		}
	}
}

// TestShardFlitConservation drains a loaded network stepped on the split
// layout: every flit handed to a router must still reach a terminal, across
// the halves as within them, and Close must give the helper back.
func TestShardFlitConservation(t *testing.T) {
	n := New(loadThenDrain(meshConfig(2, 0.3), 2500))
	splitLent(n)
	defer n.Close()
	stepUntilDrained(n, 2500)
	sent, delivered := n.SentFlits(), n.deliveredFlits()
	if sent != delivered {
		t.Fatalf("split: flit conservation violated: sent %d, delivered %d", sent, delivered)
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
		cfg.Validate = true
		cfg.Warmup, cfg.Measure, cfg.Drain = 200, 400, 4000
		n := New(cfg)
		splitLent(n)
		if res := n.Run(); res.FlitsDelivered == 0 {
			t.Errorf("%s split and validated: no flits moved", cfg.Topology.Name)
		}
		if st := n.ParallelStats(); st.Concurrent != st.Stepped {
			t.Errorf("%s: %d of %d cycles concurrent, want all", cfg.Topology.Name, st.Concurrent, st.Stepped)
		}
	}
}

// TestShardTraceForcesSerial pins the one rule that keeps a traced network on
// its own goroutine (BorrowHelpers): tracing collectors are not
// concurrency-safe and same-cycle trace events need packet IDs handed out on
// the spot, so a traced knee network offered a helper in every cycle borrows
// none, stays one shard and still drains.
func TestShardTraceForcesSerial(t *testing.T) {
	collector := trace.NewCollector(100000)
	cfg := meshConfig(1, 0.3)
	cfg.Warmup, cfg.Measure, cfg.Drain = 100, 200, 2000
	cfg.Trace = trace.New(collector, nil)
	lender := &testLender{}
	n := New(cfg)
	n.BorrowHelpers(lender)
	res := n.Run()
	if st := n.ParallelStats(); n.Shards() != 1 || st.Concurrent != 0 || lender.lent != 0 {
		t.Fatalf("traced knee network: %d shards, %d concurrent cycles, %d loans; want 1, 0, 0", n.Shards(), st.Concurrent, lender.lent)
	}
	if res.FlitsDelivered == 0 || collector.Total() == 0 {
		t.Fatalf("traced run broken: %+v, %d events", res, collector.Total())
	}
}

// TestShardPartition checks both layouts: New builds one shard owning every
// router and terminal, split lays it out on two contiguous halves, terminals
// co-resident with their routers, covering the network, with shardOf naming
// each router's owner, and merge lays it out on one shard again.
func TestShardPartition(t *testing.T) {
	cfg := meshConfig(1, 0)
	n := New(cfg)
	R, conc := cfg.Topology.Routers, cfg.Topology.Concentration
	if s := n.shards[0]; n.Shards() != 1 || s.r0 != 0 || s.r1 != R || s.t0 != 0 || s.t1 != cfg.Topology.Terminals() {
		t.Fatalf("New: %d shards, the first owning routers [%d,%d) and terminals [%d,%d)", n.Shards(), s.r0, s.r1, s.t0, s.t1)
	}
	n.split()
	if n.Shards() != 2 {
		t.Fatalf("split: %d shards, want 2", n.Shards())
	}
	prevR, prevT := 0, 0
	for i, s := range n.shards {
		if s.id != i || s.r0 != prevR || s.t0 != prevT {
			t.Fatalf("shard %d not contiguous: id=%d r0=%d t0=%d, want %d/%d", i, s.id, s.r0, s.t0, prevR, prevT)
		}
		if s.t1 != s.r1*conc {
			t.Fatalf("shard %d terminals [%d,%d) not aligned to routers [%d,%d)", i, s.t0, s.t1, s.r0, s.r1)
		}
		if size := s.r1 - s.r0; size != R/2 {
			t.Fatalf("shard %d unbalanced: %d routers", i, size)
		}
		for r := s.r0; r < s.r1; r++ {
			if n.shardOf(int32(r)) != s {
				t.Fatalf("shardOf(%d) is not shard %d", r, i)
			}
		}
		prevR, prevT = s.r1, s.t1
	}
	if prevR != R || prevT != cfg.Topology.Terminals() {
		t.Fatalf("partition covers %d routers / %d terminals, want %d / %d",
			prevR, prevT, R, cfg.Topology.Terminals())
	}
	n.merge()
	if s := n.shards[0]; n.Shards() != 1 || s.r0 != 0 || s.r1 != R || s.t0 != 0 || s.t1 != cfg.Topology.Terminals() {
		t.Fatalf("merge: %d shards, the first owning routers [%d,%d) and terminals [%d,%d)", n.Shards(), s.r0, s.r1, s.t0, s.t1)
	}
}
