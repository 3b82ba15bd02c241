package sim

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/traffic"
)

// TestCreditsAtRest is a flow law no schedule can fake: once a network has
// emptied, every credit is home. The run replays a finite trace whose
// arrivals all fall in the measurement window and stop short of its end, so
// every packet, measured or not, is delivered and every credit has come back
// before the run ends; the default schedule leaps the silent warmup. Then
// every router is quiescent with every output VC free and every output
// port's credits at the buffer depth, and every terminal holds BufDepth
// credits on each of its router's input VCs. It runs on both topologies, in
// every speculation mode, under the reference and the default schedule, on
// one shard and split in two with a lent helper.
func TestCreditsAtRest(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(int, float64) Config
	}{
		{"mesh", meshConfig},
		{"fbfly", fbflyConfig},
	} {
		for _, mode := range []core.SpecMode{core.SpecNone, core.SpecGnt, core.SpecReq} {
			base := tc.mk(2, 0)
			base.SA.SpecMode = mode
			base.Seed = 42
			base.Warmup, base.Measure, base.Drain = 200, 1500, 5000
			// Silence through the warmup, load for 1000 cycles, then 500
			// quiet cycles for the network to empty before the window ends.
			pt := synthTrace(base.Topology.Terminals(), base.Seed, bernoulliAt,
				segment{200, 0}, segment{1000, 0.3}, segment{500, 0})
			base.Workload = traffic.Workload{Trace: pt}
			for _, reference := range []bool{false, true} {
				for _, lent := range []bool{false, true} {
					name := fmt.Sprintf("%s/%v/reference=%v/lent=%v", tc.name, mode, reference, lent)
					cfg := base
					cfg.Reference = reference
					cfg.Validate = !reference
					n := New(cfg)
					if lent {
						splitLent(n)
					}
					res := n.Run()
					if leaps, _ := n.LeapStats(); !reference && leaps == 0 {
						t.Errorf("%s: the default schedule never leapt the silent warmup", name)
					}
					assertAtRest(t, name, n, res)
				}
			}
		}
	}
}

// assertAtRest checks that the finished network n is empty — every measured
// packet delivered, no live packet, every flit sent delivered, no pending
// event — and then that every credit is home.
func assertAtRest(t *testing.T, name string, n *Network, res Result) {
	t.Helper()
	live := 0
	for _, s := range n.shards {
		live += s.livePkts
		if d := s.nextEventDelta(); d >= 0 {
			t.Fatalf("%s: shard %d has an event due in %d cycles; the run did not end empty", name, s.id, d)
		}
	}
	if res.MeasuredPackets == 0 || res.Unfinished != 0 || live != 0 || n.SentFlits() != n.deliveredFlits() {
		t.Fatalf("%s: %d measured packets, %d unfinished, %d live, %d flits sent, %d delivered; the run did not end empty",
			name, res.MeasuredPackets, res.Unfinished, live, n.SentFlits(), n.deliveredFlits())
	}
	depth := n.cfg.BufDepth
	v := n.cfg.Spec.V()
	for _, r := range n.routers {
		if !r.Quiescent() {
			t.Errorf("%s: router %d is not quiescent", name, r.ID())
		}
		for p := 0; p < n.cfg.Topology.Ports; p++ {
			if occ := r.OutputOccupancy(p); occ != 0 {
				t.Errorf("%s: router %d output %d is %d credits short of %d VCs × %d", name, r.ID(), p, occ, v, depth)
			}
			for vc := 0; vc < v; vc++ {
				if !r.OutputVCFree(p, vc) {
					t.Errorf("%s: router %d output VC (%d, %d) is still allocated", name, r.ID(), p, vc)
				}
			}
		}
	}
	for _, term := range n.terminals {
		for vc, c := range term.credits {
			if c != depth || term.vcBusy[vc] {
				t.Errorf("%s: terminal %d input VC %d holds %d credits (busy %v), want %d", name, term.id, vc, c, term.vcBusy[vc], depth)
			}
		}
	}
}
