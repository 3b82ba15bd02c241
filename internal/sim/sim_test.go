package sim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// meshConfig returns a full paper-style mesh configuration at the given VCs
// per class and rate, with fast test-sized phases.
func meshConfig(c int, rate float64) Config {
	topo := topology.Mesh(8)
	return Config{
		Topology: topo,
		Routing:  routing.NewDOR(topo),
		Spec:     core.NewVCSpec(2, 1, c),
		VA:       core.VCAllocConfig{Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin},
		SA:       core.SwitchAllocConfig{Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin, SpecMode: core.SpecReq},
		Workload: traffic.Workload{Rate: rate},
		Seed:     11,
		Warmup:   500,
		Measure:  1500,
		Drain:    8000,
	}
}

func fbflyConfig(c int, rate float64) Config {
	topo := topology.FlattenedButterfly(4, 4)
	cfg := meshConfig(c, rate)
	cfg.Topology = topo
	cfg.Routing = routing.NewUGAL(topo, 1)
	cfg.Spec = core.NewVCSpec(2, 2, c)
	return cfg
}

func TestLowLoadDeliversEverything(t *testing.T) {
	for _, cfg := range []Config{meshConfig(1, 0.1), fbflyConfig(1, 0.1)} {
		res := New(cfg).Run()
		if res.Saturated || res.Unfinished != 0 {
			t.Fatalf("%s: low load should drain fully: %+v", cfg.Topology.Name, res)
		}
		if res.MeasuredPackets == 0 {
			t.Fatalf("%s: no packets measured", cfg.Topology.Name)
		}
		if res.AvgLatency <= 0 {
			t.Fatalf("%s: bad latency %f", cfg.Topology.Name, res.AvgLatency)
		}
	}
}

func TestZeroLoadLatencyMesh(t *testing.T) {
	// Analytic check: with speculation, per-router latency is 2 cycles and
	// per-link 1; the 8x8 mesh under uniform traffic averages 16/3 hops,
	// so zero-load packet latency lands in the low twenties including
	// injection/ejection and serialization.
	res := New(meshConfig(1, 0.02)).Run()
	if res.AvgLatency < 18 || res.AvgLatency > 28 {
		t.Fatalf("mesh zero-load latency %.1f outside [18, 28]", res.AvgLatency)
	}
}

func TestZeroLoadLatencyFbfly(t *testing.T) {
	// The flattened butterfly's diameter is 2 hops; zero-load latency is
	// dominated by channel and serialization latency (§5.3.3).
	res := New(fbflyConfig(1, 0.02)).Run()
	if res.AvgLatency < 9 || res.AvgLatency > 17 {
		t.Fatalf("fbfly zero-load latency %.1f outside [9, 17]", res.AvgLatency)
	}
	mesh := New(meshConfig(1, 0.02)).Run()
	if res.AvgLatency >= mesh.AvgLatency {
		t.Fatalf("fbfly (%.1f) must have lower zero-load latency than mesh (%.1f)",
			res.AvgLatency, mesh.AvgLatency)
	}
}

func TestThroughputTracksOfferedLoad(t *testing.T) {
	res := New(meshConfig(2, 0.2)).Run()
	if res.Throughput < 0.18 || res.Throughput > 0.22 {
		t.Fatalf("throughput %.3f should track offered load 0.2", res.Throughput)
	}
}

func TestFlitConservation(t *testing.T) {
	// Run under load, then let injection stop and drain: every flit handed
	// to a router must eventually be delivered to a terminal.
	n := New(loadThenDrain(meshConfig(2, 0.3), 3000))
	stepUntilDrained(n, 3000)
	sent, delivered := n.SentFlits(), n.deliveredFlits()
	if sent != delivered {
		t.Fatalf("flit conservation violated: sent %d, delivered %d", sent, delivered)
	}
	if sent == 0 {
		t.Fatal("no traffic moved")
	}
}

func TestDeterminism(t *testing.T) {
	a := New(meshConfig(2, 0.25)).Run()
	b := New(meshConfig(2, 0.25)).Run()
	if a.AvgLatency != b.AvgLatency || a.Throughput != b.Throughput || a.FlitsDelivered != b.FlitsDelivered {
		t.Fatalf("same seed produced different results: %+v vs %+v", a, b)
	}
	c := meshConfig(2, 0.25)
	c.Seed = 12
	other := New(c).Run()
	if other.FlitsDelivered == a.FlitsDelivered && other.AvgLatency == a.AvgLatency {
		t.Fatal("different seeds suspiciously identical")
	}
}

func TestRequestReplyBalance(t *testing.T) {
	// Every delivered request elicits a reply, so over a drained run the
	// delivered flit count splits ~50/50 between 1-flit and 5-flit packet
	// types and total flits = 6 × transactions.
	cfg := meshConfig(2, 0.2)
	n := New(cfg)
	res := n.Run()
	if res.Unfinished != 0 {
		t.Fatal("run should drain")
	}
	// Measured packets include requests and replies; replies are created
	// at request delivery, so the measured population is roughly half
	// requests and half replies.
	if res.MeasuredPackets < 100 {
		t.Fatalf("too few packets measured: %d", res.MeasuredPackets)
	}
}

func TestSpeculationReducesZeroLoadLatency(t *testing.T) {
	// §5.3.3: speculation improves mesh zero-load latency by up to ~23%
	// and fbfly by ~14%.
	meshSpec := New(meshConfig(1, 0.05)).Run()
	cfgNS := meshConfig(1, 0.05)
	cfgNS.SA.SpecMode = core.SpecNone
	meshNS := New(cfgNS).Run()
	gain := 1 - meshSpec.AvgLatency/meshNS.AvgLatency
	if gain < 0.15 || gain > 0.30 {
		t.Errorf("mesh speculation gain %.2f outside [0.15, 0.30] (paper: up to 23%%)", gain)
	}

	fbSpec := New(fbflyConfig(1, 0.05)).Run()
	fbCfgNS := fbflyConfig(1, 0.05)
	fbCfgNS.SA.SpecMode = core.SpecNone
	fbNS := New(fbCfgNS).Run()
	fbGain := 1 - fbSpec.AvgLatency/fbNS.AvgLatency
	if fbGain < 0.08 || fbGain > 0.25 {
		t.Errorf("fbfly speculation gain %.2f outside [0.08, 0.25] (paper: ~14%%)", fbGain)
	}
	if fbGain >= gain {
		t.Errorf("speculation should help the mesh (%.2f) more than the fbfly (%.2f)", gain, fbGain)
	}
}

func TestSpecSchemesEquivalentAtLowLoad(t *testing.T) {
	// §5.3.3: both speculative variants yield virtually identical
	// performance at low to medium injection rates.
	for _, rate := range []float64{0.05, 0.2} {
		cfgG := meshConfig(1, rate)
		cfgG.SA.SpecMode = core.SpecGnt
		cfgR := meshConfig(1, rate)
		cfgR.SA.SpecMode = core.SpecReq
		g := New(cfgG).Run()
		r := New(cfgR).Run()
		diff := (r.AvgLatency - g.AvgLatency) / g.AvgLatency
		if diff < -0.02 || diff > 0.05 {
			t.Errorf("rate %.2f: spec_req latency %.2f vs spec_gnt %.2f (diff %.3f)",
				rate, r.AvgLatency, g.AvgLatency, diff)
		}
	}
}

func TestPessimisticBetweenNonspecAndConventionalNearSaturation(t *testing.T) {
	// §5.3.3: as load approaches saturation, spec_req latency approaches
	// the non-speculative implementation's.
	rate := 0.4
	lat := func(mode core.SpecMode) float64 {
		cfg := meshConfig(4, rate)
		cfg.SA.SpecMode = mode
		cfg.Measure = 2500
		return New(cfg).Run().AvgLatency
	}
	ns, pr, cg := lat(core.SpecNone), lat(core.SpecReq), lat(core.SpecGnt)
	if !(cg < pr) {
		t.Errorf("near saturation spec_gnt (%.1f) should beat spec_req (%.1f)", cg, pr)
	}
	if !(pr < ns*1.05) {
		t.Errorf("spec_req (%.1f) should not exceed nonspec (%.1f)", pr, ns)
	}
}

func TestWavefrontSwitchAllocatorWinsOnFbflyHighVC(t *testing.T) {
	// §5.3.3 / conclusions: the wavefront switch allocator sustains higher
	// throughput than sep_if on the flattened butterfly as VC count grows.
	thr := func(arch alloc.Arch) float64 {
		cfg := fbflyConfig(4, 0.62)
		cfg.SA.Arch = arch
		cfg.Measure = 2500
		cfg.Drain = 3000
		return New(cfg).Run().Throughput
	}
	wf, sif := thr(alloc.Wavefront), thr(alloc.SepIF)
	if wf <= sif {
		t.Fatalf("fbfly 2x2x4: wf throughput (%.3f) should beat sep_if (%.3f)", wf, sif)
	}
	if (wf-sif)/sif < 0.03 {
		t.Fatalf("fbfly 2x2x4 wf advantage only %.1f%%, expected a clear gap", 100*(wf-sif)/sif)
	}
}

func TestSwitchAllocatorsEquivalentOnMeshFewVCs(t *testing.T) {
	// §5.3.3: for the mesh with 2x1x1 VCs the saturation-rate difference
	// between allocators is negligible; check mid-load latency closeness.
	lat := func(arch alloc.Arch) float64 {
		cfg := meshConfig(1, 0.25)
		cfg.SA.Arch = arch
		return New(cfg).Run().AvgLatency
	}
	sif, sof, wf := lat(alloc.SepIF), lat(alloc.SepOF), lat(alloc.Wavefront)
	for _, pair := range [][2]float64{{sif, sof}, {sif, wf}} {
		diff := (pair[1] - pair[0]) / pair[0]
		if diff < -0.05 || diff > 0.05 {
			t.Errorf("mesh 2x1x1 mid-load latencies diverge: sep_if %.2f sep_of %.2f wf %.2f", sif, sof, wf)
		}
	}
}

func TestVCAllocatorChoiceInsensitive(t *testing.T) {
	// §4.3.3: network performance is largely insensitive to the VC
	// allocator; zero-load latency and mid-load latency nearly unchanged.
	lat := func(arch alloc.Arch, sparse bool, rate float64) float64 {
		cfg := meshConfig(2, rate)
		cfg.VA.Arch = arch
		cfg.VA.Sparse = sparse
		return New(cfg).Run().AvgLatency
	}
	for _, rate := range []float64{0.05, 0.3} {
		base := lat(alloc.SepIF, false, rate)
		for _, v := range []struct {
			arch   alloc.Arch
			sparse bool
		}{{alloc.SepOF, false}, {alloc.Wavefront, false}, {alloc.SepIF, true}, {alloc.Wavefront, true}} {
			l := lat(v.arch, v.sparse, rate)
			diff := (l - base) / base
			if diff < -0.06 || diff > 0.06 {
				t.Errorf("rate %.2f: VC allocator %v sparse=%v latency %.2f deviates from sep_if %.2f",
					rate, v.arch, v.sparse, l, base)
			}
		}
	}
}

func TestSparseVCAllocatorSameNetworkBehavior(t *testing.T) {
	// The sparse VC allocator is a logic optimization; network results
	// must remain plausible and fully drained on both topologies.
	for _, mk := range []func(int, float64) Config{meshConfig, fbflyConfig} {
		cfg := mk(2, 0.2)
		cfg.VA.Sparse = true
		res := New(cfg).Run()
		if res.Saturated || res.Unfinished != 0 {
			t.Fatalf("%s sparse VA run did not drain: %+v", cfg.Topology.Name, res)
		}
	}
}

// classGrants counts VA grants by the resource class of the granted
// output VC.
type classGrants struct {
	spec core.VCSpec
	n    []int
}

func (g *classGrants) Record(e trace.Event) {
	if e.Kind == trace.VAGrant {
		_, r, _ := g.spec.Decompose(e.OutVC)
		g.n[r]++
	}
}

func TestUGALUnderAdversarialPattern(t *testing.T) {
	// Tornado-like traffic benefits from UGAL's non-minimal paths; the run
	// must stay deadlock-free and drain. Valiant packets hold resource
	// class 0 to their intermediate router and class 1 after it, so grants
	// in both classes prove the run crossed the class change under load.
	cfg := fbflyConfig(2, 0.3)
	cfg.Workload.Pattern = "tornado"
	cfg.Validate = true
	grants := &classGrants{spec: cfg.Spec, n: make([]int, cfg.Spec.ResourceClasses)}
	cfg.Trace = trace.New(grants, nil)
	res := New(cfg).Run()
	if res.Unfinished != 0 {
		t.Fatalf("tornado run did not drain: %+v", res)
	}
	for r, n := range grants.n {
		if n == 0 {
			t.Errorf("no VA grant in resource class %d (grants by class %v)", r, grants.n)
		}
	}
	t.Logf("VA grants by resource class: %v", grants.n)
}

func TestHighLoadNoDeadlockAllArchCombos(t *testing.T) {
	// Overdrive the network; regardless of allocator combination the
	// simulation must keep moving flits (protocol + routing deadlock
	// freedom) and never violate flow control (router panics).
	for _, va := range []alloc.Arch{alloc.SepIF, alloc.SepOF} {
		for _, sa := range []alloc.Arch{alloc.SepIF, alloc.Wavefront} {
			for _, mode := range []core.SpecMode{core.SpecNone, core.SpecGnt, core.SpecReq} {
				cfg := meshConfig(1, 0.9)
				cfg.VA.Arch = va
				cfg.SA.Arch = sa
				cfg.SA.SpecMode = mode
				// Drain 0 would select the 20 000-cycle default: one cycle is
				// "do not drain" (a saturated network never empties anyway).
				cfg.Warmup, cfg.Measure, cfg.Drain = 200, 400, 1
				n := New(cfg)
				res := n.Run()
				if res.FlitsDelivered == 0 {
					t.Errorf("va=%v sa=%v mode=%v: network wedged", va, sa, mode)
				}
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	topo := topology.Mesh(4)
	for _, fn := range []func(){
		func() { New(Config{}) },
		func() {
			New(Config{Topology: topo, Routing: routing.NewDOR(topo), Spec: core.NewVCSpec(1, 1, 2)})
		},
		func() {
			New(Config{Topology: topo, Routing: routing.NewDOR(topo), Spec: core.NewVCSpec(2, 2, 1)})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestOccupancyEstimator(t *testing.T) {
	cfg := meshConfig(1, 0.3)
	n := New(cfg)
	for i := 0; i < 500; i++ {
		n.stepCycle()
	}
	// Under load, some router must report non-zero occupancy.
	total := 0
	for r := 0; r < cfg.Topology.Routers; r++ {
		for p := 0; p < cfg.Topology.Ports; p++ {
			total += n.Occupancy(r, p)
		}
	}
	if total == 0 {
		t.Fatal("occupancy estimator reports an empty loaded network")
	}
}

func TestResultExtendedStatistics(t *testing.T) {
	res := New(meshConfig(2, 0.2)).Run()
	if res.LatencyP50 <= 0 || res.LatencyP99 < res.LatencyP50 || res.LatencyMax < res.LatencyP99 {
		t.Fatalf("order statistics inconsistent: p50=%d p99=%d max=%d",
			res.LatencyP50, res.LatencyP99, res.LatencyMax)
	}
	if res.RequestLatency <= 0 || res.ReplyLatency <= 0 {
		t.Fatalf("per-class latencies missing: req=%f rep=%f", res.RequestLatency, res.ReplyLatency)
	}
	// The mean must lie between the per-class means.
	lo, hi := res.RequestLatency, res.ReplyLatency
	if lo > hi {
		lo, hi = hi, lo
	}
	if res.AvgLatency < lo-1 || res.AvgLatency > hi+1 {
		t.Fatalf("avg %.1f outside class means [%.1f, %.1f]", res.AvgLatency, lo, hi)
	}
	// 8x8 mesh uniform traffic: mean hop count (router traversals) is
	// mean Manhattan distance (16/3 between distinct uniform pairs is
	// ~5.33; conditioned on src != dst slightly higher) plus one for the
	// destination router.
	if res.AvgHops < 5.8 || res.AvgHops > 7.2 {
		t.Fatalf("mesh AvgHops %.2f outside plausible [5.8, 7.2]", res.AvgHops)
	}
}

func TestSpeculationCountersExposed(t *testing.T) {
	spec := New(meshConfig(1, 0.2)).Run()
	if spec.SpecGrantsUsed == 0 {
		t.Fatal("speculative run recorded no used speculative grants")
	}
	cfg := meshConfig(1, 0.2)
	cfg.SA.SpecMode = core.SpecNone
	ns := New(cfg).Run()
	if ns.SpecGrantsUsed != 0 || ns.Misspeculations != 0 || ns.SpecMasked != 0 {
		t.Fatalf("nonspec run recorded speculation stats: %+v", ns)
	}
}

func TestPessimisticMasksMoreInNetwork(t *testing.T) {
	// §5.3.3: approaching saturation, spec_req discards more speculation
	// opportunities than spec_gnt.
	masked := func(mode core.SpecMode) int64 {
		cfg := meshConfig(2, 0.35)
		cfg.SA.SpecMode = mode
		return New(cfg).Run().SpecMasked
	}
	if pr, cg := masked(core.SpecReq), masked(core.SpecGnt); pr <= cg {
		t.Fatalf("spec_req masked %d, want more than spec_gnt's %d", pr, cg)
	}
}

func TestFbflyHopCountsReflectUGAL(t *testing.T) {
	res := New(fbflyConfig(1, 0.1)).Run()
	// Minimal fbfly paths traverse 1-3 routers (incl. source and dest);
	// occasional Valiant detours can add up to 2 more.
	if res.AvgHops < 1.5 || res.AvgHops > 4 {
		t.Fatalf("fbfly AvgHops %.2f outside [1.5, 4]", res.AvgHops)
	}
}

func TestTracedSimulationTellsPacketStory(t *testing.T) {
	// Tracing does not change the schedule: a traced default network (under
	// Validate) and a traced reference network must agree on the Result and
	// on every event, in order, on both topologies at a drain-dominated and a
	// loaded rate; the drain-dominated default must leap all the same. And a
	// trace must show, for some packet, the full lifecycle in order: inject,
	// route, VA grant, switch grants, eject.
	traced := func(cfg Config) (*Network, Result, []trace.Event) {
		collector := trace.NewCollector(1 << 20)
		cfg.Trace = trace.New(collector, nil)
		n := New(cfg)
		res := n.Run()
		evs := collector.Events()
		if int64(len(evs)) != collector.Total() {
			t.Fatalf("%s: collector kept %d of %d events", cfg.Topology.Name, len(evs), collector.Total())
		}
		return n, res, evs
	}
	for _, mk := range []func(int, float64) Config{meshConfig, fbflyConfig} {
		for _, rate := range []float64{0.001, 0.3} {
			cfg := mk(1, rate)
			if rate > 0.01 {
				cfg.Warmup, cfg.Measure, cfg.Drain = 100, 200, 2000
			}
			name := fmt.Sprintf("%s@%g", cfg.Topology.Name, rate)
			ref := cfg
			ref.Reference = true
			_, want, wantEvs := traced(ref)
			cfg.Validate = true
			n, res, evs := traced(cfg)
			if res != want {
				t.Fatalf("%s: traced default diverged from the traced reference:\nreference: %+v\ndefault:   %+v", name, want, res)
			}
			if len(evs) == 0 {
				t.Fatalf("%s: no events recorded", name)
			}
			if !slices.Equal(evs, wantEvs) {
				i := 0
				for i < min(len(evs), len(wantEvs)) && evs[i] == wantEvs[i] {
					i++
				}
				t.Fatalf("%s: %d traced events, reference %d; first difference at event %d", name, len(evs), len(wantEvs), i)
			}
			_, cycles := n.LeapStats()
			t.Logf("%s: %d events, %d cycles leapt", name, len(evs), cycles)
			if rate < 0.01 && cycles == 0 {
				t.Fatalf("%s: traced default never leapt", name)
			}
			if rate < 0.01 && res.Unfinished != 0 {
				t.Fatalf("%s: traced run did not drain: %+v", name, res)
			}
			checkPacketStory(t, name, evs)
		}
	}
}

// checkPacketStory finds a packet among the first 200 whose trace runs from
// inject to eject and checks that its events are in cycle order and include
// a VA grant and a switch grant.
func checkPacketStory(t *testing.T, name string, evs []trace.Event) {
	t.Helper()
	var story []trace.Event
	for pkt := int64(1); pkt < 200 && len(story) == 0; pkt++ {
		var pe []trace.Event
		for _, e := range evs {
			if e.Packet == pkt {
				pe = append(pe, e)
			}
		}
		if len(pe) >= 4 && pe[0].Kind == trace.Inject && pe[len(pe)-1].Kind == trace.Eject {
			story = pe
		}
	}
	if len(story) == 0 {
		t.Fatalf("%s: no complete packet story in trace", name)
	}
	sawVA, sawSA := false, false
	lastCycle := int64(-1)
	for _, e := range story {
		if e.Cycle < lastCycle {
			t.Fatalf("%s: events out of order: %v", name, story)
		}
		lastCycle = e.Cycle
		switch e.Kind {
		case trace.VAGrant:
			sawVA = true
		case trace.SAGrant:
			sawSA = true
		}
	}
	if !sawVA || !sawSA {
		t.Fatalf("%s: story missing pipeline events: %v", name, story)
	}
}

func TestTraceFilterMisspecOnly(t *testing.T) {
	collector := trace.NewCollector(10000)
	cfg := meshConfig(1, 0.3)
	cfg.Warmup, cfg.Measure, cfg.Drain = 200, 600, 1
	cfg.Trace = trace.New(collector, func(e trace.Event) bool { return e.Kind == trace.Misspec })
	New(cfg).Run()
	for _, e := range collector.Events() {
		if e.Kind != trace.Misspec {
			t.Fatalf("filter leaked event %v", e)
		}
	}
	if collector.Total() == 0 {
		t.Fatal("a loaded speculative run should record misspeculations")
	}
}

func TestValidatedRunsAllArchCombos(t *testing.T) {
	// Per-cycle allocation checking across architecture combinations and
	// both topologies: any matching violation panics inside the run.
	for _, mk := range []func(int, float64) Config{meshConfig, fbflyConfig} {
		for _, va := range []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront} {
			for _, sa := range []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront} {
				cfg := mk(2, 0.4)
				cfg.VA.Arch = va
				cfg.SA.Arch = sa
				cfg.Validate = true
				cfg.Warmup, cfg.Measure, cfg.Drain = 150, 300, 1
				if res := New(cfg).Run(); res.FlitsDelivered == 0 {
					t.Fatalf("%s va=%v sa=%v: wedged", cfg.Topology.Name, va, sa)
				}
			}
		}
	}
}

func TestWavefrontAdvantageGrowsWithVCCount(t *testing.T) {
	// Fig. 13's central shape: the wavefront switch allocator's throughput
	// advantage over sep_if grows from fbfly 2x2x1 to 2x2x4.
	gap := func(c int, rate float64) float64 {
		thr := func(arch alloc.Arch) float64 {
			cfg := fbflyConfig(c, rate)
			cfg.SA.Arch = arch
			cfg.Measure = 2500
			cfg.Drain = 2500
			return New(cfg).Run().Throughput
		}
		return thr(alloc.Wavefront)/thr(alloc.SepIF) - 1
	}
	small := gap(1, 0.46) // just past sep_if saturation at C=1
	large := gap(4, 0.62)
	if large <= small {
		t.Fatalf("wf advantage should grow with VCs: C=1 %+.3f vs C=4 %+.3f", small, large)
	}
	if large < 0.03 {
		t.Fatalf("wf advantage at fbfly 2x2x4 only %+.3f, expected a clear gap", large)
	}
}
