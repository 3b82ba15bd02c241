package router

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// Router microbenchmarks for the change-driven request schedule. Each
// benchmark runs at two operating points — low load (a single trickling VC,
// the regime where the dirty mask skips nearly everything) and saturation
// (every input VC backed up behind one output port, the regime where pushing
// each rewritten entry into the allocators replaces handing them the whole
// request slice) — and under both schedules, so the dirty-vs-dense cost
// ratio is tracked directly. All benchmarks report allocations: the
// steady-state router cycle must stay heap-free (see
// TestStepSteadyStateZeroAlloc).

// benchFeeder recycles a fixed set of single-flit packets through the
// router so the measured loop performs no packet construction of its own.
type benchFeeder struct {
	r     *Router
	flits []*Flit
	next  int
	ports int // input ports fed each cycle (1 = low load, all = saturation)
}

func newBenchFeeder(r *Router, ports int) *benchFeeder {
	f := &benchFeeder{r: r, ports: ports}
	for i := 0; i < 32; i++ {
		f.flits = append(f.flits, MakeFlits(mkPacket(int64(i), traffic.ReadRequest, 0))[0])
	}
	return f
}

// feed tops up the fed input ports; at saturation every port's VC 0 stays
// backed up behind the single routed output, at low load port 0 trickles.
func (f *benchFeeder) feed() {
	for port := 0; port < f.ports; port++ {
		if f.r.InputOccupancy(port, 0) < 4 {
			f.r.AcceptFlit(port, 0, f.flits[f.next%len(f.flits)])
			f.next++
		}
	}
}

// cycle runs one full accept/Step/credit-return round.
func (f *benchFeeder) cycle() {
	f.feed()
	deps, _ := f.r.Step()
	for _, d := range deps {
		f.r.AcceptCredit(d.OutPort, d.OutVC)
	}
}

func benchStep(b *testing.B, fedPorts int, dense bool) {
	cfg := testConfig(core.SpecReq)
	cfg.DenseRequests = dense
	r := New(cfg)
	f := newBenchFeeder(r, fedPorts)
	for i := 0; i < 200; i++ { // reach steady state first
		f.cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.cycle()
	}
}

func BenchmarkStepLowLoadDirty(b *testing.B)    { benchStep(b, 1, false) }
func BenchmarkStepLowLoadDense(b *testing.B)    { benchStep(b, 1, true) }
func BenchmarkStepSaturationDirty(b *testing.B) { benchStep(b, 4, false) }
func BenchmarkStepSaturationDense(b *testing.B) { benchStep(b, 4, true) }

// spreadRoute sends a packet to output port dst mod ports in resource class
// (dst / ports) mod classes, so uniformly drawn destinations load every
// output port and every VC class alike.
type spreadRoute struct{ ports, classes int }

func (s spreadRoute) ResourceClasses() int { return s.classes }
func (s spreadRoute) NextHop(_ int, pr *routing.PacketRoute) (int, int) {
	return pr.DestTerminal % s.ports, pr.DestTerminal / s.ports % s.classes
}

// kneeFeeder offers every input port one flit per cycle, as an upstream
// channel at full rate would: packets of all four types with uniformly drawn
// outputs, each on a VC of its own message class, flit after flit. Downstream
// credits come back at once, so what limits the router is its own
// allocation. The packets are built once and recycled.
type kneeFeeder struct {
	r     *Router
	spec  core.VCSpec
	pkts  [][]*Flit
	next  int
	flits [][]*Flit // per input port: the rest of the packet on its way in
	vc    []int     // per input port: the VC that packet is using
	turn  int
}

func newKneeFeeder(r *Router, ports int, spec core.VCSpec) *kneeFeeder {
	f := &kneeFeeder{r: r, spec: spec, flits: make([][]*Flit, ports), vc: make([]int, ports)}
	rng := xrand.New(16)
	types := []traffic.PacketType{traffic.ReadRequest, traffic.WriteRequest, traffic.ReadReply, traffic.WriteReply}
	for i := 0; i < 1024; i++ {
		dst := rng.Intn(ports * spec.ResourceClasses)
		f.pkts = append(f.pkts, MakeFlits(mkPacket(int64(i), types[rng.Intn(len(types))], dst)))
	}
	return f
}

func (f *kneeFeeder) cycle() {
	for port := range f.flits {
		if len(f.flits[port]) == 0 {
			fs := f.pkts[f.next%len(f.pkts)]
			f.next++
			// Resource classes, and the VCs within one, are used in turn.
			rc := f.spec.ResourceClasses
			lo, hi := f.spec.ClassRange(fs[0].Pkt.Type.MessageClass(), f.turn%rc)
			f.flits[port], f.vc[port] = fs, lo+f.turn/rc%(hi-lo)
			f.turn++
		}
		if f.r.InputOccupancy(port, f.vc[port]) < f.r.depth {
			f.r.AcceptFlit(port, f.vc[port], f.flits[port][0])
			f.flits[port] = f.flits[port][1:]
		}
	}
	deps, _ := f.r.Step()
	for _, d := range deps {
		f.r.AcceptCredit(d.OutPort, d.OutVC)
	}
}

// BenchmarkStepSaturation is one router cycle at full offered load for the
// router of each sim_saturation knee unit (bench/gen.go): the mesh and
// flattened-butterfly radices and VC counts with the switch allocator
// architecture and speculation scheme that unit simulates.
func BenchmarkStepSaturation(b *testing.B) {
	for _, cell := range []struct {
		name  string
		ports int
		spec  core.VCSpec
		arch  alloc.Arch
		mode  core.SpecMode
	}{
		{"mesh_c1_sep_if_spec_req", 5, core.NewVCSpec(2, 1, 1), alloc.SepIF, core.SpecReq},
		{"mesh_c2_wf_spec_gnt", 5, core.NewVCSpec(2, 1, 2), alloc.Wavefront, core.SpecGnt},
		{"fbfly_c1_sep_of_nonspec", 10, core.NewVCSpec(2, 2, 1), alloc.SepOF, core.SpecNone},
		{"fbfly_c2_wf_spec_req", 10, core.NewVCSpec(2, 2, 2), alloc.Wavefront, core.SpecReq},
	} {
		b.Run(cell.name, func(b *testing.B) {
			cfg := testConfig(cell.mode)
			cfg.Ports, cfg.Spec = cell.ports, cell.spec
			cfg.Routing = spreadRoute{cell.ports, cell.spec.ResourceClasses}
			cfg.SA.Arch = cell.arch
			f := newKneeFeeder(New(cfg), cell.ports, cell.spec)
			for i := 0; i < 500; i++ { // fill the buffers first
				f.cycle()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.cycle()
			}
		})
	}
}

// benchBuildRequests isolates the request-assembly phase. Under the dirty
// schedule the benchmark re-marks the fed VCs every iteration, as if each
// had been emptied and refilled since the last Step (a flit arriving behind
// another marks nothing), and the rebuild pushes whatever entry changed into
// the allocators, which in this steady state is none; under DenseRequests
// every entry is rebuilt, which is exactly what the change-driven schedule
// avoids.
func benchBuildRequests(b *testing.B, fedPorts int, dense bool) {
	cfg := testConfig(core.SpecReq)
	cfg.DenseRequests = dense
	r := New(cfg)
	f := newBenchFeeder(r, fedPorts)
	for i := 0; i < 200; i++ {
		f.cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !dense {
			for port := 0; port < fedPorts; port++ {
				r.dirty.Set(port * r.v)
			}
		}
		r.buildRequests()
	}
	b.StopTimer()
	r.dirty.Reset() // leave the router consistent for any follow-on use
}

func BenchmarkBuildRequestsLowLoadDirty(b *testing.B)    { benchBuildRequests(b, 1, false) }
func BenchmarkBuildRequestsLowLoadDense(b *testing.B)    { benchBuildRequests(b, 1, true) }
func BenchmarkBuildRequestsSaturationDirty(b *testing.B) { benchBuildRequests(b, 4, false) }
func BenchmarkBuildRequestsSaturationDense(b *testing.B) { benchBuildRequests(b, 4, true) }

// benchCommitSA times only the switch-traversal commit: the accept, request
// build and push, allocation and VA commit phases run with the timer
// stopped, then the timer covers the commitSA call that pops winning flits,
// emits departures and credits, and marks next-cycle dirty bits.
func benchCommitSA(b *testing.B, fedPorts int) {
	r := New(testConfig(core.SpecReq))
	f := newBenchFeeder(r, fedPorts)
	for i := 0; i < 200; i++ {
		f.cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f.feed()
		r.deps = r.deps[:0]
		r.credits = r.credits[:0]
		r.buildRequests()
		r.dirty.Reset()
		vaGrants, vaGranted := r.va.Run(r.vaReqs)
		saGrants := r.sa.Run(r.saReqs)
		r.commitVA(vaGrants, vaGranted)
		b.StartTimer()
		r.commitSA(saGrants, vaGrants)
		b.StopTimer()
		for _, d := range r.deps {
			r.AcceptCredit(d.OutPort, d.OutVC)
		}
		b.StartTimer()
	}
}

func BenchmarkCommitSALowLoad(b *testing.B)    { benchCommitSA(b, 1) }
func BenchmarkCommitSASaturation(b *testing.B) { benchCommitSA(b, 4) }

var routerNewSink *Router

// BenchmarkRouterNew times the construction of one router with its
// allocators at the two extreme shapes of the paper: the 5-port mesh router
// with 2 VCs and the 10-port flattened-butterfly router with 16.
func BenchmarkRouterNew(b *testing.B) {
	for _, shape := range []struct {
		name  string
		ports int
		spec  core.VCSpec
	}{
		{"mesh_2x1x1", 5, core.NewVCSpec(2, 1, 1)},
		{"fbfly_2x2x4", 10, core.NewVCSpec(2, 2, 4)},
	} {
		b.Run(shape.name, func(b *testing.B) {
			cfg := testConfig(core.SpecReq)
			cfg.Ports, cfg.Spec = shape.ports, shape.spec
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				routerNewSink = New(cfg)
			}
		})
	}
}
