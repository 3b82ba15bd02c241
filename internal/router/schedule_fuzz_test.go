package router

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

var (
	schedArchs = []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront}
	schedModes = []core.SpecMode{core.SpecNone, core.SpecGnt, core.SpecReq}
	schedKinds = []arbiter.Kind{arbiter.RoundRobin, arbiter.Matrix}
)

// FuzzRouterSchedules is a differential fuzz of the change-driven request
// schedule against DenseRequests at the router level. Two routers, both under
// Validate, receive one random, credit-respecting input sequence — flits of
// well-formed packets on every input VC, at most one flit per input port and
// cycle, output and upstream credits returned after a random delay — and must
// emit equal departures and equal upstream credits every cycle. Validate also
// holds the default router's cached requests to a full rebuild every cycle,
// so a missed dirty bit fails at the cycle it is missed.
//
// cfgSel picks the switch allocator architecture, the speculation scheme, the
// VC allocator architecture, dense or sparse VC allocation and the arbiter
// kind; the 108 combinations repeat from 108 on.
// shapeSel picks the radix (a 5-port mesh router with 2x1xC VCs or a 10-port
// flattened-butterfly router with 2x2xC), C and the buffer depth.
// seed draws the packets, and each byte of prog is one cycle's offered load,
// credit delays and destination skew. After prog the inputs finish their open
// packets, and both routers must drain.
func FuzzRouterSchedules(f *testing.F) {
	var prog []byte
	for c := 0; c < 96; c++ {
		// Bursts at full load with slow credits, then trickles and idle
		// cycles with fast ones, and a hot output port now and then.
		prog = append(prog, byte(3-c/24%4)|byte(c/8%4)<<2|byte(c/5%4)<<4|byte(c/32%2)<<6)
	}
	for sel := 0; sel < len(schedArchs)*len(schedModes); sel++ {
		for shape := 0; shape < 2; shape++ {
			// The VC allocator side (architecture, sparse, arbiter kind)
			// turns over across the seeds as well.
			vaSel := (2*sel + shape) % 12
			f.Add(uint8(sel+9*vaSel), uint8(shape+2*(sel%3)+6*(sel%2)), uint64(2*sel+shape), prog)
		}
	}
	f.Fuzz(func(t *testing.T, cfgSel, shapeSel uint8, seed uint64, prog []byte) {
		if len(prog) > 256 {
			prog = prog[:256]
		}
		runSchedules(t, cfgSel, shapeSel, seed, prog)
	})
}

// dueCredit is a credit on its way back: to the routers' output VC (port, vc)
// or to the upstream sender of input VC (port, vc), at cycle due.
type dueCredit struct{ due, port, vc int }

// deliverDue applies the credits due at cycle and returns the rest.
func deliverDue(cs []dueCredit, cycle int, apply func(port, vc int)) []dueCredit {
	rest := cs[:0]
	for _, c := range cs {
		if c.due <= cycle {
			apply(c.port, c.vc)
		} else {
			rest = append(rest, c)
		}
	}
	return rest
}

func runSchedules(t *testing.T, cfgSel, shapeSel uint8, seed uint64, prog []byte) {
	sel := int(cfgSel)
	c := 1 << (shapeSel / 2 % 3)
	ports, spec := 5, core.NewVCSpec(2, 1, c)
	if shapeSel%2 == 1 {
		ports, spec = 10, core.NewVCSpec(2, 2, c)
	}
	kind := schedKinds[sel/54%2]
	cfg := Config{
		Ports: ports, Spec: spec, BufDepth: []int{3, 8}[shapeSel/6%2],
		Routing: spreadRoute{ports, spec.ResourceClasses},
		VA:      core.VCAllocConfig{Arch: schedArchs[sel/9%3], ArbKind: kind, Sparse: sel/27%2 == 1},
		SA: core.SwitchAllocConfig{Arch: schedArchs[sel%3], ArbKind: kind,
			SpecMode: schedModes[sel/3%3]},
		Validate: true,
	}
	dense := cfg
	dense.DenseRequests = true
	a, b := New(cfg), New(dense)
	v := spec.V()

	rng := xrand.New(seed)
	inCredits := make([]int, ports*v) // the upstream senders' view of the input buffers
	for i := range inCredits {
		inCredits[i] = cfg.BufDepth
	}
	// open[i] is the packet streaming into input VC i, as one flit slice per
	// router (each router owns its packet objects, since a head's departure
	// bumps its packet's hop count), and sent[i] the flits already handed over.
	open := make([][2][]*Flit, ports*v)
	sent := make([]int, ports*v)
	types := [2][2]traffic.PacketType{
		{traffic.ReadRequest, traffic.WriteRequest},
		{traffic.ReadReply, traffic.WriteReply},
	}
	var outDue, inDue []dueCredit
	nextID := int64(1)
	streaming, flits := 0, int64(0)
	drainLimit := len(prog) + 2000
	for cycle := 0; ; cycle++ {
		feeding := cycle < len(prog)
		var knobs byte
		if feeding {
			knobs = prog[cycle]
		}
		outDue = deliverDue(outDue, cycle, func(port, vc int) {
			a.AcceptCredit(port, vc)
			b.AcceptCredit(port, vc)
		})
		inDue = deliverDue(inDue, cycle, func(port, vc int) { inCredits[port*v+vc]++ })

		load := []float64{0, 0.3, 0.7, 1}[knobs%4]
		for port := 0; port < ports; port++ {
			vc := -1
			switch {
			case feeding && rng.Bool(load):
				vc = rng.Intn(v)
			case !feeding:
				// Draining: finish the open packets, lowest sendable VC
				// first (a full buffer can be waiting on a packet behind
				// it on another VC of the same port).
				for cand := 0; cand < v; cand++ {
					if open[port*v+cand][0] != nil && inCredits[port*v+cand] > 0 {
						vc = cand
						break
					}
				}
			}
			if vc < 0 {
				continue
			}
			i := port*v + vc
			if inCredits[i] == 0 {
				continue
			}
			if open[i][0] == nil {
				if !feeding {
					continue
				}
				m, _, _ := spec.Decompose(vc)
				typ := types[m][rng.Intn(2)]
				dst := rng.Intn(ports * spec.ResourceClasses)
				if knobs>>6&1 == 1 {
					dst = dst % spec.ResourceClasses * ports // every packet to output 0
				}
				for k := range open[i] {
					open[i][k] = MakeFlits(&Packet{ID: nextID, Type: typ, Dst: dst, Size: typ.Flits(),
						Route: routing.PacketRoute{DestTerminal: dst, Intermediate: -1}})
				}
				nextID++
				sent[i] = 0
				streaming++
			}
			a.AcceptFlit(port, vc, open[i][0][sent[i]])
			b.AcceptFlit(port, vc, open[i][1][sent[i]])
			inCredits[i]--
			flits++
			if sent[i]++; sent[i] == len(open[i][0]) {
				open[i] = [2][]*Flit{}
				streaming--
			}
		}

		da, ca := a.Step()
		db, cb := b.Step()
		if len(da) != len(db) || len(ca) != len(cb) {
			t.Fatalf("cycle %d: %d departures and %d credits, dense schedule %d and %d",
				cycle, len(da), len(ca), len(db), len(cb))
		}
		for k := range da {
			x, y := da[k], db[k]
			if x.OutPort != y.OutPort || x.OutVC != y.OutVC || x.Flit.Pkt.ID != y.Flit.Pkt.ID ||
				x.Flit.Seq != y.Flit.Seq || x.Flit.Head != y.Flit.Head || x.Flit.Tail != y.Flit.Tail {
				t.Fatalf("cycle %d: departure %d is packet %d flit %d at (%d,%d), dense schedule packet %d flit %d at (%d,%d)",
					cycle, k, x.Flit.Pkt.ID, x.Flit.Seq, x.OutPort, x.OutVC, y.Flit.Pkt.ID, y.Flit.Seq, y.OutPort, y.OutVC)
			}
		}
		for k := range ca {
			if ca[k] != cb[k] {
				t.Fatalf("cycle %d: credit %d is %+v, dense schedule %+v", cycle, k, ca[k], cb[k])
			}
		}
		outDelay := []int{1, 2, 4, 9}[knobs>>2%4]
		for _, d := range da {
			outDue = append(outDue, dueCredit{cycle + outDelay, d.OutPort, d.OutVC})
		}
		inDelay := []int{1, 2, 3, 7}[knobs>>4%4]
		for _, c := range ca {
			inDue = append(inDue, dueCredit{cycle + inDelay, c.InPort, c.InVC})
		}

		if !feeding && streaming == 0 && len(outDue) == 0 && a.Quiescent() && b.Quiescent() {
			break
		}
		if cycle > drainLimit {
			t.Fatalf("routers still hold flits %d cycles after the last new packet", cycle-len(prog))
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats %+v, dense schedule %+v", a.Stats(), b.Stats())
	}
	if got := a.Stats().FlitsRouted; got != flits {
		t.Fatalf("%d flits in, %d out after the drain", flits, got)
	}
}
