package core

import (
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/bitvec"
	"repro/internal/xrand"
)

// refSwitch is an independent, deliberately naive model of the switch
// allocator (paper §5, Fig. 8/9), written from the figures and not from
// swalloc.go: every cycle it rescans the whole request slice port by port,
// builds fresh bit vectors and a fresh port-request matrix, and asks one
// heap-allocated arbiter per port, a bank of one each. It caches nothing
// between cycles except the priority state the hardware itself holds.
// FuzzSwitchAllocator holds the production engine to it grant for grant.
type refSwitch struct {
	p, v   int
	arch   alloc.Arch
	kind   arbiter.Kind
	mode   SpecMode
	passes []*refPass // non-speculative, then (when speculating) speculative
	stats  SwitchAllocStats
}

// refPass is one sub-allocator of Fig. 9: the datapath of Fig. 8 serving one
// request class.
type refPass struct {
	spec   bool
	vcArb  []*arbiter.Bank // per input port, one V wide
	outArb []*arbiter.Bank // per output port, one P wide (separable only)
	ports  alloc.Allocator // P×P block (wavefront)
}

// refProposal is a tentative grant of one input port.
type refProposal struct{ vc, out int }

func newRefSwitch(cfg SwitchAllocConfig) *refSwitch {
	r := &refSwitch{p: cfg.Ports, v: cfg.VCs, arch: cfg.Arch, kind: cfg.ArbKind, mode: cfg.SpecMode}
	r.Reset()
	return r
}

func (r *refSwitch) Reset() {
	r.stats = SwitchAllocStats{}
	r.passes = r.passes[:0]
	for _, spec := range []bool{false, true} {
		if spec && r.mode == SpecNone {
			break
		}
		ps := &refPass{spec: spec}
		for i := 0; i < r.p; i++ {
			ps.vcArb = append(ps.vcArb, newRefArbiter(r.kind, r.v))
		}
		switch r.arch {
		case alloc.SepIF, alloc.SepOF:
			for o := 0; o < r.p; o++ {
				ps.outArb = append(ps.outArb, newRefArbiter(r.kind, r.p))
			}
		case alloc.Wavefront:
			ps.ports = alloc.NewWavefront(r.p, r.p)
		}
		r.passes = append(r.passes, ps)
	}
}

// newRefArbiter returns a single n-input arbiter of kind k: a bank of one,
// addressed as index 0.
func newRefArbiter(k arbiter.Kind, n int) *arbiter.Bank {
	b := arbiter.NewBank(k, 1, n)
	return &b
}

// SkipIdle is literally idleCycles cycles without a request.
func (r *refSwitch) SkipIdle(idleCycles int) {
	empty := make([]SwitchRequest, r.p*r.v)
	for c := 0; c < idleCycles; c++ {
		r.Allocate(empty)
	}
}

func (r *refSwitch) Allocate(reqs []SwitchRequest) []SwitchGrant {
	grants := make([]SwitchGrant, r.p)
	for i := range grants {
		grants[i] = SwitchGrant{VC: -1, OutPort: -1}
	}

	// Non-speculative requests: every proposal is a grant.
	ns := r.passes[0]
	nsProps := r.propose(ns, reqs)
	for port, pr := range nsProps {
		if pr.out >= 0 {
			grants[port] = SwitchGrant{VC: pr.vc, OutPort: pr.out}
		}
	}
	r.commit(ns, nsProps)
	if r.mode == SpecNone {
		return grants
	}

	// Speculative requests: a proposal survives unless a non-speculative
	// grant (Fig. 9a) or request (Fig. 9b) uses its input or output port.
	sp := r.passes[1]
	spProps := r.propose(sp, reqs)
	for port, pr := range spProps {
		if pr.out < 0 {
			continue
		}
		r.stats.SpecProposals++
		conflict := false
		switch r.mode {
		case SpecGnt:
			for in, g := range nsProps {
				if g.out >= 0 && (in == port || g.out == pr.out) {
					conflict = true
				}
			}
		case SpecReq:
			for i, q := range reqs {
				if q.Active && !q.Spec && (i/r.v == port || q.OutPort == pr.out) {
					conflict = true
				}
			}
		}
		if conflict {
			r.stats.SpecMasked++
			spProps[port] = refProposal{-1, -1}
			continue
		}
		r.stats.SpecGranted++
		grants[port] = SwitchGrant{VC: pr.vc, OutPort: pr.out, Spec: true}
	}
	r.commit(sp, spProps)
	return grants
}

// wants reports whether input VC (port, vc) holds a request of this pass's
// class, optionally for one particular output.
func (ps *refPass) wants(reqs []SwitchRequest, v, port, vc, out int) bool {
	q := reqs[port*v+vc]
	return q.Active && q.Spec == ps.spec && (out < 0 || q.OutPort == out)
}

// pickVC arbitrates among the VCs of port that hold a request for one of
// the outputs in outs (nil: any output).
func (r *refSwitch) pickVC(ps *refPass, reqs []SwitchRequest, port int, outs *bitvec.Vec) int {
	req := bitvec.New(r.v)
	for vc := 0; vc < r.v; vc++ {
		if ps.wants(reqs, r.v, port, vc, -1) && (outs == nil || outs.Get(reqs[port*r.v+vc].OutPort)) {
			req.Set(vc)
		}
	}
	return ps.vcArb[port].Pick(0, req)
}

func (r *refSwitch) propose(ps *refPass, reqs []SwitchRequest) []refProposal {
	props := make([]refProposal, r.p)
	for i := range props {
		props[i] = refProposal{-1, -1}
	}
	switch r.arch {
	case alloc.SepIF:
		// Fig. 8(a): each input port picks a VC and forwards its request;
		// each output port picks among the forwarded requests.
		picks := make([]int, r.p)
		for port := range picks {
			picks[port] = r.pickVC(ps, reqs, port, nil)
		}
		for o := 0; o < r.p; o++ {
			fwd := bitvec.New(r.p)
			for port, pk := range picks {
				if pk >= 0 && reqs[port*r.v+pk].OutPort == o {
					fwd.Set(port)
				}
			}
			if w := ps.outArb[o].Pick(0, fwd); w >= 0 {
				props[w] = refProposal{picks[w], o}
			}
		}
	case alloc.SepOF:
		// Fig. 8(b): each output port picks among the input ports with any
		// VC requesting it; each input port then picks among its VCs whose
		// output was offered.
		offered := make([]*bitvec.Vec, r.p)
		for port := range offered {
			offered[port] = bitvec.New(r.p)
		}
		for o := 0; o < r.p; o++ {
			col := bitvec.New(r.p)
			for port := 0; port < r.p; port++ {
				for vc := 0; vc < r.v; vc++ {
					if ps.wants(reqs, r.v, port, vc, o) {
						col.Set(port)
					}
				}
			}
			if w := ps.outArb[o].Pick(0, col); w >= 0 {
				offered[w].Set(o)
			}
		}
		for port := 0; port < r.p; port++ {
			if w := r.pickVC(ps, reqs, port, offered[port]); w >= 0 {
				props[port] = refProposal{w, reqs[port*r.v+w].OutPort}
			}
		}
	default:
		// Fig. 8(c): a P×P block matches ports; each matched input port picks
		// among its VCs requesting the matched output. The block runs every
		// cycle, requests or not.
		m := bitvec.NewMatrix(r.p, r.p)
		for port := 0; port < r.p; port++ {
			for vc := 0; vc < r.v; vc++ {
				if ps.wants(reqs, r.v, port, vc, -1) {
					m.Set(port, reqs[port*r.v+vc].OutPort)
				}
			}
		}
		g := ps.ports.Allocate(m)
		for port := 0; port < r.p; port++ {
			if o := g.Row(port).First(); o >= 0 {
				only := bitvec.New(r.p)
				only.Set(o)
				props[port] = refProposal{r.pickVC(ps, reqs, port, only), o}
			}
		}
	}
	return props
}

// commit advances the arbiters behind every surviving proposal.
func (r *refSwitch) commit(ps *refPass, props []refProposal) {
	for port, pr := range props {
		if pr.out < 0 {
			continue
		}
		ps.vcArb[port].Update(0, pr.vc)
		if ps.outArb != nil {
			ps.outArb[pr.out].Update(0, port)
		}
	}
}

// fuzzDims maps a selector onto the sizes the fuzz covers: every radix of
// the paper's routers and below, plus the word boundary.
func fuzzDims(pSel, vSel uint8) (p, v int) {
	if p = int(pSel % 11); p == 0 {
		p = 64
	}
	if v = int(vSel % 17); v == 0 {
		v = 64
	}
	return p, v
}

var (
	fuzzArchs = []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront}
	fuzzKinds = []arbiter.Kind{arbiter.RoundRobin, arbiter.Matrix}
	fuzzModes = []SpecMode{SpecNone, SpecGnt, SpecReq}
)

// FuzzSwitchAllocator drives the production switch allocator and refSwitch
// through the same program: prog is read two bytes at a time as (operation,
// argument) — Allocate, or Push of every rewritten entry (old and new value)
// and Run, after rewriting a random subset of the reused request slice
// (rewrites include same-value ones, and pushes of entries the caller touched
// without changing), so dense and pushed cycles interleave at random;
// SkipIdle(k); or Reset. After every allocation the grants and speculation
// counters must be equal, the grants must be a legal schedule, a wavefront's
// non-speculative matching must be maximal, and a request with no competitor
// must be granted.
func FuzzSwitchAllocator(f *testing.F) {
	// One seed per architecture × arbiter kind × speculation mode at a paper
	// design point, plus the word-boundary sizes: 64 ports or VCs, and one.
	prog := []byte{0, 3, 3, 2, 1, 1, 6, 13, 4, 0, 0, 2, 7, 0, 5, 3, 6, 200, 2, 2, 3, 1, 0, 0}
	for sel := 0; sel < len(fuzzArchs)*len(fuzzKinds)*len(fuzzModes); sel++ {
		f.Add(uint8(sel), uint8(5+5*(sel%2)), uint8(2<<(sel%4)), uint64(sel), prog)
	}
	f.Add(uint8(2*6+2), uint8(0), uint8(0), uint64(64), prog)   // wf rr spec_req, 64×64
	f.Add(uint8(0*6+3+1), uint8(0), uint8(3), uint64(65), prog) // sep_if m spec_gnt, 64×3
	f.Add(uint8(1*6+0+2), uint8(3), uint8(0), uint64(66), prog) // sep_of rr spec_req, 3×64
	f.Add(uint8(2*6+0), uint8(1), uint8(1), uint64(67), prog)   // wf 1×1
	f.Add(uint8(0*6+0+0), uint8(0), uint8(0), uint64(68), prog) // sep_if rr nonspec, 64×64
	f.Add(uint8(1*6+3+1), uint8(0), uint8(0), uint64(69), prog) // sep_of m spec_gnt, 64×64
	f.Add(uint8(0*6+0+2), uint8(1), uint8(1), uint64(70), prog) // sep_if rr spec_req 1×1
	f.Add(uint8(1*6+3+0), uint8(1), uint8(0), uint64(71), prog) // sep_of m nonspec, 1×64
	f.Add(uint8(2*6+3+1), uint8(0), uint8(1), uint64(72), prog) // wf m spec_gnt, 64×1
	f.Add(uint8(2*6+3+0), uint8(3), uint8(0), uint64(73), prog) // wf m nonspec, 3×64
	f.Fuzz(func(t *testing.T, cfgSel, pSel, vSel uint8, seed uint64, prog []byte) {
		p, v := fuzzDims(pSel, vSel)
		sel := int(cfgSel) % (len(fuzzArchs) * len(fuzzKinds) * len(fuzzModes))
		cfg := SwitchAllocConfig{
			Ports: p, VCs: v,
			Arch:     fuzzArchs[sel/6],
			ArbKind:  fuzzKinds[sel/3%2],
			SpecMode: fuzzModes[sel%3],
		}
		if len(prog) > 64 {
			prog = prog[:64] // a 64×64 reference cycle is slow; 32 operations say enough
		}
		runSwitchProgram(t, cfg, seed, prog)
	})
}

func runSwitchProgram(t *testing.T, cfg SwitchAllocConfig, seed uint64, prog []byte) {
	p, v := cfg.Ports, cfg.VCs
	eng := NewSwitchAllocator(cfg)
	ref := newRefSwitch(cfg)
	rng := xrand.New(seed)
	reqs := make([]SwitchRequest, p*v)
	name := fmt.Sprintf("%s %dx%d", eng.Name(), p, v)

	for pc := 0; pc+1 < len(prog); pc += 2 {
		op, arg := prog[pc]%8, int(prog[pc+1])
		switch op {
		case 6:
			// Idle gaps shorter and longer than one priority rotation.
			k := arg%4*p + arg/4%7
			eng.SkipIdle(int64(k))
			ref.SkipIdle(k)
			continue
		case 7:
			eng.Reset()
			ref.Reset()
			if eng.Stats() != (SwitchAllocStats{}) {
				t.Fatalf("%s step %d: Reset left stats %+v", name, pc/2, eng.Stats())
			}
			continue
		}

		// Rewrite a subset of the entries in place: a handful, 5 %, half or all.
		churn := []float64{0, 0.05, 0.5, 1}[arg%4]
		few := 0
		if churn == 0 {
			few = 1 + arg/4%3
		}
		push := op >= 3
		for i := range reqs {
			if !(rng.Bool(churn) || (few > 0 && rng.Intn(p*v) < few)) {
				continue
			}
			old := reqs[i] // rewritten entries may or may not really differ
			switch r := rng.Intn(10); {
			case r < 6:
				reqs[i] = SwitchRequest{Active: true, OutPort: rng.Intn(p), Spec: rng.Bool(0.4)}
			case r < 8:
				// An inactive entry's port is never read, whatever it says.
				reqs[i] = SwitchRequest{OutPort: []int{-1, p, 1 << 20, rng.Intn(p)}[rng.Intn(4)], Spec: rng.Bool(0.5)}
			}
			if push {
				eng.Push(i/v, i%v, old, reqs[i])
			}
		}
		if arg/16%2 == 1 {
			if i := rng.Intn(p * v); push {
				eng.Push(i/v, i%v, reqs[i], reqs[i]) // an entry the caller touched without changing
			}
		}

		want := ref.Allocate(reqs)
		var got []SwitchGrant
		if push {
			got = eng.Run(reqs)
		} else {
			got = eng.Allocate(reqs)
		}
		for port := range want {
			if got[port] != want[port] {
				t.Fatalf("%s step %d (op %d) port %d: engine grants %+v, reference %+v\nreqs %+v",
					name, pc/2, op, port, got[port], want[port], reqs)
			}
		}
		if eng.Stats() != ref.stats {
			t.Fatalf("%s step %d: engine stats %+v, reference %+v", name, pc/2, eng.Stats(), ref.stats)
		}
		if err := CheckSwitchGrants(p, v, reqs, got); err != nil {
			t.Fatalf("%s step %d: %v", name, pc/2, err)
		}
		checkSwitchProperties(t, name, cfg, reqs, got)
	}
}

// checkSwitchProperties asserts what must hold of any correct allocator,
// whatever its priority state: a wavefront leaves no non-speculative request
// with both its ports free of non-speculative grants, and a request that is
// the only one the allocator considers is granted.
func checkSwitchProperties(t *testing.T, name string, cfg SwitchAllocConfig, reqs []SwitchRequest, grants []SwitchGrant) {
	p, v := cfg.Ports, cfg.VCs
	considered, lone := 0, -1
	outHeld := make([]bool, p)
	for _, g := range grants {
		if g.OutPort >= 0 && !g.Spec {
			outHeld[g.OutPort] = true
		}
	}
	for i, q := range reqs {
		if !q.Active || (q.Spec && cfg.SpecMode == SpecNone) {
			continue
		}
		considered++
		lone = i
		if cfg.Arch == alloc.Wavefront && !q.Spec {
			if g := grants[i/v]; (g.OutPort < 0 || g.Spec) && !outHeld[q.OutPort] {
				t.Fatalf("%s: not maximal: request %d -> %d has input and output free\nreqs %+v\ngrants %+v",
					name, i, q.OutPort, reqs, grants)
			}
		}
	}
	if considered == 1 {
		want := SwitchGrant{VC: lone % v, OutPort: reqs[lone].OutPort, Spec: reqs[lone].Spec}
		if grants[lone/v] != want {
			t.Fatalf("%s: lone request %d got %+v, want %+v", name, lone, grants[lone/v], want)
		}
	}
}
