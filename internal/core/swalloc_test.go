package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/xrand"
)

func swConfigs(p, v int, mode SpecMode) []SwitchAllocConfig {
	var cfgs []SwitchAllocConfig
	for _, arch := range []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront} {
		cfgs = append(cfgs, SwitchAllocConfig{Ports: p, VCs: v, Arch: arch, ArbKind: arbiter.RoundRobin, SpecMode: mode})
		if arch != alloc.Wavefront {
			cfgs = append(cfgs, SwitchAllocConfig{Ports: p, VCs: v, Arch: arch, ArbKind: arbiter.Matrix, SpecMode: mode})
		}
	}
	return cfgs
}

// randomSwitchRequests generates requests with the given activity rate and
// speculative fraction.
func randomSwitchRequests(rng *xrand.Source, p, v int, rate, specFrac float64) []SwitchRequest {
	reqs := make([]SwitchRequest, p*v)
	for i := range reqs {
		if rng.Bool(rate) {
			reqs[i] = SwitchRequest{Active: true, OutPort: rng.Intn(p), Spec: rng.Bool(specFrac)}
		}
	}
	return reqs
}

func TestSpecModeString(t *testing.T) {
	cases := map[SpecMode]string{SpecNone: "nonspec", SpecGnt: "spec_gnt", SpecReq: "spec_req"}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
	if SpecMode(9).String() == "" {
		t.Error("unknown mode should render")
	}
}

func TestSwitchAllocatorNames(t *testing.T) {
	got := NewSwitchAllocator(SwitchAllocConfig{Ports: 5, VCs: 2, Arch: alloc.SepIF,
		ArbKind: arbiter.RoundRobin, SpecMode: SpecReq}).Name()
	if got != "sep_if/rr+spec_req" {
		t.Fatalf("Name = %q", got)
	}
	got = NewSwitchAllocator(SwitchAllocConfig{Ports: 5, VCs: 2, Arch: alloc.Wavefront,
		SpecMode: SpecNone}).Name()
	if got != "wf/rr+nonspec" {
		t.Fatalf("Name = %q", got)
	}
}

// mustPanic runs fn and returns its panic message; it fails the test if fn
// returns normally.
func mustPanic(t *testing.T, name string, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("%s: expected panic", name)
		}
		msg = fmt.Sprint(r)
	}()
	fn()
	return ""
}

func TestSwitchAllocatorBadConfigPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"no ports": func() { NewSwitchAllocator(SwitchAllocConfig{Ports: 0, VCs: 1}) },
		"no VCs":   func() { NewSwitchAllocator(SwitchAllocConfig{Ports: 2, VCs: 0}) },
		"bad arch": func() { NewSwitchAllocator(SwitchAllocConfig{Ports: 2, VCs: 1, Arch: alloc.Arch(99)}) },
		"short request slice": func() {
			a := NewSwitchAllocator(SwitchAllocConfig{Ports: 2, VCs: 2, Arch: alloc.SepIF})
			a.Allocate(make([]SwitchRequest, 3))
		},
	} {
		mustPanic(t, name, fn)
	}
	// The maximum-size matcher bounds matching quality (alloc.Maximum); it is
	// not a switch allocator architecture the paper evaluates.
	if msg := mustPanic(t, "maximum arch", func() {
		NewSwitchAllocator(SwitchAllocConfig{Ports: 2, VCs: 1, Arch: alloc.Maximum})
	}); !strings.Contains(msg, "unsupported switch allocator arch max") {
		t.Errorf("maximum arch: panic %q does not name the architecture", msg)
	}
	// Port and VC sets are single words; one more than fits must be refused
	// at construction, by a message that says what the limit is.
	for name, cfg := range map[string]SwitchAllocConfig{
		"65 ports": {Ports: 65, VCs: 2, Arch: alloc.SepIF},
		"65 VCs":   {Ports: 5, VCs: 65, Arch: alloc.Wavefront},
	} {
		if msg := mustPanic(t, name, func() { NewSwitchAllocator(cfg) }); !strings.Contains(msg, "at most 64") {
			t.Errorf("%s: panic %q does not name the limit", name, msg)
		}
	}
}

// TestSwitchBadOutPortPanics: a request the allocator considers must name an
// output port the router has. Anything else would shift a set bit out of, or
// into the wrong place of, the port words, so it must stop the run at the
// entry that carries it, through either entry point and in either request
// class. An inactive entry's port is never read.
func TestSwitchBadOutPortPanics(t *testing.T) {
	const p, v = 5, 2
	for _, cfg := range swConfigs(p, v, SpecReq) {
		for _, out := range []int{-1, p, 64, 1 << 40} {
			for _, spec := range []bool{false, true} {
				bad := SwitchRequest{Active: true, OutPort: out, Spec: spec}
				name := fmt.Sprintf("%s out %d spec %v", NewSwitchAllocator(cfg).Name(), out, spec)

				reqs := make([]SwitchRequest, p*v)
				reqs[3] = bad
				msg := mustPanic(t, name+" dense", func() { NewSwitchAllocator(cfg).Allocate(reqs) })
				if !strings.Contains(msg, "output port") {
					t.Errorf("%s dense: panic %q does not say what is wrong", name, msg)
				}

				a := NewSwitchAllocator(cfg)
				reqs = make([]SwitchRequest, p*v)
				reqs[2] = SwitchRequest{Active: true, OutPort: 1}
				a.Allocate(reqs)
				msg = mustPanic(t, name+" pushed", func() { a.Push(3/v, 3%v, reqs[3], bad) })
				if !strings.Contains(msg, "output port") {
					t.Errorf("%s pushed: panic %q does not say what is wrong", name, msg)
				}

				reqs[3] = bad
				reqs[3].Active = false
				b := NewSwitchAllocator(cfg)
				if g := b.Allocate(reqs); g[1] != (SwitchGrant{VC: 0, OutPort: 1}) {
					t.Errorf("%s: inactive entry disturbed the grants: %+v", name, g)
				}
			}
		}
	}
	// A non-speculative allocator does not consider speculative requests.
	a := NewSwitchAllocator(SwitchAllocConfig{Ports: p, VCs: v, Arch: alloc.SepIF})
	reqs := make([]SwitchRequest, p*v)
	reqs[3] = SwitchRequest{Active: true, OutPort: p, Spec: true}
	a.Allocate(reqs)
}

// allSwConfigs is swConfigs for every speculation mode.
func allSwConfigs(p, v int) []SwitchAllocConfig {
	var cfgs []SwitchAllocConfig
	for _, mode := range []SpecMode{SpecNone, SpecGnt, SpecReq} {
		cfgs = append(cfgs, swConfigs(p, v, mode)...)
	}
	return cfgs
}

// TestSwitchAllocatorWordBoundary runs every architecture at the largest
// size a word holds, 64 ports of 64 VCs, where the last port and the last VC
// are bit 63: a lone request there, a full permutation (every row and column
// of the wavefront taken, all 64 bits of every port set in use), and two VCs
// alternating across a round-robin pointer that wraps from 63 to 0.
func TestSwitchAllocatorWordBoundary(t *testing.T) {
	const n = 64
	for _, cfg := range allSwConfigs(n, n) {
		a := NewSwitchAllocator(cfg)
		for _, spec := range []bool{false, cfg.SpecMode != SpecNone} {
			a.Reset()
			reqs := make([]SwitchRequest, n*n)
			reqs[63*n+63] = SwitchRequest{Active: true, OutPort: 63, Spec: spec}
			if g, want := a.Allocate(reqs)[63], (SwitchGrant{VC: 63, OutPort: 63, Spec: spec}); g != want {
				t.Fatalf("%s: lone request at bit 63 got %+v, want %+v", a.Name(), g, want)
			}

			for port := 0; port < n; port++ {
				reqs[port*n+63] = SwitchRequest{Active: true, OutPort: (port + 1) % n, Spec: spec}
			}
			for cycle := 0; cycle < 3; cycle++ {
				grants := a.Allocate(reqs)
				if err := CheckSwitchGrants(n, n, reqs, grants); err != nil {
					t.Fatalf("%s: %v", a.Name(), err)
				}
				for port, g := range grants {
					if want := (SwitchGrant{VC: 63, OutPort: (port + 1) % n, Spec: spec}); g != want {
						t.Fatalf("%s cycle %d: permutation port %d got %+v, want %+v", a.Name(), cycle, port, g, want)
					}
				}
			}

			reqs = make([]SwitchRequest, n*n)
			reqs[63*n+62] = SwitchRequest{Active: true, OutPort: 63, Spec: spec}
			reqs[63*n+63] = SwitchRequest{Active: true, OutPort: 63, Spec: spec}
			a.Reset()
			for cycle := 0; cycle < 6; cycle++ {
				if g, want := a.Allocate(reqs)[63], (SwitchGrant{VC: 62 + cycle%2, OutPort: 63, Spec: spec}); g != want {
					t.Fatalf("%s cycle %d: VCs 62 and 63 must alternate, got %+v, want %+v", a.Name(), cycle, g, want)
				}
			}
		}
	}
}

// TestSwitchSkipIdleEqualsEmptyAllocates: SkipIdle(k) must leave an allocator
// exactly where k Allocate calls without a single request leave its twin, for
// gaps shorter and longer than one rotation of the priority diagonal, with
// both request classes in play, through both entry points (Allocate, and
// Push+Run) and across Reset.
func TestSwitchSkipIdleEqualsEmptyAllocates(t *testing.T) {
	const p, v = 5, 4
	for _, cfg := range allSwConfigs(p, v) {
		stepped, skipped := NewSwitchAllocator(cfg), NewSwitchAllocator(cfg)
		rng := xrand.New(977)
		empty := make([]SwitchRequest, p*v)
		reqs := make([]SwitchRequest, p*v)
		old := make([]SwitchRequest, p*v)
		for round, k := range []int{1, p - 1, p, p + 3, 3*p + 2, 0, 1000*p + 1} {
			if round == 4 {
				stepped.Reset()
				skipped.Reset()
			}
			for c := 0; c < k; c++ {
				stepped.Allocate(empty)
			}
			skipped.SkipIdle(int64(k))
			for c := 0; c < 2*p; c++ {
				specFrac := 0.4
				if cfg.SpecMode == SpecNone {
					specFrac = 0
				}
				copy(old, reqs)
				copy(reqs, randomSwitchRequests(rng, p, v, 0.5, specFrac))
				want := stepped.Allocate(reqs)
				var got []SwitchGrant
				if c%2 == 0 {
					for i := range reqs {
						skipped.Push(i/v, i%v, old[i], reqs[i])
					}
					got = skipped.Run(reqs)
				} else {
					got = skipped.Allocate(reqs)
				}
				for port := range want {
					if got[port] != want[port] {
						t.Fatalf("%s after idle gap %d, cycle %d, port %d: skipped %+v, stepped %+v",
							stepped.Name(), k, c, port, got[port], want[port])
					}
				}
				if stepped.Stats() != skipped.Stats() {
					t.Fatalf("%s after idle gap %d: stats %+v vs %+v", stepped.Name(), k, skipped.Stats(), stepped.Stats())
				}
			}
		}
	}
}

// TestSwitchAllocatorLayout pins what NewAllocators costs: a router's two
// allocators are the two allocator values, the switch allocator's grant and
// proposal slices, the VC allocator's engine slice and the five slab blocks,
// whatever the switch allocator's architecture, arbiters, speculation scheme
// or size. The switch datapath's words come out of the
// vector slab's word backing, not out of a block of their own.
func TestSwitchAllocatorLayout(t *testing.T) {
	const want = 10
	// The process's first collection starts the collector's worker
	// goroutines, and their stacks would be counted against whichever
	// configuration happens to be measured at that moment.
	runtime.GC()
	for _, size := range []struct{ p, c, v int }{{5, 1, 2}, {10, 2, 16}} {
		spec := NewVCSpec(2, size.c, size.v/(2*size.c))
		va := VCAllocConfig{Ports: size.p, Spec: spec, Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin}
		for _, sa := range allSwConfigs(size.p, spec.V()) {
			va.ArbKind = sa.ArbKind
			if got := testing.AllocsPerRun(5, func() { NewAllocators(va, sa) }); got > want {
				v, s := NewAllocators(va, sa)
				t.Errorf("%s + %s, %d ports: %v allocations, want %d", v.Name(), s.Name(), size.p, got, want)
			}
		}
	}
}

func TestSwitchAllocatorEmpty(t *testing.T) {
	for _, cfg := range swConfigs(5, 2, SpecReq) {
		a := NewSwitchAllocator(cfg)
		grants := a.Allocate(make([]SwitchRequest, 10))
		for p, g := range grants {
			if g.OutPort != -1 || g.VC != -1 {
				t.Fatalf("%s: spurious grant at port %d: %+v", a.Name(), p, g)
			}
		}
	}
}

func TestSwitchAllocatorSingleRequest(t *testing.T) {
	for _, mode := range []SpecMode{SpecNone, SpecGnt, SpecReq} {
		for _, cfg := range swConfigs(5, 2, mode) {
			a := NewSwitchAllocator(cfg)
			reqs := make([]SwitchRequest, 10)
			reqs[3*2+1] = SwitchRequest{Active: true, OutPort: 4}
			grants := a.Allocate(reqs)
			g := grants[3]
			if g.OutPort != 4 || g.VC != 1 || g.Spec {
				t.Fatalf("%s: got %+v, want {VC:1 OutPort:4}", a.Name(), g)
			}
		}
	}
}

func TestSwitchAllocatorValidityRandom(t *testing.T) {
	for _, mode := range []SpecMode{SpecNone, SpecGnt, SpecReq} {
		for _, cfg := range swConfigs(5, 4, mode) {
			a := NewSwitchAllocator(cfg)
			rng := xrand.New(uint64(73 + int(mode)))
			for trial := 0; trial < 300; trial++ {
				specFrac := 0.3
				if mode == SpecNone {
					specFrac = 0
				}
				reqs := randomSwitchRequests(rng, 5, 4, 0.4, specFrac)
				grants := a.Allocate(reqs)
				if err := CheckSwitchGrants(5, 4, reqs, grants); err != nil {
					t.Fatalf("%s trial %d: %v", a.Name(), trial, err)
				}
			}
		}
	}
}

func TestSwitchNonConflictingAllGranted(t *testing.T) {
	// A permutation of non-speculative requests must be fully granted.
	for _, cfg := range swConfigs(5, 2, SpecNone) {
		a := NewSwitchAllocator(cfg)
		reqs := make([]SwitchRequest, 10)
		for p := 0; p < 5; p++ {
			reqs[p*2] = SwitchRequest{Active: true, OutPort: (p + 1) % 5}
		}
		grants := a.Allocate(reqs)
		for p := 0; p < 5; p++ {
			if grants[p].OutPort != (p+1)%5 {
				t.Fatalf("%s: port %d grant %+v, want output %d", a.Name(), p, grants[p], (p+1)%5)
			}
		}
	}
}

func TestSwitchOneVCPerPortConstraint(t *testing.T) {
	// Even if every VC at a port requests a different free output, at most
	// one VC per input port may win (paper §5.1).
	for _, cfg := range swConfigs(5, 4, SpecNone) {
		a := NewSwitchAllocator(cfg)
		reqs := make([]SwitchRequest, 20)
		for vc := 0; vc < 4; vc++ {
			reqs[0*4+vc] = SwitchRequest{Active: true, OutPort: vc}
		}
		grants := a.Allocate(reqs)
		if grants[0].OutPort < 0 {
			t.Fatalf("%s: port with 4 requests received no grant", a.Name())
		}
		for p := 1; p < 5; p++ {
			if grants[p].OutPort >= 0 {
				t.Fatalf("%s: idle port %d received grant", a.Name(), p)
			}
		}
	}
}

func TestSpeculativeGrantLowLoad(t *testing.T) {
	// At zero load a lone speculative request must be granted under both
	// speculative schemes and ignored by the non-speculative allocator.
	for _, mode := range []SpecMode{SpecGnt, SpecReq} {
		for _, cfg := range swConfigs(5, 2, mode) {
			a := NewSwitchAllocator(cfg)
			reqs := make([]SwitchRequest, 10)
			reqs[1*2+0] = SwitchRequest{Active: true, OutPort: 3, Spec: true}
			grants := a.Allocate(reqs)
			g := grants[1]
			if g.OutPort != 3 || !g.Spec {
				t.Fatalf("%s: lone speculative request not granted: %+v", a.Name(), g)
			}
		}
	}
	a := NewSwitchAllocator(SwitchAllocConfig{Ports: 5, VCs: 2, Arch: alloc.SepIF, SpecMode: SpecNone})
	reqs := make([]SwitchRequest, 10)
	reqs[1*2+0] = SwitchRequest{Active: true, OutPort: 3, Spec: true}
	if g := a.Allocate(reqs)[1]; g.OutPort != -1 {
		t.Fatalf("nonspec allocator must ignore speculative requests, got %+v", g)
	}
}

func TestNonSpecPriorityOverSpec(t *testing.T) {
	// A speculative grant must never displace a non-speculative one on the
	// same input or output port, under either masking scheme.
	for _, mode := range []SpecMode{SpecGnt, SpecReq} {
		for _, cfg := range swConfigs(4, 2, mode) {
			a := NewSwitchAllocator(cfg)
			// Port 0 nonspec -> output 2; port 1 spec -> output 2 (output
			// conflict); port 2 has both spec and nonspec VCs (input
			// conflict).
			reqs := make([]SwitchRequest, 8)
			reqs[0*2+0] = SwitchRequest{Active: true, OutPort: 2}
			reqs[1*2+0] = SwitchRequest{Active: true, OutPort: 2, Spec: true}
			reqs[2*2+0] = SwitchRequest{Active: true, OutPort: 3}
			reqs[2*2+1] = SwitchRequest{Active: true, OutPort: 1, Spec: true}
			for trial := 0; trial < 20; trial++ {
				grants := a.Allocate(reqs)
				if grants[0].OutPort != 2 || grants[0].Spec {
					t.Fatalf("%s: nonspec request lost output 2: %+v", a.Name(), grants[0])
				}
				if grants[1].OutPort >= 0 {
					t.Fatalf("%s: speculative grant on conflicted output: %+v", a.Name(), grants[1])
				}
				if grants[2].OutPort != 3 || grants[2].Spec {
					t.Fatalf("%s: port 2 must grant its nonspec VC: %+v", a.Name(), grants[2])
				}
			}
		}
	}
}

func TestPessimisticMasksOnRequests(t *testing.T) {
	// The distinguishing case (Fig. 9): a non-speculative REQUEST that does
	// not win a grant still kills conflicting speculative grants under
	// spec_req but not under spec_gnt.
	//
	// Ports 0 and 1 both issue nonspec requests to output 0 — only one can
	// win. Port 2 issues a spec request to output 1 (no conflict; granted
	// in both schemes). Port 3 issues a spec request to output 2; port 1
	// ALSO has a nonspec request to output 2 queued at another VC. When
	// port 1 loses output 0... its request to output 2 was also forwarded.
	//
	// Construct more directly: port 0 nonspec -> output 0. Port 1 spec ->
	// output 0. Under spec_gnt port 1's spec grant is masked only because
	// port 0 wins. Now make port 0's request lose: ports 0 and 2 both
	// nonspec -> output 0; whoever loses still REQUESTED output 0, and a
	// spec request from port 1 to output 0 is masked either way. The
	// request-vs-grant difference shows on the INPUT side: port 0 has a
	// nonspec VC requesting output 0 AND a spec VC requesting output 1.
	// If port 0's nonspec request loses to port 2, then under spec_gnt the
	// spec VC may still win output 1, but under spec_req the mere presence
	// of the nonspec request at port 0 kills it.
	mk := func(mode SpecMode) (*SwitchAllocator, []SwitchRequest) {
		a := NewSwitchAllocator(SwitchAllocConfig{Ports: 4, VCs: 2, Arch: alloc.SepIF,
			ArbKind: arbiter.RoundRobin, SpecMode: mode})
		reqs := make([]SwitchRequest, 8)
		reqs[0*2+0] = SwitchRequest{Active: true, OutPort: 0}             // nonspec, contended
		reqs[0*2+1] = SwitchRequest{Active: true, OutPort: 1, Spec: true} // spec, uncontended output
		reqs[2*2+0] = SwitchRequest{Active: true, OutPort: 0}             // nonspec, contended
		return a, reqs
	}

	// Under spec_req, port 0's speculative VC must never be granted while
	// its nonspec VC has a pending request.
	a, reqs := mk(SpecReq)
	for trial := 0; trial < 10; trial++ {
		grants := a.Allocate(reqs)
		if grants[0].Spec {
			t.Fatalf("spec_req: speculative grant despite nonspec request at same port: %+v", grants[0])
		}
	}

	// Under spec_gnt, in the cycle where port 0's nonspec request loses
	// output 0 to port 2, the speculative VC at port 0 may win output 1.
	a, reqs = mk(SpecGnt)
	sawSpecWin := false
	for trial := 0; trial < 10; trial++ {
		grants := a.Allocate(reqs)
		if grants[0].Spec && grants[0].OutPort == 1 {
			sawSpecWin = true
		}
	}
	if !sawSpecWin {
		t.Fatal("spec_gnt: expected speculative grant in cycles where the nonspec request loses")
	}
}

func TestSpecGntGrantsAtLeastAsManyAsSpecReq(t *testing.T) {
	// Aggregate: conventional speculation recovers more opportunities than
	// the pessimistic scheme under load (paper §5.3.3).
	p, v := 5, 4
	mkReqs := func(rng *xrand.Source) []SwitchRequest {
		return randomSwitchRequests(rng, p, v, 0.6, 0.4)
	}
	count := func(mode SpecMode) int {
		a := NewSwitchAllocator(SwitchAllocConfig{Ports: p, VCs: v, Arch: alloc.SepIF,
			ArbKind: arbiter.RoundRobin, SpecMode: mode})
		rng := xrand.New(97)
		total := 0
		for trial := 0; trial < 2000; trial++ {
			for _, g := range a.Allocate(mkReqs(rng)) {
				if g.OutPort >= 0 {
					total++
				}
			}
		}
		return total
	}
	gnt, req := count(SpecGnt), count(SpecReq)
	if gnt <= req {
		t.Fatalf("spec_gnt total grants (%d) should exceed spec_req (%d) under load", gnt, req)
	}
}

func TestSwitchSepIFFlattensOut(t *testing.T) {
	// Paper §5.3.2: sep_if propagates only one request per input port, so
	// under saturation it grants fewer than wf.
	p, v := 5, 4
	count := func(arch alloc.Arch) int {
		a := NewSwitchAllocator(SwitchAllocConfig{Ports: p, VCs: v, Arch: arch,
			ArbKind: arbiter.RoundRobin, SpecMode: SpecNone})
		rng := xrand.New(89)
		total := 0
		for trial := 0; trial < 2000; trial++ {
			reqs := randomSwitchRequests(rng, p, v, 0.9, 0)
			for _, g := range a.Allocate(reqs) {
				if g.OutPort >= 0 {
					total++
				}
			}
		}
		return total
	}
	sif, wf := count(alloc.SepIF), count(alloc.Wavefront)
	if wf <= sif {
		t.Fatalf("wavefront (%d) should out-grant sep_if (%d) at saturation", wf, sif)
	}
}

func TestSwitchAllocatorFairness(t *testing.T) {
	// Two ports contending for one output alternate under separable
	// allocation; wavefront guarantees only absence of starvation.
	for _, cfg := range swConfigs(3, 2, SpecNone) {
		a := NewSwitchAllocator(cfg)
		reqs := make([]SwitchRequest, 6)
		reqs[0*2+0] = SwitchRequest{Active: true, OutPort: 2}
		reqs[1*2+1] = SwitchRequest{Active: true, OutPort: 2}
		counts := [2]int{}
		for k := 0; k < 100; k++ {
			grants := a.Allocate(reqs)
			for p := 0; p < 2; p++ {
				if grants[p].OutPort == 2 {
					counts[p]++
				}
			}
		}
		if counts[0]+counts[1] != 100 {
			t.Fatalf("%s: want one grant per cycle, got %v", a.Name(), counts)
		}
		min := 40
		if cfg.Arch == alloc.Wavefront {
			min = 10
		}
		if counts[0] < min || counts[1] < min {
			t.Errorf("%s: unfair distribution %v", a.Name(), counts)
		}
	}
}

func TestSwitchVCLevelFairnessWithinPort(t *testing.T) {
	// VCs within a port competing for the same output must share grants.
	for _, cfg := range swConfigs(2, 4, SpecNone) {
		a := NewSwitchAllocator(cfg)
		reqs := make([]SwitchRequest, 8)
		for vc := 0; vc < 4; vc++ {
			reqs[vc] = SwitchRequest{Active: true, OutPort: 1}
		}
		counts := make([]int, 4)
		for k := 0; k < 400; k++ {
			g := a.Allocate(reqs)[0]
			if g.VC < 0 {
				t.Fatalf("%s: no grant", a.Name())
			}
			counts[g.VC]++
		}
		for vc, c := range counts {
			if c != 100 {
				t.Errorf("%s: VC %d granted %d/400, want 100", a.Name(), vc, c)
			}
		}
	}
}

func TestSwitchAllocatorReset(t *testing.T) {
	for _, mode := range []SpecMode{SpecNone, SpecReq} {
		for _, cfg := range swConfigs(4, 2, mode) {
			a := NewSwitchAllocator(cfg)
			rng := xrand.New(83)
			specFrac := 0.3
			if mode == SpecNone {
				specFrac = 0
			}
			reqs := randomSwitchRequests(rng, 4, 2, 0.8, specFrac)
			first := append([]SwitchGrant(nil), a.Allocate(reqs)...)
			a.Allocate(reqs)
			a.Reset()
			again := a.Allocate(reqs)
			for i := range first {
				if first[i] != again[i] {
					t.Fatalf("%s: Reset did not restore initial decisions", a.Name())
				}
			}
		}
	}
}

func TestCheckSwitchGrantsDetectsViolations(t *testing.T) {
	reqs := make([]SwitchRequest, 4) // 2 ports, 2 VCs
	reqs[0] = SwitchRequest{Active: true, OutPort: 1}
	reqs[2] = SwitchRequest{Active: true, OutPort: 1}

	if CheckSwitchGrants(2, 2, reqs, []SwitchGrant{{VC: -1, OutPort: -1}}) == nil {
		t.Error("wrong grant count not detected")
	}
	bad := []SwitchGrant{{VC: 0, OutPort: 1}, {VC: 0, OutPort: 1}}
	if CheckSwitchGrants(2, 2, reqs, bad) == nil {
		t.Error("duplicate output not detected")
	}
	bad = []SwitchGrant{{VC: 1, OutPort: 1}, {VC: -1, OutPort: -1}}
	if CheckSwitchGrants(2, 2, reqs, bad) == nil {
		t.Error("grant without request not detected")
	}
	bad = []SwitchGrant{{VC: 0, OutPort: 0}, {VC: -1, OutPort: -1}}
	if CheckSwitchGrants(2, 2, reqs, bad) == nil {
		t.Error("wrong output port not detected")
	}
	bad = []SwitchGrant{{VC: 0, OutPort: 1, Spec: true}, {VC: -1, OutPort: -1}}
	if CheckSwitchGrants(2, 2, reqs, bad) == nil {
		t.Error("spec flag mismatch not detected")
	}
	bad = []SwitchGrant{{VC: 2, OutPort: 1}, {VC: -1, OutPort: -1}}
	if CheckSwitchGrants(2, 2, reqs, bad) == nil {
		t.Error("invalid VC not detected")
	}
	bad = []SwitchGrant{{VC: 0, OutPort: -1}, {VC: -1, OutPort: -1}}
	if CheckSwitchGrants(2, 2, reqs, bad) == nil {
		t.Error("VC without output not detected")
	}
	good := []SwitchGrant{{VC: 0, OutPort: 1}, {VC: -1, OutPort: -1}}
	if err := CheckSwitchGrants(2, 2, reqs, good); err != nil {
		t.Errorf("valid grants rejected: %v", err)
	}
}

func BenchmarkSwitchMeshSepIFNonspec(b *testing.B) {
	benchSwitch(b, 5, 8, alloc.SepIF, SpecNone)
}
func BenchmarkSwitchFbflyWavefrontSpecReq(b *testing.B) {
	benchSwitch(b, 10, 16, alloc.Wavefront, SpecReq)
}

func benchSwitch(b *testing.B, p, v int, arch alloc.Arch, mode SpecMode) {
	a := NewSwitchAllocator(SwitchAllocConfig{Ports: p, VCs: v, Arch: arch,
		ArbKind: arbiter.RoundRobin, SpecMode: mode})
	rng := xrand.New(1)
	specFrac := 0.3
	if mode == SpecNone {
		specFrac = 0
	}
	reqs := randomSwitchRequests(rng, p, v, 0.5, specFrac)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Allocate(reqs)
	}
}

// BenchmarkAblationSpeculationModes measures the switch allocator's cycle
// cost per speculation scheme.
func BenchmarkAblationSpeculationModes(b *testing.B) {
	for _, mode := range []SpecMode{SpecNone, SpecReq, SpecGnt} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			a := NewSwitchAllocator(SwitchAllocConfig{
				Ports: 10, VCs: 16, Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin, SpecMode: mode,
			})
			reqs := make([]SwitchRequest, 160)
			rng := xrand.New(5)
			for i := range reqs {
				if rng.Bool(0.4) {
					reqs[i] = SwitchRequest{Active: true, OutPort: rng.Intn(10), Spec: rng.Bool(0.3) && mode != SpecNone}
				}
			}
			for i := 0; i < b.N; i++ {
				a.Allocate(reqs)
			}
		})
	}
}

func TestSwitchAllocStats(t *testing.T) {
	a := NewSwitchAllocator(SwitchAllocConfig{Ports: 4, VCs: 2, Arch: alloc.SepIF,
		ArbKind: arbiter.RoundRobin, SpecMode: SpecReq})
	// Lone speculative request: proposed and granted, nothing masked.
	reqs := make([]SwitchRequest, 8)
	reqs[0] = SwitchRequest{Active: true, OutPort: 1, Spec: true}
	a.Allocate(reqs)
	s := a.Stats()
	if s.SpecProposals != 1 || s.SpecGranted != 1 || s.SpecMasked != 0 {
		t.Fatalf("lone spec request stats %+v", s)
	}
	// Conflicting nonspec request masks the speculative proposal.
	reqs[1*2+0] = SwitchRequest{Active: true, OutPort: 1}
	a.Allocate(reqs)
	s = a.Stats()
	if s.SpecProposals != 2 || s.SpecMasked != 1 {
		t.Fatalf("masked spec request stats %+v", s)
	}
	a.Reset()
	if a.Stats() != (SwitchAllocStats{}) {
		t.Fatal("Reset must clear stats")
	}
}

func TestPessimisticMasksMoreThanConventional(t *testing.T) {
	// §5.3.3: near saturation the pessimistic variant discards a larger
	// fraction of speculation opportunities than the conventional one.
	masked := func(mode SpecMode) int64 {
		a := NewSwitchAllocator(SwitchAllocConfig{Ports: 5, VCs: 4, Arch: alloc.SepIF,
			ArbKind: arbiter.RoundRobin, SpecMode: mode})
		rng := xrand.New(301)
		for trial := 0; trial < 2000; trial++ {
			a.Allocate(randomSwitchRequests(rng, 5, 4, 0.7, 0.4))
		}
		return a.Stats().SpecMasked
	}
	pessimistic, conventional := masked(SpecReq), masked(SpecGnt)
	if pessimistic <= conventional {
		t.Fatalf("spec_req masked %d, should exceed spec_gnt's %d under load",
			pessimistic, conventional)
	}
}

func TestNonspecAllocatorHasNoSpecStats(t *testing.T) {
	a := NewSwitchAllocator(SwitchAllocConfig{Ports: 4, VCs: 2, Arch: alloc.SepIF,
		ArbKind: arbiter.RoundRobin, SpecMode: SpecNone})
	rng := xrand.New(1)
	for trial := 0; trial < 100; trial++ {
		a.Allocate(randomSwitchRequests(rng, 4, 2, 0.5, 0))
	}
	if a.Stats() != (SwitchAllocStats{}) {
		t.Fatalf("nonspec allocator recorded spec stats: %+v", a.Stats())
	}
}

// TestSwitchAllocateAndPushInterleave pins the two entry points against
// each other: one allocator is driven through a random interleaving of
// Allocate (which rebuilds the cached request state from the slice) and
// Push+Run (which patches it entry by entry as the caller rewrites them), its
// twin through Allocate only, on the same request stream — a reused backing
// array with a random subset of entries rewritten each cycle, as the router's
// request cache does. Grants and speculation counters must agree every
// cycle, for every architecture, arbiter kind and speculation mode.
func TestSwitchAllocateAndPushInterleave(t *testing.T) {
	const p, v, cycles = 5, 4, 600
	for _, mode := range []SpecMode{SpecNone, SpecGnt, SpecReq} {
		for _, cfg := range swConfigs(p, v, mode) {
			mixed := NewSwitchAllocator(cfg)
			dense := NewSwitchAllocator(cfg)
			rng := xrand.New(42)
			reqs := make([]SwitchRequest, p*v)
			pushed := 0
			for c := 0; c < cycles; c++ {
				churn := []float64{0.05, 0.5, 1}[rng.Intn(3)]
				push := rng.Bool(0.5)
				for i := range reqs {
					if !rng.Bool(churn) {
						continue
					}
					// Rewritten entries may or may not actually differ.
					old := reqs[i]
					if rng.Bool(0.6) {
						reqs[i] = SwitchRequest{Active: true, OutPort: rng.Intn(p), Spec: rng.Bool(0.4)}
					} else if rng.Bool(0.7) {
						reqs[i] = SwitchRequest{OutPort: rng.Intn(p)} // inactive, stale port
					}
					if push {
						mixed.Push(i/v, i%v, old, reqs[i])
					}
				}
				want := dense.Allocate(reqs)
				var got []SwitchGrant
				if push {
					got = mixed.Run(reqs)
					pushed++
				} else {
					got = mixed.Allocate(reqs)
				}
				for port := range want {
					if got[port] != want[port] {
						t.Fatalf("%s cycle %d port %d: interleaved grant %+v, dense-only %+v",
							dense.Name(), c, port, got[port], want[port])
					}
				}
				if mixed.Stats() != dense.Stats() {
					t.Fatalf("%s cycle %d: stats %+v vs %+v", dense.Name(), c, mixed.Stats(), dense.Stats())
				}
			}
			if pushed == 0 || pushed == cycles {
				t.Fatalf("%s: %d of %d cycles pushed; no interleaving", dense.Name(), pushed, cycles)
			}
		}
	}
}
