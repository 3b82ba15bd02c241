package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/bitvec"
	"repro/internal/xrand"
)

func vcConfigs(p int, spec VCSpec) []VCAllocConfig {
	var cfgs []VCAllocConfig
	for _, arch := range []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront} {
		for _, sparse := range []bool{false, true} {
			cfg := VCAllocConfig{Ports: p, Spec: spec, Arch: arch, ArbKind: arbiter.RoundRobin, Sparse: sparse}
			cfgs = append(cfgs, cfg)
			if arch != alloc.Wavefront {
				cfgM := cfg
				cfgM.ArbKind = arbiter.Matrix
				cfgs = append(cfgs, cfgM)
			}
		}
	}
	return cfgs
}

// randomVCRequests generates a legal request set: each input VC is active
// with probability rate, targets a random output port, and requests a
// random legal class at that port (all VCs in the class, per §4.2's "select
// the class as a whole"), optionally thinned by availability.
func randomVCRequests(rng *xrand.Source, p int, spec VCSpec, rate float64) []VCRequest {
	v := spec.V()
	reqs := make([]VCRequest, p*v)
	for port := 0; port < p; port++ {
		for vc := 0; vc < v; vc++ {
			if !rng.Bool(rate) {
				continue
			}
			m, r, _ := spec.Decompose(vc)
			lo, hi := spec.SuccessorClasses(r)
			nr := lo + rng.Intn(hi-lo)
			reqs[port*v+vc] = VCRequest{
				Active:     true,
				OutPort:    rng.Intn(p),
				Candidates: spec.ClassMask(m, nr),
			}
		}
	}
	return reqs
}

func TestVCAllocatorNames(t *testing.T) {
	spec := NewVCSpec(2, 1, 2)
	want := map[string]bool{
		"sep_if/rr": true, "sep_if/m": true, "sep_of/rr": true, "sep_of/m": true,
		"wf/rr": true, "sep_if/rr (sparse)": true, "sep_if/m (sparse)": true,
		"sep_of/rr (sparse)": true, "sep_of/m (sparse)": true, "wf/rr (sparse)": true,
	}
	for _, cfg := range vcConfigs(5, spec) {
		a := NewVCAllocator(cfg)
		if !want[a.Name()] {
			t.Errorf("unexpected name %q", a.Name())
		}
		// The dimensions are P·V = 5·4 request entries, no more, no fewer.
		a.Allocate(make([]VCRequest, 5*4))
		mustPanicNaming(t, a.Name(), "want 20", func() { a.Allocate(make([]VCRequest, 5*4+1)) })
	}
}

func TestVCAllocatorBadConfigPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewVCAllocator(VCAllocConfig{Ports: 0, Spec: NewVCSpec(1, 1, 1)}) },
		func() { NewVCAllocator(VCAllocConfig{Ports: 2, Spec: VCSpec{}}) },
		func() {
			NewVCAllocator(VCAllocConfig{Ports: 2, Spec: NewVCSpec(1, 1, 1), Arch: alloc.Maximum})
		},
		func() {
			a := NewVCAllocator(VCAllocConfig{Ports: 2, Spec: NewVCSpec(1, 1, 1), Arch: alloc.SepIF})
			a.Allocate(make([]VCRequest, 3))
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

func TestVCAllocatorEmpty(t *testing.T) {
	spec := NewVCSpec(2, 1, 2)
	for _, cfg := range vcConfigs(5, spec) {
		a := NewVCAllocator(cfg)
		grants := a.Allocate(make([]VCRequest, 5*spec.V()))
		for i, g := range grants {
			if g != -1 {
				t.Fatalf("%s: grant %d for inactive input %d", a.Name(), g, i)
			}
		}
	}
}

func TestVCAllocatorSingleRequest(t *testing.T) {
	spec := NewVCSpec(2, 1, 2)
	v := spec.V()
	for _, cfg := range vcConfigs(5, spec) {
		a := NewVCAllocator(cfg)
		reqs := make([]VCRequest, 5*v)
		// Input VC (port 2, vc 1: message class 0) requests port 4, class (0,0).
		reqs[2*v+1] = VCRequest{Active: true, OutPort: 4, Candidates: spec.ClassMask(0, 0)}
		grants := a.Allocate(reqs)
		g := grants[2*v+1]
		if g < 0 {
			t.Fatalf("%s: sole request not granted", a.Name())
		}
		if g/v != 4 {
			t.Fatalf("%s: granted port %d, want 4", a.Name(), g/v)
		}
		if !spec.ClassMask(0, 0).Get(g % v) {
			t.Fatalf("%s: granted VC %d outside requested class", a.Name(), g%v)
		}
		if err := CheckVCGrants(5, spec, reqs, grants); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
	}
}

func TestVCAllocatorValidityRandom(t *testing.T) {
	for _, spec := range []VCSpec{NewVCSpec(2, 1, 2), NewVCSpec(2, 2, 2)} {
		for _, cfg := range vcConfigs(5, spec) {
			a := NewVCAllocator(cfg)
			rng := xrand.New(41)
			for trial := 0; trial < 200; trial++ {
				reqs := randomVCRequests(rng, 5, spec, 0.4)
				grants := a.Allocate(reqs)
				if err := CheckVCGrants(5, spec, reqs, grants); err != nil {
					t.Fatalf("%s %s trial %d: %v", a.Name(), spec, trial, err)
				}
			}
		}
	}
}

func TestVCAllocatorGrantsRespectTransitions(t *testing.T) {
	// When requests are built from successor masks, grants stay legal.
	spec := NewVCSpec(2, 2, 2)
	v := spec.V()
	for _, cfg := range vcConfigs(4, spec) {
		a := NewVCAllocator(cfg)
		rng := xrand.New(43)
		for trial := 0; trial < 100; trial++ {
			reqs := make([]VCRequest, 4*v)
			for port := 0; port < 4; port++ {
				for vc := 0; vc < v; vc++ {
					if rng.Bool(0.5) {
						reqs[port*v+vc] = VCRequest{
							Active:     true,
							OutPort:    rng.Intn(4),
							Candidates: spec.SuccessorMask(vc),
						}
					}
				}
			}
			grants := a.Allocate(reqs)
			for gi, g := range grants {
				if g < 0 {
					continue
				}
				if !spec.LegalTransition(gi%v, g%v) {
					t.Fatalf("%s: illegal transition %d -> %d granted", a.Name(), gi%v, g%v)
				}
			}
		}
	}
}

func TestVCWavefrontMaximumQuality(t *testing.T) {
	// Paper §4.3.2: the wavefront VC allocator always achieves matching
	// quality 1 — it grants as many requests per class conflict as VCs
	// are available.
	spec := NewVCSpec(2, 1, 2)
	v := spec.V()
	p := 5
	wf := NewVCAllocator(VCAllocConfig{Ports: p, Spec: spec, Arch: alloc.Wavefront})
	rng := xrand.New(47)
	for trial := 0; trial < 300; trial++ {
		reqs := randomVCRequests(rng, p, spec, 0.6)
		grants := wf.Allocate(reqs)
		got := 0
		for _, g := range grants {
			if g >= 0 {
				got++
			}
		}
		// Build the equivalent bipartite request matrix and compare to the
		// maximum matching.
		req := bitvec.NewMatrix(p*v, p*v)
		for gi, r := range reqs {
			if !r.Active {
				continue
			}
			r.Candidates.ForEach(func(c int) {
				req.Set(gi, r.OutPort*v+c)
			})
		}
		want := alloc.MatchSize(req)
		if got != want {
			t.Fatalf("trial %d: wavefront granted %d, maximum %d", trial, got, want)
		}
	}
}

func TestVCSingleVCPerClassAllMaximum(t *testing.T) {
	// Paper §4.3.2 / Fig. 7(a),(d): with one VC per class every
	// architecture produces maximum matchings.
	spec := NewVCSpec(2, 1, 1)
	v := spec.V()
	p := 5
	rng := xrand.New(53)
	for _, cfg := range vcConfigs(p, spec) {
		a := NewVCAllocator(cfg)
		for trial := 0; trial < 200; trial++ {
			reqs := randomVCRequests(rng, p, spec, 0.7)
			grants := a.Allocate(reqs)
			got := 0
			for _, g := range grants {
				if g >= 0 {
					got++
				}
			}
			req := bitvec.NewMatrix(p*v, p*v)
			for gi, r := range reqs {
				if !r.Active {
					continue
				}
				r.Candidates.ForEach(func(c int) { req.Set(gi, r.OutPort*v+c) })
			}
			if want := alloc.MatchSize(req); got != want {
				t.Fatalf("%s trial %d: granted %d, maximum %d", a.Name(), trial, got, want)
			}
		}
	}
}

func TestVCSparseMatchesDenseGrantCountsWavefront(t *testing.T) {
	// For the wavefront architecture, sparse and dense allocators are both
	// maximal per message class, so their grant counts agree on every
	// legal request set.
	spec := NewVCSpec(2, 2, 2)
	p := 4
	dense := NewVCAllocator(VCAllocConfig{Ports: p, Spec: spec, Arch: alloc.Wavefront})
	sparse := NewVCAllocator(VCAllocConfig{Ports: p, Spec: spec, Arch: alloc.Wavefront, Sparse: true})
	rng := xrand.New(59)
	for trial := 0; trial < 300; trial++ {
		reqs := randomVCRequests(rng, p, spec, 0.5)
		gd, gs := 0, 0
		for _, g := range dense.Allocate(reqs) {
			if g >= 0 {
				gd++
			}
		}
		for _, g := range sparse.Allocate(reqs) {
			if g >= 0 {
				gs++
			}
		}
		if gd != gs {
			t.Fatalf("trial %d: dense %d grants, sparse %d", trial, gd, gs)
		}
	}
}

func TestVCSeparableLockoutExists(t *testing.T) {
	// Paper §4.3.2: separable allocators can leave output VCs unused in
	// the presence of conflicts. Craft the canonical lockout: two input
	// VCs at different ports request the same 2-VC class; with sep_if both
	// may pick the same output VC. Verify that over many random trials
	// sep_if grants strictly fewer total than wavefront at high load.
	spec := NewVCSpec(1, 1, 4)
	p := 5
	sif := NewVCAllocator(VCAllocConfig{Ports: p, Spec: spec, Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin})
	wf := NewVCAllocator(VCAllocConfig{Ports: p, Spec: spec, Arch: alloc.Wavefront})
	rng := xrand.New(61)
	totSif, totWf := 0, 0
	for trial := 0; trial < 2000; trial++ {
		reqs := randomVCRequests(rng, p, spec, 0.9)
		for _, g := range sif.Allocate(reqs) {
			if g >= 0 {
				totSif++
			}
		}
		for _, g := range wf.Allocate(reqs) {
			if g >= 0 {
				totWf++
			}
		}
	}
	if totSif >= totWf {
		t.Fatalf("sep_if (%d) should grant fewer than wavefront (%d) under load", totSif, totWf)
	}
}

func TestVCInputFirstBeatsOutputFirst(t *testing.T) {
	// Paper §4.3.2: "Input-first allocation provides slightly better
	// matching here". Check the aggregate ordering at high load.
	spec := NewVCSpec(2, 1, 4)
	p := 5
	sif := NewVCAllocator(VCAllocConfig{Ports: p, Spec: spec, Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin})
	sof := NewVCAllocator(VCAllocConfig{Ports: p, Spec: spec, Arch: alloc.SepOF, ArbKind: arbiter.RoundRobin})
	rng := xrand.New(67)
	totIF, totOF := 0, 0
	for trial := 0; trial < 4000; trial++ {
		reqs := randomVCRequests(rng, p, spec, 0.9)
		for _, g := range sif.Allocate(reqs) {
			if g >= 0 {
				totIF++
			}
		}
		for _, g := range sof.Allocate(reqs) {
			if g >= 0 {
				totOF++
			}
		}
	}
	if totIF <= totOF {
		t.Fatalf("sep_if (%d) should outperform sep_of (%d) for VC allocation", totIF, totOF)
	}
}

func TestVCAllocatorFairness(t *testing.T) {
	// Two input VCs at different ports persistently contending for a
	// single-VC class must alternate grants.
	spec := NewVCSpec(1, 1, 1)
	p := 3
	for _, arch := range []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront} {
		a := NewVCAllocator(VCAllocConfig{Ports: p, Spec: spec, Arch: arch, ArbKind: arbiter.RoundRobin})
		reqs := make([]VCRequest, p)
		reqs[0] = VCRequest{Active: true, OutPort: 2, Candidates: spec.ClassMask(0, 0)}
		reqs[1] = VCRequest{Active: true, OutPort: 2, Candidates: spec.ClassMask(0, 0)}
		counts := [2]int{}
		for k := 0; k < 100; k++ {
			grants := a.Allocate(reqs)
			for i := 0; i < 2; i++ {
				if grants[i] >= 0 {
					counts[i]++
				}
			}
		}
		if counts[0]+counts[1] != 100 {
			t.Fatalf("%s: every cycle should produce exactly one grant, got %v", a.Name(), counts)
		}
		// Separable allocators with iSLIP-style updates alternate exactly;
		// the wavefront allocator only guarantees weak fairness via its
		// rotating diagonal (§2.2), so require only absence of starvation.
		minShare := 40
		if arch == alloc.Wavefront {
			minShare = 20
		}
		if counts[0] < minShare || counts[1] < minShare {
			t.Errorf("%s: unfair grant distribution %v", a.Name(), counts)
		}
	}
}

func TestVCAllocatorReset(t *testing.T) {
	spec := NewVCSpec(2, 1, 2)
	p := 4
	for _, cfg := range vcConfigs(p, spec) {
		a := NewVCAllocator(cfg)
		rng := xrand.New(71)
		reqs := randomVCRequests(rng, p, spec, 0.8)
		first := append([]int(nil), a.Allocate(reqs)...)
		a.Allocate(reqs)
		a.Reset()
		again := a.Allocate(reqs)
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("%s: Reset did not restore initial decisions (idx %d: %d vs %d)",
					a.Name(), i, first[i], again[i])
			}
		}
	}
}

func TestCheckVCGrantsDetectsViolations(t *testing.T) {
	spec := NewVCSpec(1, 1, 2)
	v := spec.V()
	p := 2
	reqs := make([]VCRequest, p*v)
	reqs[0] = VCRequest{Active: true, OutPort: 1, Candidates: spec.ClassMask(0, 0)}
	reqs[1] = VCRequest{Active: true, OutPort: 1, Candidates: spec.ClassMask(0, 0)}

	grants := make([]int, p*v)
	for i := range grants {
		grants[i] = -1
	}
	// Grant to inactive input.
	grants[2] = 1 * v
	if CheckVCGrants(p, spec, reqs, grants) == nil {
		t.Error("grant to inactive input not detected")
	}
	grants[2] = -1
	// Wrong port.
	grants[0] = 0*v + 0
	if CheckVCGrants(p, spec, reqs, grants) == nil {
		t.Error("wrong-port grant not detected")
	}
	// Duplicate output VC.
	grants[0] = 1*v + 0
	grants[1] = 1*v + 0
	if CheckVCGrants(p, spec, reqs, grants) == nil {
		t.Error("duplicate output VC not detected")
	}
	// Valid assignment passes.
	grants[1] = 1*v + 1
	if err := CheckVCGrants(p, spec, reqs, grants); err != nil {
		t.Errorf("valid grants rejected: %v", err)
	}
}

func TestVCMask(t *testing.T) {
	m := VCMask(1<<0 | 1<<5 | 1<<63)
	for c, want := range map[int]bool{0: true, 1: false, 5: true, 62: false, 63: true, 64: false, -1: false} {
		if m.Get(c) != want {
			t.Errorf("Get(%d) = %v, want %v", c, m.Get(c), want)
		}
	}
	if m.Count() != 3 || VCMask(0).Count() != 0 || (^VCMask(0)).Count() != 64 {
		t.Errorf("Count = %d / %d / %d, want 3 / 0 / 64", m.Count(), VCMask(0).Count(), (^VCMask(0)).Count())
	}
	var seen []int
	m.ForEach(func(c int) { seen = append(seen, c) })
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 5 || seen[2] != 63 {
		t.Errorf("ForEach visited %v, want [0 5 63]", seen)
	}
	VCMask(0).ForEach(func(int) { t.Error("ForEach on the empty set called fn") })
}

// mustPanicNaming runs fn and requires a panic whose message contains want.
func mustPanicNaming(t *testing.T, name, want string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Errorf("%s: panic %v, want one naming %q", name, r, want)
		}
	}()
	fn()
}

// TestVCWordLimit: a VC set is one machine word, so a router has at most 64
// VCs per port (and the separable engines' port sets at most 64 ports).
// Building a mask or an allocator beyond that panics naming the limit; the
// spec itself stays valid, the cost models take any size.
func TestVCWordLimit(t *testing.T) {
	big := NewVCSpec(1, 1, 65)
	if err := big.Validate(); err != nil {
		t.Fatalf("Validate rejects a 65-VC spec: %v", err)
	}
	if big.MaxSuccessorsPerVC() != 65 {
		t.Errorf("MaxSuccessorsPerVC = %d on 1x1x65, want 65", big.MaxSuccessorsPerVC())
	}
	mustPanicNaming(t, "ClassMask", "at most 64", func() { big.ClassMask(0, 0) })
	mustPanicNaming(t, "SuccessorMask", "at most 64", func() { big.SuccessorMask(3) })
	for _, arch := range []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront} {
		mustPanicNaming(t, "65 VCs "+arch.String(), "at most 64", func() {
			NewVCAllocator(VCAllocConfig{Ports: 2, Spec: big, Arch: arch})
		})
		mustPanicNaming(t, "65 ports "+arch.String(), "at most 64", func() {
			NewVCAllocator(VCAllocConfig{Ports: 65, Spec: NewVCSpec(1, 1, 1), Arch: arch})
		})
	}
	mustPanicNaming(t, "NewAllocators", "at most 64", func() {
		NewAllocators(VCAllocConfig{Ports: 2, Spec: big}, SwitchAllocConfig{Ports: 2, VCs: 65})
	})
	if full := NewVCSpec(1, 1, 64).ClassMask(0, 0); full != ^VCMask(0) {
		t.Errorf("ClassMask of 1x1x64 = %#x, want every bit", uint64(full))
	}
}

// TestVCAllocatorWordBoundary runs the three architectures at V = 64, where
// VC 63 is the top bit of every word and a round-robin pointer reaches 63.
func TestVCAllocatorWordBoundary(t *testing.T) {
	spec := NewVCSpec(1, 1, 64)
	const p, v = 2, 64
	for _, cfg := range vcConfigs(p, spec) {
		a := NewVCAllocator(cfg)
		ref := newRefVC(cfg)
		// Input VC (0, 63) alone, asking for output VCs 62 and 63 of port 1:
		// the separable input arbiter alternates 62, 63, 62 (its pointer
		// passes through 63 and wraps); the wavefront's rotating diagonal
		// reaches both.
		reqs := make([]VCRequest, p*v)
		reqs[63] = VCRequest{Active: true, OutPort: 1, Candidates: 1<<62 | 1<<63}
		got := map[int]int{}
		for cycle := 0; cycle < 2*v; cycle++ {
			grants := a.Allocate(reqs)
			if err := CheckVCGrants(p, spec, reqs, grants); err != nil {
				t.Fatalf("%s cycle %d: %v", a.Name(), cycle, err)
			}
			if want := ref.Allocate(reqs); grants[63] != want[63] || grants[63] < 0 {
				t.Fatalf("%s cycle %d: granted %d, reference %d", a.Name(), cycle, grants[63], want[63])
			}
			if cfg.Arch != alloc.Wavefront && grants[63] != v+62+cycle%2 {
				t.Fatalf("%s cycle %d: granted output VC %d, want %d", a.Name(), cycle, grants[63]-v, 62+cycle%2)
			}
			got[grants[63]]++
		}
		if got[v+62] == 0 || got[v+63] == 0 {
			t.Errorf("%s: grants %v never reached both VC 62 and VC 63", a.Name(), got)
		}
		// Every input VC after every output VC of port 1: the wavefront hands
		// out all 64, and the engine keeps to the reference while the
		// priorities rotate.
		for i := range reqs {
			reqs[i] = VCRequest{Active: true, OutPort: 1, Candidates: ^VCMask(0)}
		}
		for cycle := 0; cycle < 8; cycle++ {
			grants, want := a.Allocate(reqs), ref.Allocate(reqs)
			n := 0
			for i, g := range grants {
				if g != want[i] {
					t.Fatalf("%s full cycle %d input VC %d: granted %d, reference %d", a.Name(), cycle, i, g, want[i])
				}
				if g >= 0 {
					n++
				}
			}
			if err := CheckVCGrants(p, spec, reqs, grants); err != nil {
				t.Fatalf("%s full cycle %d: %v", a.Name(), cycle, err)
			}
			if cfg.Arch == alloc.Wavefront && n != v {
				t.Errorf("%s full cycle %d: %d grants, want %d", a.Name(), cycle, n, v)
			}
		}
	}
}

// TestVCAllocatorLayout pins what the VC allocator adds to NewAllocators:
// nothing. Every architecture, the wavefront's diagonal sweep included, of
// either arbiter kind, dense or sparse, lives entirely on the shared slabs
// (the ten blocks of TestSwitchAllocatorLayout).
func TestVCAllocatorLayout(t *testing.T) {
	runtime.GC() // see TestSwitchAllocatorLayout
	for _, size := range []struct {
		p    int
		spec VCSpec
	}{{5, NewVCSpec(2, 1, 1)}, {10, NewVCSpec(2, 2, 4)}} {
		sa := SwitchAllocConfig{Ports: size.p, VCs: size.spec.V(), Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin}
		for _, va := range vcConfigs(size.p, size.spec) {
			sa.ArbKind = va.ArbKind // a second arbiter kind is an eleventh block
			if got := testing.AllocsPerRun(5, func() { NewAllocators(va, sa) }); got > 10 {
				t.Errorf("%s, %d ports × %s: %v allocations, want 10", NewVCAllocator(va).Name(), size.p, size.spec, got)
			}
		}
	}
}

// TestVCBadOutPortPanics: an issuable request naming an output port outside
// [0, P) is a caller bug that every architecture refuses instead of filing it
// under another port's VCs. The separable engines index by port and trip
// over it; the wavefront's diagonal classes wrap, so its sweep checks the
// cells it is handed (Wave.Request).
func TestVCBadOutPortPanics(t *testing.T) {
	const p = 3
	spec := NewVCSpec(2, 1, 2)
	for _, cfg := range vcConfigs(p, spec) {
		for _, port := range []int{-1, p} {
			reqs := make([]VCRequest, p*spec.V())
			reqs[spec.V()+1] = VCRequest{Active: true, OutPort: port, Candidates: spec.ClassMask(0, 0)}
			a := NewVCAllocator(cfg)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: a request for output port %d did not panic", a.Name(), port)
					}
				}()
				a.Allocate(reqs)
			}()
		}
	}
}

// TestVCAllocateAndPushInterleave is TestSwitchAllocateAndPushInterleave for
// the VC allocators: one allocator is driven through
// a random interleaving of Allocate and Push+Run, its twin through Allocate
// only, on one reused request slice with a random subset of entries rewritten
// each cycle. Grants must agree every cycle, and Run's granted words must name
// exactly the input VCs that hold a grant.
func TestVCAllocateAndPushInterleave(t *testing.T) {
	const p, cycles = 5, 600
	spec := NewVCSpec(2, 2, 2)
	v := spec.V()
	for _, cfg := range vcConfigs(p, spec) {
		mixed, dense := NewVCAllocator(cfg), NewVCAllocator(cfg)
		rng := xrand.New(42)
		reqs := make([]VCRequest, p*v)
		pushed := 0
		for c := 0; c < cycles; c++ {
			churn := []float64{0.05, 0.5, 1}[rng.Intn(3)]
			push := rng.Bool(0.5)
			for i := range reqs {
				if !rng.Bool(churn) {
					continue
				}
				// Rewritten entries may or may not actually differ, and a
				// thinned candidate set may be empty.
				if rng.Bool(0.6) {
					m, rc, _ := spec.Decompose(i % v)
					lo, hi := spec.SuccessorClasses(rc)
					reqs[i] = VCRequest{Active: true, OutPort: rng.Intn(p),
						Candidates: spec.ClassMask(m, lo+rng.Intn(hi-lo)) & VCMask(rng.Uint64())}
				} else if rng.Bool(0.7) {
					reqs[i] = VCRequest{OutPort: rng.Intn(p)} // inactive, stale port
				}
				if push {
					mixed.Push(i/v, i%v, reqs[i].Active && reqs[i].Candidates != 0)
				}
			}
			want := dense.Allocate(reqs)
			var got []int
			if push {
				var granted []uint64
				got, granted = mixed.Run(reqs)
				pushed++
				for i, g := range got {
					if (g >= 0) != (granted[i/v]>>uint(i%v)&1 != 0) {
						t.Fatalf("%s cycle %d: granted words %b disagree with the grant %d to input VC %d", dense.Name(), c, granted, g, i)
					}
				}
			} else {
				got = mixed.Allocate(reqs)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s cycle %d input VC %d: interleaved grant %d, dense-only %d", dense.Name(), c, i, got[i], want[i])
				}
			}
		}
		if pushed == 0 || pushed == cycles {
			t.Fatalf("%s: %d of %d cycles pushed; no interleaving", dense.Name(), pushed, cycles)
		}
	}
}
