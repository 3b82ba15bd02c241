package core

import (
	"testing"
	"testing/quick"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/xrand"
)

// Property-based tests: arbitrary request streams must never produce an
// invalid allocation, for every architecture and scheme combination.

// quickVCRequests decodes a compact byte string into a legal VC request set
// for a P=4, 2x2x2 router.
func quickVCRequests(spec VCSpec, raw []byte) []VCRequest {
	const p = 4
	v := spec.V()
	reqs := make([]VCRequest, p*v)
	for i := range reqs {
		if i >= len(raw) || raw[i]%3 == 0 { // ~2/3 active
			continue
		}
		vc := i % v
		m, r, _ := spec.Decompose(vc)
		lo, hi := spec.SuccessorClasses(r)
		nr := lo + int(raw[i]/3)%(hi-lo)
		reqs[i] = VCRequest{
			Active:     true,
			OutPort:    int(raw[i]) % p,
			Candidates: spec.ClassMask(m, nr),
		}
	}
	return reqs
}

func TestQuickVCAllocatorsAlwaysValid(t *testing.T) {
	spec := NewVCSpec(2, 2, 2)
	allocators := []*VCAllocator{}
	for _, arch := range []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront} {
		for _, sparse := range []bool{false, true} {
			allocators = append(allocators, NewVCAllocator(VCAllocConfig{
				Ports: 4, Spec: spec, Arch: arch, ArbKind: arbiter.Matrix, Sparse: sparse,
			}))
		}
	}
	f := func(raw []byte) bool {
		reqs := quickVCRequests(spec, raw)
		for _, a := range allocators {
			if err := CheckVCGrants(4, spec, reqs, a.Allocate(reqs)); err != nil {
				t.Logf("%s: %v", a.Name(), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSwitchAllocatorsAlwaysValid(t *testing.T) {
	const p, v = 4, 4
	allocators := []*SwitchAllocator{}
	for _, arch := range []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront} {
		for _, mode := range []SpecMode{SpecNone, SpecGnt, SpecReq} {
			allocators = append(allocators, NewSwitchAllocator(SwitchAllocConfig{
				Ports: p, VCs: v, Arch: arch, ArbKind: arbiter.RoundRobin, SpecMode: mode,
			}))
		}
	}
	f := func(raw []byte) bool {
		reqs := make([]SwitchRequest, p*v)
		for i := range reqs {
			if i >= len(raw) || raw[i]%4 == 0 {
				continue
			}
			reqs[i] = SwitchRequest{
				Active:  true,
				OutPort: int(raw[i]) % p,
				Spec:    raw[i]%4 == 1,
			}
		}
		for _, a := range allocators {
			if err := CheckSwitchGrants(p, v, reqs, a.Allocate(reqs)); err != nil {
				t.Logf("%s: %v", a.Name(), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: grants are work-conserving at the port level for non-spec
// separable input-first allocation — if exactly one input VC in the whole
// router requests, it is granted.
func TestQuickSoleRequesterAlwaysGranted(t *testing.T) {
	const p, v = 5, 4
	archs := []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront}
	f := func(idxRaw, portRaw uint8) bool {
		idx := int(idxRaw) % (p * v)
		outPort := int(portRaw) % p
		reqs := make([]SwitchRequest, p*v)
		reqs[idx] = SwitchRequest{Active: true, OutPort: outPort}
		for _, arch := range archs {
			a := NewSwitchAllocator(SwitchAllocConfig{Ports: p, VCs: v, Arch: arch,
				ArbKind: arbiter.RoundRobin, SpecMode: SpecNone})
			g := a.Allocate(reqs)
			if g[idx/v].OutPort != outPort || g[idx/v].VC != idx%v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: repeated allocation with a fixed request set never starves any
// requester across the separable VC allocators.
func TestQuickVCNoStarvationUnderPersistentRequests(t *testing.T) {
	spec := NewVCSpec(1, 1, 2)
	const p = 3
	rng := xrand.New(991)
	for trial := 0; trial < 30; trial++ {
		reqs := make([]VCRequest, p*spec.V())
		requesters := []int{}
		for i := range reqs {
			if rng.Bool(0.6) {
				reqs[i] = VCRequest{Active: true, OutPort: rng.Intn(p), Candidates: spec.ClassMask(0, 0)}
				requesters = append(requesters, i)
			}
		}
		if len(requesters) == 0 {
			continue
		}
		for _, cfg := range []VCAllocConfig{
			{Ports: p, Spec: spec, Arch: alloc.SepIF, ArbKind: arbiter.RoundRobin},
			{Ports: p, Spec: spec, Arch: alloc.SepOF, ArbKind: arbiter.RoundRobin},
		} {
			a := NewVCAllocator(cfg)
			served := map[int]bool{}
			for cycle := 0; cycle < 100; cycle++ {
				grants := a.Allocate(reqs)
				for _, i := range requesters {
					if grants[i] >= 0 {
						served[i] = true
					}
				}
			}
			for _, i := range requesters {
				if !served[i] {
					t.Fatalf("%s: requester %d starved over 100 cycles (trial %d)",
						a.Name(), i, trial)
				}
			}
		}
	}
}
