package core

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/xrand"
)

func precompCfg() SwitchAllocConfig {
	return SwitchAllocConfig{Ports: 4, VCs: 2, Arch: alloc.SepIF,
		ArbKind: arbiter.RoundRobin, SpecMode: SpecNone, Precomputed: true}
}

func TestPrecomputedBasics(t *testing.T) {
	a := NewSwitchAllocator(precompCfg())
	if a.Name() != "sep_if/rr+nonspec+precomp" {
		t.Fatalf("Name = %q", a.Name())
	}
	reqs := make([]SwitchRequest, 8)
	reqs[0] = SwitchRequest{Active: true, OutPort: 2}
	// First cycle: nothing precomputed yet.
	g := a.Allocate(reqs)
	if g[0].OutPort != -1 {
		t.Fatal("first cycle must produce no grants")
	}
	// Second cycle with the request still pending: granted.
	g = a.Allocate(reqs)
	if g[0].OutPort != 2 || g[0].VC != 0 {
		t.Fatalf("persistent request not granted: %+v", g[0])
	}
	if err := CheckSwitchGrants(4, 2, reqs, g); err != nil {
		t.Fatal(err)
	}
}

func TestPrecomputedAbortsStaleGrants(t *testing.T) {
	a := NewSwitchAllocator(precompCfg()).(*precomputedSwitch)
	reqs := make([]SwitchRequest, 8)
	reqs[0] = SwitchRequest{Active: true, OutPort: 2}
	a.Allocate(reqs)
	// The request disappears before its precomputed grant lands.
	gone := make([]SwitchRequest, 8)
	g := a.Allocate(gone)
	if g[0].OutPort != -1 {
		t.Fatalf("stale grant not aborted: %+v", g[0])
	}
	aborted, issued := a.Aborted()
	if aborted != 1 || issued != 1 {
		t.Fatalf("abort accounting (%d/%d), want (1/1)", aborted, issued)
	}
	// A request that changed output port is also aborted.
	reqs[0] = SwitchRequest{Active: true, OutPort: 2}
	a.Allocate(reqs)
	moved := make([]SwitchRequest, 8)
	moved[0] = SwitchRequest{Active: true, OutPort: 3}
	if g := a.Allocate(moved); g[0].OutPort != -1 {
		t.Fatalf("moved request's grant not aborted: %+v", g[0])
	}
}

func TestPrecomputedSustainsStreaming(t *testing.T) {
	// Persistent requests (a long packet streaming through) reach full
	// rate after the one-cycle fill.
	a := NewSwitchAllocator(precompCfg())
	reqs := make([]SwitchRequest, 8)
	reqs[0*2+0] = SwitchRequest{Active: true, OutPort: 2}
	reqs[1*2+1] = SwitchRequest{Active: true, OutPort: 3}
	granted := 0
	for cycle := 0; cycle < 11; cycle++ {
		for _, g := range a.Allocate(reqs) {
			if g.OutPort >= 0 {
				granted++
			}
		}
	}
	if granted != 2*10 {
		t.Fatalf("streaming granted %d, want 20 (full rate after fill cycle)", granted)
	}
}

func TestPrecomputedValidity(t *testing.T) {
	a := NewSwitchAllocator(SwitchAllocConfig{Ports: 5, VCs: 4,
		Arch: alloc.Wavefront, ArbKind: arbiter.RoundRobin, SpecMode: SpecNone, Precomputed: true})
	rng := xrand.New(601)
	for trial := 0; trial < 400; trial++ {
		reqs := randomSwitchRequests(rng, 5, 4, 0.5, 0)
		if err := CheckSwitchGrants(5, 4, reqs, a.Allocate(reqs)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestPrecomputedAbortRateGrowsWithVolatility(t *testing.T) {
	run := func(rate float64) float64 {
		a := NewSwitchAllocator(precompCfg()).(*precomputedSwitch)
		rng := xrand.New(607)
		for trial := 0; trial < 3000; trial++ {
			a.Allocate(randomSwitchRequests(rng, 4, 2, rate, 0))
		}
		aborted, issued := a.Aborted()
		if issued == 0 {
			return 0
		}
		return float64(aborted) / float64(issued)
	}
	sparse, dense := run(0.2), run(0.8)
	if sparse <= dense {
		t.Fatalf("abort rate at low persistence (%.3f) should exceed high persistence (%.3f)",
			sparse, dense)
	}
}

func TestPrecomputedRejectsSpeculation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := precompCfg()
	cfg.SpecMode = SpecReq
	NewSwitchAllocator(cfg)
}

func TestPrecomputedReset(t *testing.T) {
	a := NewSwitchAllocator(precompCfg())
	reqs := make([]SwitchRequest, 8)
	reqs[0] = SwitchRequest{Active: true, OutPort: 1}
	a.Allocate(reqs)
	a.Reset()
	// After reset, no stale precomputed state: first cycle grants nothing.
	if g := a.Allocate(reqs); g[0].OutPort != -1 {
		t.Fatal("Reset did not clear precomputed requests")
	}
}
