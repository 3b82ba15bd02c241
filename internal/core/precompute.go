package core

import "fmt"

// precomputedSwitch implements the arbitration pre-computation technique of
// Mullins et al. [15] (paper related work, §1): the switch allocator
// evaluates the *previous* cycle's requests, so its combinational work
// overlaps the preceding pipeline stage and only a cheap validation remains
// on the critical path. Grants whose underlying request disappeared or
// changed output port in the meantime are aborted, wasting the crossbar
// slot — the scheme trades request freshness for cycle time.
//
// Speculation is not combined with pre-computation (the speculative path's
// whole point is same-cycle allocation), so construction requires SpecNone.
type precomputedSwitch struct {
	inner *switchAllocator

	prev     []SwitchRequest
	havePrev bool
	grants   []SwitchGrant

	aborted int64
	issued  int64
}

func newPrecomputedSwitch(cfg SwitchAllocConfig) *precomputedSwitch {
	if cfg.SpecMode != SpecNone {
		panic("core: precomputed switch allocation cannot be combined with speculation")
	}
	inner := newSwitchAllocator(cfg)
	return &precomputedSwitch{
		inner:  inner,
		prev:   make([]SwitchRequest, cfg.Ports*cfg.VCs),
		grants: make([]SwitchGrant, cfg.Ports),
	}
}

func (a *precomputedSwitch) layout(s slabs) slabs { return a.inner.layout(s) }
func (a *precomputedSwitch) fill()                { a.inner.fill() }

func (a *precomputedSwitch) Ports() int   { return a.inner.Ports() }
func (a *precomputedSwitch) VCs() int     { return a.inner.VCs() }
func (a *precomputedSwitch) Name() string { return a.inner.Name() + "+precomp" }

func (a *precomputedSwitch) Reset() {
	a.inner.Reset()
	// An empty latch, not just an invalid one: SkipIdle's first idle cycle
	// marks the latch valid without writing it.
	clear(a.prev)
	a.havePrev = false
	a.aborted, a.issued = 0, 0
}

// Stats implements SwitchAllocator; the inner allocator carries no
// speculation, so only the wrapper's abort accounting is interesting (see
// Aborted).
func (a *precomputedSwitch) Stats() SwitchAllocStats { return a.inner.Stats() }

// Aborted returns (grants issued on stale requests and validated away,
// total grants the inner allocator produced).
func (a *precomputedSwitch) Aborted() (aborted, issued int64) { return a.aborted, a.issued }

// SkipIdle replays idle cycles. The wrapper latches each cycle's
// requests for the next, so the first idle cycle after activity still issues
// grants from the stale latch (all aborted against the empty live request
// set) and advances the inner allocator's state accordingly; that cycle is
// replayed literally. Once the latch is empty, idle cycles only touch the
// inner allocator's idle-variant state.
func (a *precomputedSwitch) SkipIdle(idleCycles int64) {
	if idleCycles <= 0 {
		return
	}
	if !a.havePrev {
		// The very first cycle only latches the (empty) request set.
		a.havePrev = true
		idleCycles--
	} else {
		stale := false
		for _, r := range a.prev {
			if r.Active {
				stale = true
				break
			}
		}
		if stale {
			for _, g := range a.inner.Allocate(a.prev) {
				if g.OutPort >= 0 {
					a.issued++
					a.aborted++
				}
			}
			for i := range a.prev {
				a.prev[i] = SwitchRequest{}
			}
			idleCycles--
		}
	}
	if idleCycles > 0 {
		a.inner.SkipIdle(idleCycles)
	}
}

// Push does nothing: the inner allocator runs on the latch Allocate rebuilds.
func (a *precomputedSwitch) Push(port, vc int, old, nw SwitchRequest) {}

// Run is Allocate.
func (a *precomputedSwitch) Run(reqs []SwitchRequest) []SwitchGrant { return a.Allocate(reqs) }

func (a *precomputedSwitch) Allocate(reqs []SwitchRequest) []SwitchGrant {
	if len(reqs) != len(a.prev) {
		panic(fmt.Sprintf("core: %d switch requests, want %d", len(reqs), len(a.prev)))
	}
	v := a.inner.VCs()
	for i := range a.grants {
		a.grants[i] = SwitchGrant{VC: -1, OutPort: -1}
	}
	if a.havePrev {
		for port, g := range a.inner.Allocate(a.prev) {
			if g.OutPort < 0 {
				continue
			}
			a.issued++
			// Validation against the live requests: the flit must still be
			// there and still want the same output.
			r := reqs[port*v+g.VC]
			if !r.Active || r.Spec || r.OutPort != g.OutPort {
				a.aborted++
				continue
			}
			a.grants[port] = g
		}
	}
	copy(a.prev, reqs)
	a.havePrev = true
	return a.grants
}
