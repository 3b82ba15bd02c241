package core

import (
	"repro/internal/arbiter"
	"repro/internal/bitvec"
)

// freeQueueVCAllocator implements the free-VC-queue scheme Mullins et al.
// propose for reducing VC allocation delay (cited as [15] in the paper's
// related work): instead of matching input VCs to specific output VCs, each
// output port keeps one FIFO of free VCs per (message, resource) class. A
// single arbitration per (port, class) picks a winning input VC, which is
// assigned whichever VC sits at the queue head — removing the input-side
// arbitration stage from the critical path entirely.
//
// The price is matching quality: at most one VC per (port, class) can be
// assigned per cycle even when several are free, so under load it grants
// fewer VCs than the separable or wavefront allocators (exercised by the
// quality tests).
type freeQueueVCAllocator struct {
	ports int
	spec  VCSpec
	v     int
	name  string
	kind  arbiter.Kind

	// Per (output port, class): FIFO of free VC ids (global per-port local
	// index) and the arbiter among requesting input VCs.
	queues [][]int
	arbs   arbiter.Bank // width ports*v
	inQ    []bool       // per (port, local vc): tracked as free

	grants  []int
	granted []uint64 // per input port: its VCs the last Allocate granted
	reqVec  *bitvec.Vec
}

func newFreeQueueVCAllocator(cfg VCAllocConfig) *freeQueueVCAllocator {
	v := cfg.Spec.V()
	return &freeQueueVCAllocator{
		ports:  cfg.Ports,
		spec:   cfg.Spec,
		v:      v,
		name:   "freeq/" + cfg.ArbKind.String(),
		kind:   cfg.ArbKind,
		queues: make([][]int, cfg.Ports*cfg.Spec.Classes()),
		inQ:    make([]bool, cfg.Ports*v),
	}
}

func (a *freeQueueVCAllocator) layout(s slabs) slabs {
	n := a.ports * a.v
	a.arbs = s.Bank(a.kind, len(a.queues), n)
	a.grants = s.ints.Take(n)
	a.granted = s.Words(a.ports)
	a.reqVec = s.Vec(n)
	// A queue never holds more than the VCsPerClass ids of its class (see
	// noteFreed), which is exactly the capacity its slab slice is cut to.
	for qi := range a.queues {
		a.queues[qi] = s.ints.Take(a.spec.VCsPerClass)
	}
	return s
}

// fill enqueues every VC as free.
func (a *freeQueueVCAllocator) fill() { a.Reset() }

func (a *freeQueueVCAllocator) Ports() int   { return a.ports }
func (a *freeQueueVCAllocator) VCs() int     { return a.v }
func (a *freeQueueVCAllocator) Name() string { return a.name }

func (a *freeQueueVCAllocator) Reset() {
	classes := a.spec.Classes()
	for i := range a.inQ {
		a.inQ[i] = false
	}
	for port := 0; port < a.ports; port++ {
		for cls := 0; cls < classes; cls++ {
			q := a.queues[port*classes+cls][:0]
			for c := 0; c < a.spec.VCsPerClass; c++ {
				vc := cls*a.spec.VCsPerClass + c
				q = append(q, vc)
				a.inQ[port*a.v+vc] = true
			}
			a.queues[port*classes+cls] = q
		}
	}
	a.arbs.Reset()
}

func (a *freeQueueVCAllocator) qIndex(port, class int) int { return port*a.spec.Classes() + class }

// noteFreed re-enqueues VCs the router reports as candidates but which the
// allocator had handed out earlier: their packets released them.
//
// These free lists are bounded: the inQ dedup bit admits each VC to its
// queue at most once, so a queue holds at most the VCsPerClass ids it was
// built with and never grows past its initial backing array. The append below therefore never
// reallocates; the length check enforces the invariant.
func (a *freeQueueVCAllocator) noteFreed(reqs []VCRequest) {
	for _, r := range reqs {
		if !r.Active || r.Candidates == 0 {
			continue
		}
		base := r.OutPort * a.v
		r.Candidates.ForEach(func(c int) {
			if !a.inQ[base+c] {
				a.inQ[base+c] = true
				cls := a.spec.ClassOf(c)
				qi := a.qIndex(r.OutPort, cls)
				a.queues[qi] = append(a.queues[qi], c)
				if len(a.queues[qi]) > a.spec.VCsPerClass {
					panic("core: free-VC queue overflow (duplicate enqueue)")
				}
			}
		})
	}
}

func (a *freeQueueVCAllocator) Allocate(reqs []VCRequest) []int {
	if len(reqs) != a.ports*a.v {
		panic("core: request slice length mismatch")
	}
	for i := range a.grants {
		a.grants[i] = -1
	}
	clear(a.granted)
	a.noteFreed(reqs)
	classes := a.spec.Classes()
	for port := 0; port < a.ports; port++ {
		for cls := 0; cls < classes; cls++ {
			qi := a.qIndex(port, cls)
			q := a.queues[qi]
			// Pop the oldest queued VC the router also reports free; stale
			// entries (still occupied downstream) rotate to the back.
			head := -1
			for k := 0; k < len(q); k++ {
				vc := q[k]
				// A queued VC is grantable if at least one requester lists
				// it as a candidate this cycle.
				if a.anyCandidate(reqs, port, vc) {
					head = k
					break
				}
			}
			if head < 0 {
				continue
			}
			vc := q[head]
			// Arbitrate among input VCs requesting (port, class); inputs
			// already granted by another class queue this cycle are
			// excluded to preserve the one-grant-per-requester invariant.
			a.reqVec.Reset()
			for gi, r := range reqs {
				if a.grants[gi] < 0 && r.Active && r.OutPort == port && r.Candidates.Get(vc) {
					a.reqVec.Set(gi)
				}
			}
			winner := a.arbs.Pick(qi, a.reqVec)
			if winner < 0 {
				continue
			}
			a.grants[winner] = port*a.v + vc
			a.granted[winner/a.v] |= 1 << uint(winner%a.v)
			a.arbs.Update(qi, winner)
			a.queues[qi] = append(q[:head], q[head+1:]...)
			a.inQ[port*a.v+vc] = false
		}
	}
	return a.grants
}

// Push does nothing: Allocate rescans every request for its queues.
func (a *freeQueueVCAllocator) Push(port, vc int, issuable bool) {}

// Run is Allocate, with the granted words Allocate keeps.
func (a *freeQueueVCAllocator) Run(reqs []VCRequest) ([]int, []uint64) {
	return a.Allocate(reqs), a.granted
}

// SkipIdle does nothing: an idle cycle changes no queue and no arbiter.
func (a *freeQueueVCAllocator) SkipIdle(idleCycles int64) {}

func (a *freeQueueVCAllocator) anyCandidate(reqs []VCRequest, port, vc int) bool {
	for _, r := range reqs {
		if r.Active && r.OutPort == port && r.Candidates.Get(vc) {
			return true
		}
	}
	return false
}
