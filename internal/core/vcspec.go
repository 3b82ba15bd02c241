// Package core implements the contributions of Becker & Dally (SC '09):
// virtual-channel and switch allocator microarchitectures for input-queued
// VC routers, the sparse VC allocation scheme of §4.2, and the conventional
// and pessimistic speculative switch allocation mechanisms of §5.2.
//
// The package separates three concerns that the paper evaluates jointly:
//
//   - VCSpec describes how a router's V virtual channels decompose into
//     message classes, resource classes, and VCs per class (V = M·R·C) and
//     which VC-to-VC transitions are legal (Fig. 4).
//   - VCAllocator assigns output VCs to head flits (Fig. 3), either with
//     dense (uniform) logic or with the sparse scheme that statically
//     exploits the transition structure.
//   - SwitchAllocator schedules buffered flits onto crossbar time slots
//     (Fig. 8), optionally with speculative requests masked by one of the
//     two schemes in Fig. 9.
package core

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
)

// VCSpec describes the virtual-channel organization of a router:
// V = MessageClasses × ResourceClasses × VCsPerClass.
//
// A VC's global index is ((m·R)+r)·C + c for message class m, resource class
// r and intra-class index c, so VCs of the same class are contiguous.
type VCSpec struct {
	// MessageClasses (M) partition traffic by packet type (e.g. request
	// vs reply) to avoid protocol deadlock. A packet's message class never
	// changes in the network.
	MessageClasses int
	// ResourceClasses (R) partition each message class to break cyclic
	// resource dependencies (e.g. the two UGAL phases). A
	// packet's resource class may change, but only as SuccessorClasses says.
	ResourceClasses int
	// VCsPerClass (C) is the number of interchangeable VCs in each
	// (message, resource) class.
	VCsPerClass int
}

// NewVCSpec returns a spec with M message classes, R resource classes and C
// VCs per class.
func NewVCSpec(m, r, c int) VCSpec {
	return VCSpec{MessageClasses: m, ResourceClasses: r, VCsPerClass: c}
}

// SuccessorClasses returns the resource classes a packet in class r may
// occupy at the next hop, the range [lo, hi): the monotonic relation of
// two-phase (Valiant/UGAL) routing, where class r stays in r or advances to
// r+1 and the final class only stays. For R = 1 it is the identity.
func (s VCSpec) SuccessorClasses(r int) (lo, hi int) {
	return r, min(r+2, s.ResourceClasses)
}

// Validate reports an error if the spec is malformed.
func (s VCSpec) Validate() error {
	if s.MessageClasses <= 0 || s.ResourceClasses <= 0 || s.VCsPerClass <= 0 {
		return fmt.Errorf("core: VCSpec dimensions must be positive, got %dx%dx%d",
			s.MessageClasses, s.ResourceClasses, s.VCsPerClass)
	}
	return nil
}

// V returns the total number of VCs, M·R·C.
func (s VCSpec) V() int { return s.MessageClasses * s.ResourceClasses * s.VCsPerClass }

// Classes returns the number of (message, resource) classes, M·R.
func (s VCSpec) Classes() int { return s.MessageClasses * s.ResourceClasses }

// String renders the spec in the paper's MxRxC notation.
func (s VCSpec) String() string {
	return fmt.Sprintf("%dx%dx%d", s.MessageClasses, s.ResourceClasses, s.VCsPerClass)
}

// VCIndex returns the global VC index for (message class m, resource class
// r, intra-class index c).
func (s VCSpec) VCIndex(m, r, c int) int {
	if m < 0 || m >= s.MessageClasses || r < 0 || r >= s.ResourceClasses || c < 0 || c >= s.VCsPerClass {
		panic(fmt.Sprintf("core: VC coordinate (%d,%d,%d) out of range for %s", m, r, c, s))
	}
	return (m*s.ResourceClasses+r)*s.VCsPerClass + c
}

// Decompose splits a global VC index into (message class, resource class,
// intra-class index).
func (s VCSpec) Decompose(vc int) (m, r, c int) {
	if vc < 0 || vc >= s.V() {
		panic(fmt.Sprintf("core: VC index %d out of range for %s", vc, s))
	}
	c = vc % s.VCsPerClass
	cls := vc / s.VCsPerClass
	r = cls % s.ResourceClasses
	m = cls / s.ResourceClasses
	return
}

// ClassIndex returns the class index for message class m and resource class r.
func (s VCSpec) ClassIndex(m, r int) int {
	if m < 0 || m >= s.MessageClasses || r < 0 || r >= s.ResourceClasses {
		panic(fmt.Sprintf("core: class coordinate (%d,%d) out of range for %s", m, r, s))
	}
	return m*s.ResourceClasses + r
}

// LegalTransition reports whether a packet occupying input VC `from` may
// acquire output VC `to` at the next router: the message class must match
// and the resource class of `to` must be a successor of `from`'s.
func (s VCSpec) LegalTransition(from, to int) bool {
	fm, fr, _ := s.Decompose(from)
	tm, tr, _ := s.Decompose(to)
	lo, hi := s.SuccessorClasses(fr)
	return fm == tm && lo <= tr && tr < hi
}

// TransitionMatrix returns the V×V matrix of legal VC-to-VC transitions
// (rows: input VC, columns: output VC). This is the matrix shown in Fig. 4
// of the paper; for the fbfly 2×2×4 configuration exactly 96 of the 256
// entries are set.
func (s VCSpec) TransitionMatrix() *bitvec.Matrix {
	v := s.V()
	m := bitvec.NewMatrix(v, v)
	for from := 0; from < v; from++ {
		for to := 0; to < v; to++ {
			if s.LegalTransition(from, to) {
				m.Set(from, to)
			}
		}
	}
	return m
}

// CountLegalTransitions returns the number of legal VC-to-VC transitions,
// i.e. the population count of TransitionMatrix.
func (s VCSpec) CountLegalTransitions() int { return s.TransitionMatrix().Count() }

// ClassRange returns the half-open VC index range [lo, hi) of class (m, r);
// the VCs of one class are contiguous.
func (s VCSpec) ClassRange(m, r int) (lo, hi int) {
	lo = s.ClassIndex(m, r) * s.VCsPerClass
	return lo, lo + s.VCsPerClass
}

// maxVCs is the largest V a router can have: the VCs of one port are held as
// the bits of one machine word (VCMask here, the per-port words of the two
// allocators and of the router).
const maxVCs = 64

// VCMask is a set of VCs at one port: bit c is VC c. It is what a VC request
// carries as its candidate output VCs and what the router keeps per output
// port and per class.
type VCMask uint64

// Get reports whether VC c is in the set.
func (m VCMask) Get(c int) bool { return m>>uint(c)&1 != 0 }

// Count returns the number of VCs in the set.
func (m VCMask) Count() int { return bits.OnesCount64(uint64(m)) }

// ForEach calls fn for every VC in the set, in increasing index order.
func (m VCMask) ForEach(fn func(c int)) {
	for w := uint64(m); w != 0; w &= w - 1 {
		fn(bits.TrailingZeros64(w))
	}
}

// rangeMask is the set of VCs [lo, hi). Validate accepts specs of any size
// (the cost models take them); building a mask is where one must fit a word.
func (s VCSpec) rangeMask(lo, hi int) VCMask {
	if s.V() > maxVCs {
		panic(fmt.Sprintf("core: VC organization %s has %d VCs per port, a VCMask holds at most %d", s, s.V(), maxVCs))
	}
	return (VCMask(1)<<uint(hi) - 1) &^ (VCMask(1)<<uint(lo) - 1)
}

// ClassMask returns the VCs of class (m, r). It panics if V exceeds 64.
func (s VCSpec) ClassMask(m, r int) VCMask { return s.rangeMask(s.ClassRange(m, r)) }

// SuccessorMask returns the output VCs an input VC may legally transition
// to. It panics if V exceeds 64.
func (s VCSpec) SuccessorMask(vc int) VCMask {
	m, r, _ := s.Decompose(vc)
	lo, hi := s.SuccessorClasses(r)
	var mask VCMask
	for nr := lo; nr < hi; nr++ {
		mask |= s.ClassMask(m, nr)
	}
	return mask
}

// MaxSuccessorsPerVC returns the maximum number of legal successor VCs over
// all input VCs; for the fbfly 2×2×4 configuration this is 8 (paper §4.2).
func (s VCSpec) MaxSuccessorsPerVC() int { return s.MaxSuccessorClasses() * s.VCsPerClass }

// PredecessorCount returns the number of distinct input-VC resource classes
// that may transition into resource class r (used to size sparse output-side
// arbiters, §4.2).
func (s VCSpec) PredecessorCount(r int) int {
	n := 0
	for p := 0; p < s.ResourceClasses; p++ {
		if lo, hi := s.SuccessorClasses(p); lo <= r && r < hi {
			n++
		}
	}
	return n
}

// MaxSuccessorClasses returns the maximum number of successor resource
// classes over all resource classes.
func (s VCSpec) MaxSuccessorClasses() int {
	best := 0
	for r := 0; r < s.ResourceClasses; r++ {
		if lo, hi := s.SuccessorClasses(r); hi-lo > best {
			best = hi - lo
		}
	}
	return best
}

// MaxPredecessorClasses returns the maximum number of predecessor resource
// classes over all resource classes.
func (s VCSpec) MaxPredecessorClasses() int {
	best := 0
	for r := 0; r < s.ResourceClasses; r++ {
		if n := s.PredecessorCount(r); n > best {
			best = n
		}
	}
	return best
}
