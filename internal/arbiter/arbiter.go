// Package arbiter implements the arbiter microarchitectures used as building
// blocks for the separable allocators of Becker & Dally (SC '09): round-robin
// arbiters, matrix arbiters, and the tree arbiters used to decompose the
// large P×V-input output-stage arbiters of VC allocators.
//
// All arbiters follow the two-phase protocol required for separable
// allocation with iSLIP-style fairness [McKeown '99]: Pick computes the
// combinational winner for a request vector without touching arbiter state,
// and Update advances the priority state only when the caller confirms that
// the pick was successful end-to-end. Updating unconditionally would allow
// traffic-pattern-dependent starvation (see §2.1 of the paper).
package arbiter

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/slab"
)

// Arbiter selects a single winner among a set of requesters.
type Arbiter interface {
	// Size returns the number of request inputs.
	Size() int
	// Pick returns the index of the winning request in req, or -1 if req is
	// empty. Pick is purely combinational: it must not modify arbiter state
	// and must return the same winner for the same request vector until
	// Update is called.
	Pick(req *bitvec.Vec) int
	// Update advances the priority state to reflect a successful grant to
	// winner. Callers invoke it only when the grant was accepted end-to-end.
	Update(winner int)
	// Reset restores the initial priority state.
	Reset()
}

// Kind names an arbiter implementation; it selects both functional behavior
// and the cost-model netlist.
type Kind int

const (
	// RoundRobin is a conventional round-robin arbiter built from a rotating
	// priority pointer and a thermometer-masked priority encoder.
	RoundRobin Kind = iota
	// Matrix is a matrix arbiter holding a triangular matrix of pairwise
	// priority flip-flops; it implements a least-recently-served policy.
	Matrix
)

// String returns the short name used in the paper's figure legends.
func (k Kind) String() string {
	switch k {
	case RoundRobin:
		return "rr"
	case Matrix:
		return "m"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// New constructs an arbiter of the given kind with n inputs.
func New(k Kind, n int) Arbiter {
	switch k {
	case RoundRobin:
		return NewRoundRobin(n)
	case Matrix:
		return NewMatrix(n)
	default:
		panic(fmt.Sprintf("arbiter: unknown kind %d", int(k)))
	}
}

// RoundRobinArbiter grants the first request at or after a rotating priority
// pointer. After a successful grant to input i, the pointer moves to i+1, so
// the just-served input becomes lowest priority. It is a round-robin Bank of
// one, which is where the arbitration itself is written.
type RoundRobinArbiter struct {
	n   int32
	ptr [1]int32
}

// NewRoundRobin returns an n-input round-robin arbiter with priority
// initially at input 0.
func NewRoundRobin(n int) *RoundRobinArbiter {
	checkSize(n)
	return &RoundRobinArbiter{n: int32(n)}
}

func checkSize(n int) {
	if n <= 0 {
		panic("arbiter: size must be positive")
	}
}

func (a *RoundRobinArbiter) bank() Bank { return Bank{rrN: a.n, rr: a.ptr[:]} }

// Size implements Arbiter.
func (a *RoundRobinArbiter) Size() int { return int(a.n) }

// Pick implements Arbiter.
func (a *RoundRobinArbiter) Pick(req *bitvec.Vec) int {
	b := a.bank()
	return b.Pick(0, req)
}

// Update implements Arbiter.
func (a *RoundRobinArbiter) Update(winner int) {
	b := a.bank()
	b.Update(0, winner)
}

// Reset implements Arbiter.
func (a *RoundRobinArbiter) Reset() { a.ptr[0] = 0 }

// MatrixArbiter implements Tamir & Chi's matrix arbiter: the priority state
// says, for every ordered pair, whether input i beats input j. The winner is
// the requesting input that beats every other requesting input; on Update the
// winner's rows/columns are flipped so it becomes lowest priority against
// everyone (least-recently-served).
//
// The state is held as one bit vector per input (beats[i] = the set of
// inputs i currently beats), so the winner test "does i beat every other
// requester" is a word-parallel req &^ beats[i] instead of a per-bit scan.
type MatrixArbiter struct {
	n     int
	beats []bitvec.Vec // beats[i].Get(j): i beats j; only i != j meaningful
	loses *bitvec.Vec  // scratch: requesters i does not beat
}

// NewMatrix returns an n-input matrix arbiter with initial priority order
// 0 > 1 > ... > n-1.
func NewMatrix(n int) *MatrixArbiter {
	checkSize(n)
	a := &MatrixArbiter{}
	a.init(bitvec.NewSlab(n+1, n))
	return a
}

// init builds an n-input arbiter on n+1 n-bit vectors: one beats row per
// input and the scratch vector.
func (a *MatrixArbiter) init(vs []bitvec.Vec) {
	n := len(vs) - 1
	*a = MatrixArbiter{n: n, beats: vs[:n], loses: &vs[n]}
	a.Reset()
}

// Size implements Arbiter.
func (a *MatrixArbiter) Size() int { return a.n }

// Pick implements Arbiter.
func (a *MatrixArbiter) Pick(req *bitvec.Vec) int {
	if req.Len() != a.n {
		panic(fmt.Sprintf("arbiter: request width %d, arbiter width %d", req.Len(), a.n))
	}
	for i := req.NextSet(0); i >= 0; i = req.NextSet(i + 1) {
		// i wins when the requesters it fails to beat are exactly {i}
		// (the diagonal bit is never set, so i always survives the mask).
		if !a.loses.AndNotInto(req, &a.beats[i]) {
			return i // unreachable for a valid tournament, kept for safety
		}
		if a.loses.Count() == 1 {
			return i
		}
	}
	return -1
}

// pickWord is Pick for an arbiter at most 64 wide whose request vector is
// held in one word.
func (a *MatrixArbiter) pickWord(req uint64) int {
	checkWord(a.n, req)
	for w := req; w != 0; w &= w - 1 {
		c := bits.TrailingZeros64(w)
		if bits.OnesCount64(req&^a.beats[c].Words()[0]) == 1 {
			return c
		}
	}
	return -1
}

// checkWord panics unless an n-input request vector fits the word req and
// req has no bit at or above n.
func checkWord(n int, req uint64) {
	if n > 64 || req>>uint(n) != 0 {
		panic(fmt.Sprintf("arbiter: request word %#x does not fit arbiter width %d", req, n))
	}
}

// Update implements Arbiter.
func (a *MatrixArbiter) Update(winner int) {
	if winner < 0 || winner >= a.n {
		panic(fmt.Sprintf("arbiter: winner %d out of range [0,%d)", winner, a.n))
	}
	for j := 0; j < a.n; j++ {
		if j == winner {
			continue
		}
		a.beats[winner].Clear(j) // winner now loses to everyone
		a.beats[j].Set(winner)   // everyone now beats winner
	}
}

// Reset implements Arbiter.
func (a *MatrixArbiter) Reset() {
	for i := range a.beats {
		b := &a.beats[i]
		b.Reset()
		for j := i + 1; j < a.n; j++ {
			b.Set(j)
		}
	}
}

// Bank is a set of arbiters of one kind and one width held as bare state in
// one contiguous slice, addressed by index: a round-robin arbiter is its
// 4-byte pointer (the width is the bank's), a matrix arbiter its value. It is
// what the allocators hold instead of a slice of Arbiter interfaces: no
// per-arbiter heap object, no interface word pair per entry, and neighbours
// in index order are neighbours in memory. The zero Bank is empty.
//
// Like a single arbiter, a bank is not safe for concurrent use, and its
// arbiters may share scratch storage: one owner steps all of them.
type Bank struct {
	rrN int32   // width of the round-robin arbiters
	rr  []int32 // their priority pointers
	mx  []MatrixArbiter
}

// Pick is Arbiter.Pick on arbiter i.
func (b *Bank) Pick(i int, req *bitvec.Vec) int {
	if b.mx != nil {
		return b.mx[i].Pick(req)
	}
	if req.Len() != int(b.rrN) {
		panic(fmt.Sprintf("arbiter: request width %d, arbiter width %d", req.Len(), b.rrN))
	}
	return req.NextFrom(int(b.rr[i]))
}

// PickWord is Pick on arbiter i for banks of arbiters at most 64 wide, with
// the request vector held in one word: bit r of req is request r. It panics
// if the arbiters are wider or req has a bit at or above their width.
func (b *Bank) PickWord(i int, req uint64) int {
	if b.mx != nil {
		return b.mx[i].pickWord(req)
	}
	checkWord(int(b.rrN), req)
	// Requests at or above the pointer win over the wrapped-around ones.
	if hi := req &^ (1<<uint(b.rr[i]) - 1); hi != 0 {
		return bits.TrailingZeros64(hi)
	}
	if req == 0 {
		return -1
	}
	return bits.TrailingZeros64(req)
}

// Update is Arbiter.Update on arbiter i.
func (b *Bank) Update(i, winner int) {
	if b.mx != nil {
		b.mx[i].Update(winner)
		return
	}
	if winner < 0 || winner >= int(b.rrN) {
		panic(fmt.Sprintf("arbiter: winner %d out of range [0,%d)", winner, b.rrN))
	}
	// winner+1 <= n after the range check, so a conditional reset beats the
	// hardware divide a % would cost on this per-grant path.
	next := int32(winner) + 1
	if next == b.rrN {
		next = 0
	}
	b.rr[i] = next
}

// Reset restores the initial priority state of every arbiter.
func (b *Bank) Reset() {
	for i := range b.rr {
		b.rr[i] = 0
	}
	for i := range b.mx {
		b.mx[i].Reset()
	}
}

// TreeBank is a bank of tree arbiters of one shape. A tree arbiter
// decomposes a (groups×groupSize)-input arbitration into groupSize-input
// leaf arbiters operating in parallel with a groups-input root arbiter that
// selects among them, as described in §4.1 of the paper for the output-stage
// P×V:1 arbiters of separable VC allocators. Input i belongs to group
// i/groupSize. All roots live in one bank, all leaves in another, and the
// trees share the two scratch vectors.
//
// A tree with single-input leaves degenerates to its root (the leaves can
// neither change a pick nor hold priority state), so for groupSize 1 the bank
// holds roots only.
type TreeBank struct {
	groups    int
	groupSize int
	size      int  // groups * groupSize, cached for the per-Pick width check
	root      Bank // per tree: groups wide
	leaves    Bank // per tree: groups arbiters, groupSize wide; tree t's start at t*groups

	leafReq *bitvec.Vec // scratch, groupSize wide
	rootReq *bitvec.Vec // scratch, groups wide
}

// Pick is Arbiter.Pick on tree i. The winner is the leaf winner of the
// root-winning group, matching the RTL structure where the root arbiter
// selects among per-group any-request signals.
func (t *TreeBank) Pick(i int, req *bitvec.Vec) int {
	if req.Len() != t.size {
		panic(fmt.Sprintf("arbiter: request width %d, arbiter width %d", req.Len(), t.size))
	}
	// Degenerate tree: the root sees the request vector unchanged, so skip
	// the per-group gather and its divides entirely.
	if t.groupSize == 1 {
		return t.root.Pick(i, req)
	}
	t.rootReq.Reset()
	// One word scan over the set bits: each hit marks its group and jumps
	// straight to the next group boundary.
	for b := req.NextSet(0); b >= 0; {
		g := b / t.groupSize
		t.rootReq.Set(g)
		b = req.NextSet((g + 1) * t.groupSize)
	}
	g := t.root.Pick(i, t.rootReq)
	if g < 0 {
		return -1
	}
	t.leafReq.SliceFrom(req, g*t.groupSize)
	w := t.leaves.Pick(i*t.groups+g, t.leafReq)
	if w < 0 {
		return -1
	}
	return g*t.groupSize + w
}

// PickWords is Pick on tree i for trees of at most 64 groups of at most 64
// inputs, with the request vector handed over in the shape of the tree: bit g
// of any says group g holds a request, and leaves[g] holds group g's requests
// (bit r is input g*groupSize+r). Only the winning group's word is read, so
// words of groups outside any may hold anything; a tree with single-input
// leaves reads none. No gather, no scratch: one root PickWord and one leaf
// PickWord, with PickWord's panics.
func (t *TreeBank) PickWords(i int, any uint64, leaves []uint64) int {
	g := t.root.PickWord(i, any)
	if g < 0 || t.groupSize == 1 {
		return g
	}
	w := t.leaves.PickWord(i*t.groups+g, leaves[g])
	if w < 0 {
		return -1
	}
	return g*t.groupSize + w
}

// Update is Arbiter.Update on tree i, advancing both the root and the
// winning leaf.
func (t *TreeBank) Update(i, winner int) {
	if winner < 0 || winner >= t.size {
		panic(fmt.Sprintf("arbiter: winner %d out of range [0,%d)", winner, t.size))
	}
	if t.groupSize == 1 {
		t.root.Update(i, winner)
		return
	}
	g := winner / t.groupSize
	t.root.Update(i, g)
	t.leaves.Update(i*t.groups+g, winner%t.groupSize)
}

// Reset restores the initial priority state of every tree.
func (t *TreeBank) Reset() {
	t.root.Reset()
	t.leaves.Reset()
}

// TreeArbiter is a single tree arbiter: a TreeBank of one.
type TreeArbiter struct {
	bank TreeBank
}

// NewTree returns a tree arbiter over groups*groupSize inputs with the leaf
// and root arbiters built from the given kind.
func NewTree(k Kind, groups, groupSize int) *TreeArbiter {
	return &TreeArbiter{bank: NewTreeBank(k, 1, groups, groupSize)}
}

// Size implements Arbiter.
func (t *TreeArbiter) Size() int { return t.bank.size }

// Pick implements Arbiter.
func (t *TreeArbiter) Pick(req *bitvec.Vec) int { return t.bank.Pick(0, req) }

// Update implements Arbiter.
func (t *TreeArbiter) Update(winner int) { t.bank.Update(0, winner) }

// Reset implements Arbiter.
func (t *TreeArbiter) Reset() { t.bank.Reset() }

// Slab lays out any number of banks, plus whatever bit vectors their owner
// needs (the embedded bitvec.Slab), in a handful of allocations: one state
// slice per arbiter kind in use and the vector slab's two blocks. It is a
// two-pass slab (see package slab): run the layout code once to measure,
// call Alloc, run it again to carve. The ownership rule of bitvec.Slab
// applies: one slab per independently stepped owner.
type Slab struct {
	bitvec.Slab
	rr slab.Of[int32]
	mx slab.Of[MatrixArbiter]
}

// Bank returns count n-input arbiters of kind k (empty on the measuring
// pass).
func (s *Slab) Bank(k Kind, count, n int) Bank {
	checkSize(n)
	switch k {
	case RoundRobin:
		return Bank{rrN: int32(n), rr: s.rr.Take(count)}
	case Matrix:
		mx, vs := s.mx.Take(count), s.Vecs(count*(n+1), n)
		for i := range mx {
			mx[i].init(vs[i*(n+1) : (i+1)*(n+1)])
		}
		return Bank{mx: mx}
	default:
		panic(fmt.Sprintf("arbiter: unknown kind %d", int(k)))
	}
}

// TreeBank returns count tree arbiters over groups*groupSize inputs with
// leaf and root arbiters of kind k (unusable on the measuring pass).
func (s *Slab) TreeBank(k Kind, count, groups, groupSize int) TreeBank {
	if groups <= 0 || groupSize <= 0 {
		panic("arbiter: tree dimensions must be positive")
	}
	t := TreeBank{
		groups:    groups,
		groupSize: groupSize,
		size:      groups * groupSize,
		root:      s.Bank(k, count, groups),
	}
	if groupSize > 1 {
		t.leaves = s.Bank(k, count*groups, groupSize)
		t.leafReq = s.Vec(groupSize)
		t.rootReq = s.Vec(groups)
	}
	return t
}

// Alloc ends the measuring pass and allocates the blocks.
func (s *Slab) Alloc() {
	s.Slab.Alloc()
	s.rr.Alloc()
	s.mx.Alloc()
}

// NewBank returns a bank of count n-input arbiters of kind k.
func NewBank(k Kind, count, n int) Bank {
	var s Slab
	s.Bank(k, count, n)
	s.Alloc()
	return s.Bank(k, count, n)
}

// NewTreeBank returns a bank of count tree arbiters over groups*groupSize
// inputs with leaf and root arbiters of kind k.
func NewTreeBank(k Kind, count, groups, groupSize int) TreeBank {
	var s Slab
	s.TreeBank(k, count, groups, groupSize)
	s.Alloc()
	return s.TreeBank(k, count, groups, groupSize)
}
