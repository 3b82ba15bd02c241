package core

import (
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/arbiter"
	"repro/internal/bitvec"
	"repro/internal/xrand"
)

// refVC is an independent, deliberately naive model of the VC allocator
// (paper §4, Fig. 3), written from the figures and not from vcalloc.go: every
// cycle it rescans the whole request slice once per input VC and once per
// output VC, builds fresh bit vectors and a fresh request matrix, and asks one
// heap-allocated arbiter per input VC and one tree arbiter per output VC. It
// keeps nothing between cycles except the priority state the hardware itself
// holds. FuzzVCAllocator holds the production engine to it grant for grant.
type refVC struct {
	p    int
	spec VCSpec
	arch alloc.Arch
	kind arbiter.Kind
	// blocks are the independent allocators the VCs are partitioned into: one
	// over all V VCs, or under the sparse scheme of §4.2 one per message class.
	blocks []*refVCBlock
}

// refVCBlock is one allocator of Fig. 3 over the VCs [off, off+w) of every
// port. Arbiters are made on first use (a 64-port router has thousands the
// fuzz never reaches), which is when the hardware's reset state is observed.
type refVCBlock struct {
	off, w int
	inArb  map[int]arbiter.Arbiter // per input VC (global index), w wide
	outArb map[int]arbiter.Arbiter // per output VC (global index), a P×w tree
	passes int                     // wavefront: allocations since reset
}

func newRefVC(cfg VCAllocConfig) *refVC {
	r := &refVC{p: cfg.Ports, spec: cfg.Spec, arch: cfg.Arch, kind: cfg.ArbKind}
	if cfg.Sparse {
		per := cfg.Spec.ResourceClasses * cfg.Spec.VCsPerClass
		for m := 0; m < cfg.Spec.MessageClasses; m++ {
			r.blocks = append(r.blocks, &refVCBlock{off: m * per, w: per})
		}
	} else {
		r.blocks = []*refVCBlock{{off: 0, w: cfg.Spec.V()}}
	}
	r.Reset()
	return r
}

func (r *refVC) Reset() {
	for _, b := range r.blocks {
		b.inArb = map[int]arbiter.Arbiter{}
		b.outArb = map[int]arbiter.Arbiter{}
		b.passes = 0
	}
}

// SkipIdle is literally idleCycles cycles without a request.
func (r *refVC) SkipIdle(idleCycles int) {
	empty := make([]VCRequest, r.p*r.spec.V())
	for c := 0; c < idleCycles; c++ {
		r.Allocate(empty)
	}
}

func (r *refVC) in(b *refVCBlock, gi int) arbiter.Arbiter {
	if b.inArb[gi] == nil {
		b.inArb[gi] = arbiter.New(r.kind, b.w)
	}
	return b.inArb[gi]
}

// out is output VC g's arbiter over the block's P·w input VCs: a tree with one
// w-input leaf per input port under a P-input root (§4.1).
func (r *refVC) out(b *refVCBlock, g int) arbiter.Arbiter {
	if b.outArb[g] == nil {
		b.outArb[g] = arbiter.NewTree(r.kind, r.p, b.w)
	}
	return b.outArb[g]
}

func (r *refVC) Allocate(reqs []VCRequest) []int {
	grants := make([]int, len(reqs))
	for i := range grants {
		grants[i] = -1
	}
	for _, b := range r.blocks {
		switch r.arch {
		case alloc.SepIF:
			r.sepIF(b, reqs, grants)
		case alloc.SepOF:
			r.sepOF(b, reqs, grants)
		case alloc.Wavefront:
			r.wavefront(b, reqs, grants)
		}
	}
	return grants
}

// slot is input or output VC g's position among a block's P·w VCs, and vcAt
// its inverse.
func (r *refVC) slot(b *refVCBlock, g int) int {
	v := r.spec.V()
	return g/v*b.w + g%v - b.off
}

func (r *refVC) vcAt(b *refVCBlock, slot int) int {
	return slot/b.w*r.spec.V() + b.off + slot%b.w
}

// inputs lists the block's input VCs, by global index.
func (r *refVC) inputs(b *refVCBlock) []int {
	var in []int
	for port := 0; port < r.p; port++ {
		for vc := b.off; vc < b.off+b.w; vc++ {
			in = append(in, port*r.spec.V()+vc)
		}
	}
	return in
}

// sepIF is Fig. 3(a): every input VC picks one of its candidate output VCs,
// every output VC picks one of the input VCs that picked it.
func (r *refVC) sepIF(b *refVCBlock, reqs []VCRequest, grants []int) {
	v := r.spec.V()
	picked := map[int]int{} // input VC -> the output VC it bids for
	for _, gi := range r.inputs(b) {
		cand := bitvec.New(b.w)
		for c := 0; c < b.w; c++ {
			if refWants(reqs[gi], b.off+c) {
				cand.Set(c)
			}
		}
		if c := r.in(b, gi).Pick(cand); c >= 0 {
			picked[gi] = reqs[gi].OutPort*v + b.off + c
		}
	}
	for _, g := range r.inputs(b) { // the output VCs of a block are numbered like its inputs
		bids := bitvec.New(r.p * b.w)
		for gi, want := range picked {
			if want == g {
				bids.Set(r.slot(b, gi))
			}
		}
		if w := r.out(b, g).Pick(bids); w >= 0 {
			gi := r.vcAt(b, w)
			grants[gi] = g
			r.out(b, g).Update(w)
			r.in(b, gi).Update(g%v - b.off)
		}
	}
}

// sepOF is Fig. 3(b): every output VC picks one of the input VCs requesting
// it, every input VC picks one of the output VCs that picked it.
func (r *refVC) sepOF(b *refVCBlock, reqs []VCRequest, grants []int) {
	v := r.spec.V()
	offered := map[int]*bitvec.Vec{} // input VC -> output VCs (of its port) offered to it
	for _, g := range r.inputs(b) {
		asking := bitvec.New(r.p * b.w)
		for _, gi := range r.inputs(b) {
			if reqs[gi].OutPort == g/v && refWants(reqs[gi], g%v) {
				asking.Set(r.slot(b, gi))
			}
		}
		if w := r.out(b, g).Pick(asking); w >= 0 {
			gi := r.vcAt(b, w)
			if offered[gi] == nil {
				offered[gi] = bitvec.New(b.w)
			}
			offered[gi].Set(g%v - b.off)
		}
	}
	for gi, offers := range offered {
		c := r.in(b, gi).Pick(offers)
		g := reqs[gi].OutPort*v + b.off + c
		grants[gi] = g
		r.in(b, gi).Update(c)
		r.out(b, g).Update(r.slot(b, gi))
	}
}

// wavefront is Fig. 3(c): one (P·w)×(P·w) wavefront block over the full
// request matrix, swept cell by cell: diagonal by diagonal from the one this
// pass starts from, a requested cell is granted when its row and its column
// are both still free.
func (r *refVC) wavefront(b *refVCBlock, reqs []VCRequest, grants []int) {
	v, n := r.spec.V(), r.p*b.w
	m := bitvec.NewMatrix(n, n)
	for _, gi := range r.inputs(b) {
		for c := 0; c < b.w; c++ {
			if refWants(reqs[gi], b.off+c) {
				m.Set(r.slot(b, gi), r.slot(b, reqs[gi].OutPort*v+b.off+c))
			}
		}
	}
	prio := b.passes % n
	b.passes++
	rowUsed, colUsed := make([]bool, n), make([]bool, n)
	for k := 0; k < n; k++ {
		d := (prio + k) % n
		for row := 0; row < n; row++ {
			col := (d - row + n) % n
			if m.Get(row, col) && !rowUsed[row] && !colUsed[col] {
				rowUsed[row], colUsed[col] = true, true
				grants[r.vcAt(b, row)] = r.vcAt(b, col)
			}
		}
	}
}

// fuzzVCSpecs are the VC organizations the fuzz covers: everything up to the
// paper's largest (2×2×4), an odd one, and two that fill the 64-bit mask. The
// first five have V <= 4.
var fuzzVCSpecs = []VCSpec{
	NewVCSpec(1, 1, 1), NewVCSpec(1, 1, 2), NewVCSpec(2, 1, 1), NewVCSpec(2, 1, 2), NewVCSpec(1, 2, 2),
	NewVCSpec(2, 2, 1), NewVCSpec(1, 2, 1), NewVCSpec(2, 2, 2), NewVCSpec(2, 1, 4), NewVCSpec(1, 2, 4),
	NewVCSpec(2, 2, 4), NewVCSpec(3, 2, 5), NewVCSpec(1, 1, 64), NewVCSpec(2, 2, 16),
}

// fuzzVCDims maps two selectors onto a radix (1-10 or 64) and a spec. A
// matrix-arbiter tree bank holds P²·w² priority bits per output port, so the
// two word-boundary sizes are not combined: 64 ports come with at most 4 VCs,
// 64 VCs with at most 5 ports.
func fuzzVCDims(pSel, specSel uint8) (int, VCSpec) {
	p := int(pSel % 11)
	if p == 0 {
		p = 64
	}
	spec := fuzzVCSpecs[int(specSel)%len(fuzzVCSpecs)]
	if p == 64 && spec.V() > 4 {
		spec = fuzzVCSpecs[int(specSel)%5]
	}
	if spec.V() == 64 && p > 5 {
		p -= 5
	}
	return p, spec
}

var fuzzVCArchs = []alloc.Arch{alloc.SepIF, alloc.SepOF, alloc.Wavefront}

// FuzzVCAllocator drives the production VC allocator and refVC through the
// same program: prog is read two bytes at a time as (operation, argument) —
// Allocate, or Push of every rewritten entry and Run, after rewriting a
// random subset of the reused request slice (rewrites include same-value
// ones, and pushes of entries the caller touched without changing), so dense
// and pushed cycles interleave at random; SkipIdle(k); or Reset. After every
// allocation the grants must be equal and legal, Run's granted words must
// name exactly the granted input VCs, a wavefront's matching must be maximal,
// and a separable allocator must grant a request that has no competitor.
func FuzzVCAllocator(f *testing.F) {
	// One seed per architecture × arbiter kind × dense/sparse at the paper's
	// two largest design points, plus the word-boundary sizes.
	prog := []byte{0, 3, 3, 2, 1, 1, 6, 13, 4, 0, 0, 2, 7, 0, 5, 3, 6, 200, 2, 2, 3, 1, 0, 0}
	for sel := 0; sel < len(fuzzVCArchs)*4; sel++ {
		f.Add(uint8(sel), uint8(5+5*(sel%2)), uint8(8+2*(sel%2)), uint64(sel), prog)
	}
	f.Add(uint8(0), uint8(3), uint8(12), uint64(64), prog)  // sep_if rr, 3 ports × 1×1×64
	f.Add(uint8(7), uint8(5), uint8(13), uint64(65), prog)  // sep_of m sparse, 5 × 2×2×16
	f.Add(uint8(9), uint8(2), uint8(12), uint64(66), prog)  // wf sparse, 2 × 1×1×64
	f.Add(uint8(2), uint8(0), uint8(3), uint64(67), prog)   // sep_if m, 64 ports × 2×1×2
	f.Add(uint8(5), uint8(0), uint8(4), uint64(68), prog)   // sep_of rr sparse, 64 × 1×2×2
	f.Add(uint8(8), uint8(1), uint8(0), uint64(69), prog)   // wf, 1 port × 1×1×1
	f.Add(uint8(6), uint8(10), uint8(11), uint64(70), prog) // sep_of m, 10 × 3×2×5
	f.Fuzz(func(t *testing.T, cfgSel, pSel, specSel uint8, seed uint64, prog []byte) {
		p, spec := fuzzVCDims(pSel, specSel)
		sel := int(cfgSel) % (len(fuzzVCArchs) * 4)
		cfg := VCAllocConfig{
			Ports: p, Spec: spec,
			Arch:    fuzzVCArchs[sel/4],
			ArbKind: fuzzKinds[sel/2%2],
			Sparse:  sel%2 == 1,
		}
		if len(prog) > 64 {
			prog = prog[:64] // a wide reference cycle is slow; 32 operations say enough
		}
		runVCProgram(t, cfg, seed, prog)
	})
}

func runVCProgram(t *testing.T, cfg VCAllocConfig, seed uint64, prog []byte) {
	p, spec := cfg.Ports, cfg.Spec
	v := spec.V()
	eng := NewVCAllocator(cfg)
	ref := newRefVC(cfg)
	rng := xrand.New(seed)
	reqs := make([]VCRequest, p*v)
	name := fmt.Sprintf("%s %dx%s", eng.Name(), p, spec)
	all := ^uint64(0) >> uint(64-v)

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
			continue
		}

		// Rewrite a subset of the entries in place: a handful, 5 %, half or all.
		churn := []float64{0, 0.05, 0.5, 1}[arg%4]
		few := 0
		if churn == 0 {
			few = 1 + arg/4%3
		}
		push := op >= 3
		pushEntry := func(i int) {
			if push {
				eng.Push(i/v, i%v, reqs[i].Active && reqs[i].Candidates != 0)
			}
		}
		for i := range reqs {
			if !(rng.Bool(churn) || (few > 0 && rng.Intn(p*v) < few)) {
				continue
			}
			// Rewritten entries may or may not really differ.
			switch k := rng.Intn(10); {
			case k < 5:
				// What the router sends: a legal successor class, less the
				// output VCs that are taken.
				m, rc, _ := spec.Decompose(i % v)
				first, end := spec.SuccessorClasses(rc)
				lo, hi := spec.ClassRange(m, first+rng.Intn(end-first))
				free := all
				if rng.Bool(0.5) {
					free = rng.Uint64()
				}
				reqs[i] = VCRequest{Active: true, OutPort: rng.Intn(p),
					Candidates: refCand(v, (1<<uint(hi)-1)&^(1<<uint(lo)-1)&free)}
			case k < 7:
				// Anything at all, the empty set and other message classes
				// included.
				reqs[i] = VCRequest{Active: true, OutPort: rng.Intn(p), Candidates: refCand(v, rng.Uint64()&rng.Uint64()&all)}
			case k < 9:
				// An inactive entry's port and candidates are never read.
				reqs[i] = VCRequest{OutPort: []int{-1, p, 1 << 20, rng.Intn(p)}[rng.Intn(4)], Candidates: refCand(v, rng.Uint64()&all)}
			}
			pushEntry(i)
		}
		if arg/16%2 == 1 {
			pushEntry(rng.Intn(p * v)) // an entry the caller touched without changing
		}

		want := ref.Allocate(reqs)
		var got []int
		if push {
			var granted []uint64
			got, granted = eng.Run(reqs)
			for i, g := range got {
				if (g >= 0) != (granted[i/v]>>uint(i%v)&1 != 0) {
					t.Fatalf("%s step %d: granted words %b disagree with the grant %d to input VC %d", name, pc/2, granted, g, i)
				}
			}
		} else {
			got = eng.Allocate(reqs)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s step %d (op %d) input VC %d: engine grants %d, reference %d\nreqs %+v",
					name, pc/2, op, i, got[i], want[i], reqs)
			}
		}
		if err := CheckVCGrants(p, spec, reqs, got); err != nil {
			t.Fatalf("%s step %d: %v", name, pc/2, err)
		}
		checkVCProperties(t, name, cfg, reqs, got)
	}
}

// checkVCProperties asserts what must hold of any correct allocator, whatever
// its priority state: a wavefront leaves no request with its input VC and one
// of its candidate output VCs both unmatched, and a separable allocator grants
// a request that is the only one it considers. An allocator considers the
// candidates inside the input VC's own block: all of them, or under the sparse
// scheme those of the input VC's message class.
func checkVCProperties(t *testing.T, name string, cfg VCAllocConfig, reqs []VCRequest, grants []int) {
	v := cfg.Spec.V()
	held := make([]bool, len(reqs))
	for _, g := range grants {
		if g >= 0 {
			held[g] = true
		}
	}
	considered, lone := 0, -1
	for i, q := range reqs {
		lo, hi := 0, v
		if cfg.Sparse {
			per := v / cfg.Spec.MessageClasses
			lo = i % v / per * per
			hi = lo + per
		}
		any := false
		for c := lo; c < hi; c++ {
			if !refWants(q, c) {
				continue
			}
			any = true
			if cfg.Arch == alloc.Wavefront && grants[i] < 0 && !held[q.OutPort*v+c] {
				t.Fatalf("%s: not maximal: input VC %d and output VC (%d,%d) both free\nreqs %+v\ngrants %v",
					name, i, q.OutPort, c, reqs, grants)
			}
		}
		if any {
			considered++
			lone = i
		}
	}
	if considered == 1 && grants[lone] < 0 {
		t.Fatalf("%s: lone request %d not granted", name, lone)
	}
}

// refCand is the candidate set holding the VCs whose bits are set in word, and
// refWants reports whether request q asks for output VC c at its port. They
// are the reference's only contact with how VCRequest stores candidates.
func refCand(v int, word uint64) VCMask { return VCMask(word) }

func refWants(q VCRequest, c int) bool { return q.Active && q.Candidates.Get(c) }
