// Package alloc implements the generic allocator architectures studied in
// Becker & Dally (SC '09) §2: separable input-first and output-first
// allocators, wavefront allocators, and a maximum-size reference allocator.
//
// An allocator computes a matching between requesters (matrix rows) and
// resources (matrix columns): grants are a subset of requests with at most
// one grant per row and per column. The implementations here mirror the
// paper's RTL structures cycle for cycle; the corresponding hardware cost
// models live in internal/costmodel and are derived from the same
// structural parameters.
package alloc

import (
	"fmt"
	"math/bits"

	"repro/internal/arbiter"
	"repro/internal/bitvec"
)

// Allocator computes matchings between rows (requesters) and columns
// (resources) of a request matrix.
type Allocator interface {
	// Shape returns the (rows, cols) dimensions the allocator was built for.
	Shape() (rows, cols int)
	// Allocate computes a matching for req and returns the grant matrix.
	// The returned matrix is owned by the allocator and remains valid only
	// until the next Allocate call; callers needing to retain it must Clone.
	// Priority state advances according to each architecture's fairness
	// rules, so consecutive calls with the same request matrix may yield
	// different (fair) matchings.
	Allocate(req *bitvec.Matrix) *bitvec.Matrix
	// Reset restores the initial priority state.
	Reset()
	// Name returns the paper's identifier for the architecture, e.g.
	// "sep_if/rr" or "wf".
	Name() string
}

// IdleSkipper is implemented by allocators whose priority state advances
// even on Allocate calls with an empty request matrix. An event-driven
// simulator that skips such calls outright must invoke SkipIdle with the
// number of skipped cycles to reproduce the dense stepper bit for bit.
// Allocators without the method are state-no-ops on empty input and may be
// skipped unconditionally.
//
// SkipIdle composes with the router's cached request vectors: while a
// router is quiescent its cache may still hold entries that went stale on
// the final stepped cycle (the pop that drained the last VC), but SkipIdle
// reads no request state — it only replays the request-independent priority
// rotation — and the events that staled those entries also set their dirty
// bits, which persist across the skipped gap. The first Step after wake-up
// rebuilds every stale entry before any allocator reads the slice, so the
// allocators observe exactly the request sequence of the dense schedule.
type IdleSkipper interface {
	SkipIdle(idleCycles int64)
}

// Arch names an allocator architecture.
type Arch int

const (
	// SepIF is a separable input-first allocator (paper Fig. 1a).
	SepIF Arch = iota
	// SepOF is a separable output-first allocator (paper Fig. 1b).
	SepOF
	// Wavefront is a wavefront allocator with rotating priority diagonal
	// (paper Fig. 2).
	Wavefront
	// Maximum is a maximum-size (augmenting-path) allocator used as the
	// matching-quality upper bound (paper §2.3). It provides no fairness.
	Maximum
)

// String returns the paper's short name for the architecture.
func (a Arch) String() string {
	switch a {
	case SepIF:
		return "sep_if"
	case SepOF:
		return "sep_of"
	case Wavefront:
		return "wf"
	case Maximum:
		return "max"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// Config parameterizes allocator construction.
type Config struct {
	// Arch selects the architecture.
	Arch Arch
	// Rows and Cols give the matrix dimensions.
	Rows, Cols int
	// ArbKind selects the arbiter implementation for separable
	// architectures (ignored by Wavefront and Maximum).
	ArbKind arbiter.Kind
	// Iterations is the number of separable iterations to run (>= 1).
	// The paper considers single-iteration allocation only (§2.1); values
	// above 1 are provided for the ablation study. Zero means 1.
	Iterations int
	// UnconditionalUpdate makes the first-stage arbiters advance their
	// priority whenever they produce a grant, even if it fails the second
	// arbitration stage. This is the naive policy the paper's fairness rule
	// (§2.1, [13]) exists to avoid: it synchronizes arbiter pointers and
	// causes pattern-dependent starvation and throughput loss. Provided for
	// the ablation study only.
	UnconditionalUpdate bool
}

func (c Config) iterations() int {
	if c.Iterations <= 0 {
		return 1
	}
	return c.Iterations
}

// New builds an allocator from the configuration.
func New(c Config) Allocator {
	if c.Rows <= 0 || c.Cols <= 0 {
		panic("alloc: dimensions must be positive")
	}
	switch c.Arch {
	case SepIF:
		return newSepIF(c)
	case SepOF:
		return newSepOF(c)
	case Wavefront:
		return NewWavefront(c.Rows, c.Cols)
	case Maximum:
		return NewMaximum(c.Rows, c.Cols)
	default:
		panic(fmt.Sprintf("alloc: unknown arch %d", int(c.Arch)))
	}
}

// sepIF is a separable input-first allocator: each row first picks one of
// its requested columns, then each column arbitrates among the forwarded
// requests. Input arbiters update priority only when their pick also wins
// output arbitration (iSLIP rule); output arbiters' grants are final, so
// they update whenever they grant.
type sepIF struct {
	rows, cols int
	iters      int
	uncond     bool
	name       string
	inArb      arbiter.Bank // per row, cols wide
	outArb     arbiter.Bank // per col, rows wide
	fwd        []bitvec.Vec // per col, rows wide: forwarded requests
	gnt        bitvec.Matrix
	rowFree    *bitvec.Vec
	colFree    *bitvec.Vec
	rowReq     *bitvec.Vec
}

func newSepIF(c Config) *sepIF {
	a := &sepIF{
		rows:   c.Rows,
		cols:   c.Cols,
		iters:  c.iterations(),
		uncond: c.UnconditionalUpdate,
		name:   "sep_if/" + c.ArbKind.String(),
	}
	// Two passes over one slab (see package slab): measure, then carve.
	var s arbiter.Slab
	for pass := 0; pass < 2; pass++ {
		a.inArb = s.Bank(c.ArbKind, c.Rows, c.Cols)
		a.outArb = s.Bank(c.ArbKind, c.Cols, c.Rows)
		a.fwd = s.Vecs(c.Cols, c.Rows)
		a.gnt = s.Matrix(c.Rows, c.Cols)
		a.rowFree = s.Vec(c.Rows)
		a.colFree = s.Vec(c.Cols)
		a.rowReq = s.Vec(c.Cols)
		if pass == 0 {
			s.Alloc()
		}
	}
	return a
}

func (a *sepIF) Shape() (int, int) { return a.rows, a.cols }
func (a *sepIF) Name() string      { return a.name }

func (a *sepIF) Reset() {
	a.inArb.Reset()
	a.outArb.Reset()
}

func (a *sepIF) Allocate(req *bitvec.Matrix) *bitvec.Matrix {
	checkShape(req, a.rows, a.cols)
	a.gnt.Reset()
	a.rowFree.SetAll()
	a.colFree.SetAll()
	for it := 0; it < a.iters; it++ {
		// Input stage: each unmatched row picks one requested free column.
		picked := false
		for j := 0; j < a.cols; j++ {
			a.fwd[j].Reset()
		}
		for i := a.rowFree.NextSet(0); i >= 0; i = a.rowFree.NextSet(i + 1) {
			if !a.rowReq.AndInto(req.Row(i), a.colFree) {
				continue
			}
			c := a.inArb.Pick(i, a.rowReq)
			if c < 0 {
				continue
			}
			if a.uncond {
				// Ablation: naive policy updates on every first-stage grant.
				a.inArb.Update(i, c)
			}
			a.fwd[c].Set(i)
			picked = true
		}
		if !picked {
			break
		}
		// Output stage: each free column arbitrates among forwarded requests.
		for j := a.colFree.NextSet(0); j >= 0; j = a.colFree.NextSet(j + 1) {
			if !a.fwd[j].Any() {
				continue
			}
			w := a.outArb.Pick(j, &a.fwd[j])
			if w < 0 {
				continue
			}
			a.gnt.Set(w, j)
			a.rowFree.Clear(w)
			a.colFree.Clear(j)
			// The output grant is final: update the output arbiter, and the
			// input arbiter whose pick succeeded end to end.
			a.outArb.Update(j, w)
			if !a.uncond {
				a.inArb.Update(w, j)
			}
		}
	}
	return &a.gnt
}

// sepOF is a separable output-first allocator: each column first picks one
// of the rows requesting it, then each row arbitrates among the columns that
// selected it. Output arbiters update priority only when their pick wins the
// row-side arbitration; row arbiters' grants are final.
type sepOF struct {
	rows, cols int
	iters      int
	uncond     bool
	name       string
	outArb     arbiter.Bank // per col, rows wide (first stage)
	inArb      arbiter.Bank // per row, cols wide (second stage)
	offered    []bitvec.Vec // per row, cols wide: columns offered to row
	gnt        bitvec.Matrix
	rowFree    *bitvec.Vec
	colFree    *bitvec.Vec
	colReq     []bitvec.Vec // per col, rows wide: requesting free rows
	colAny     *bitvec.Vec  // cols whose colReq vector is dirty
}

func newSepOF(c Config) *sepOF {
	a := &sepOF{
		rows:   c.Rows,
		cols:   c.Cols,
		iters:  c.iterations(),
		uncond: c.UnconditionalUpdate,
		name:   "sep_of/" + c.ArbKind.String(),
	}
	var s arbiter.Slab
	for pass := 0; pass < 2; pass++ {
		a.outArb = s.Bank(c.ArbKind, c.Cols, c.Rows)
		a.inArb = s.Bank(c.ArbKind, c.Rows, c.Cols)
		a.offered = s.Vecs(c.Rows, c.Cols)
		a.gnt = s.Matrix(c.Rows, c.Cols)
		a.rowFree = s.Vec(c.Rows)
		a.colFree = s.Vec(c.Cols)
		a.colReq = s.Vecs(c.Cols, c.Rows)
		a.colAny = s.Vec(c.Cols)
		if pass == 0 {
			s.Alloc()
		}
	}
	return a
}

func (a *sepOF) Shape() (int, int) { return a.rows, a.cols }
func (a *sepOF) Name() string      { return a.name }

func (a *sepOF) Reset() {
	a.inArb.Reset()
	a.outArb.Reset()
}

func (a *sepOF) Allocate(req *bitvec.Matrix) *bitvec.Matrix {
	checkShape(req, a.rows, a.cols)
	a.gnt.Reset()
	a.rowFree.SetAll()
	a.colFree.SetAll()
	for it := 0; it < a.iters; it++ {
		// Clear the per-column request vectors dirtied by the previous
		// iteration (or the previous Allocate call).
		for j := a.colAny.NextSet(0); j >= 0; j = a.colAny.NextSet(j + 1) {
			a.colReq[j].Reset()
		}
		a.colAny.Reset()
		// Transpose the requests of free rows into per-column vectors.
		// The output stage consumes no rows or columns, so building them
		// all up front is equivalent to the per-column scan.
		for i := a.rowFree.NextSet(0); i >= 0; i = a.rowFree.NextSet(i + 1) {
			a.offered[i].Reset()
			row := req.Row(i)
			for j := row.NextSet(0); j >= 0; j = row.NextSet(j + 1) {
				if a.colFree.Get(j) {
					a.colReq[j].Set(i)
					a.colAny.Set(j)
				}
			}
		}
		if !a.colAny.Any() {
			break
		}
		// Output stage: each free column picks one requesting free row.
		picked := false
		for j := a.colAny.NextSet(0); j >= 0; j = a.colAny.NextSet(j + 1) {
			w := a.outArb.Pick(j, &a.colReq[j])
			if w < 0 {
				continue
			}
			if a.uncond {
				// Ablation: naive policy updates on every first-stage grant.
				a.outArb.Update(j, w)
			}
			a.offered[w].Set(j)
			picked = true
		}
		if !picked {
			break
		}
		// Input stage: each free row picks among the columns offered to it.
		for i := a.rowFree.NextSet(0); i >= 0; i = a.rowFree.NextSet(i + 1) {
			if !a.offered[i].Any() {
				continue
			}
			c := a.inArb.Pick(i, &a.offered[i])
			if c < 0 {
				continue
			}
			a.gnt.Set(i, c)
			a.rowFree.Clear(i)
			a.colFree.Clear(c)
			a.inArb.Update(i, c)
			if !a.uncond {
				a.outArb.Update(c, i)
			}
		}
	}
	return &a.gnt
}

// wavefront implements the wavefront allocator of Tamir & Chi as used in the
// paper: requests are granted diagonal by diagonal starting from a rotating
// priority diagonal; a granted request blocks its entire row and column for
// later diagonals. The result is always a maximal matching. Weak fairness
// comes from advancing the starting diagonal after every allocation.
type wavefront struct {
	rows, cols int
	n          int // number of diagonal classes = max(rows, cols)
	prio       int
	gnt        bitvec.Matrix
	colFree    *bitvec.Vec
	diagAny    *bitvec.Vec // diagonal classes whose diagRows set is dirty
	// Sets of rows as raw words, rw words each: the bucketing loop sets one
	// bit per request, which a call per bit would dominate.
	rw       int
	rowBusy  []uint64 // rows granted by the latest Allocate: the non-zero rows of gnt
	diagRows []uint64 // per diagonal class d, at d*rw: rows requesting on it
}

// NewWavefront returns a rows×cols wavefront allocator.
func NewWavefront(rows, cols int) Allocator {
	n := rows
	if cols > n {
		n = cols
	}
	a := &wavefront{rows: rows, cols: cols, n: n, rw: (rows + 63) / 64}
	var s bitvec.Slab
	for pass := 0; pass < 2; pass++ {
		a.gnt = s.Matrix(rows, cols)
		a.colFree = s.Vec(cols)
		a.diagAny = s.Vec(n)
		a.rowBusy = s.Words(a.rw)
		a.diagRows = s.Words(n * a.rw)
		if pass == 0 {
			s.Alloc()
		}
	}
	return a
}

func (a *wavefront) Shape() (int, int) { return a.rows, a.cols }
func (a *wavefront) Name() string      { return "wf" }
func (a *wavefront) Reset()            { a.prio = 0 }

// SkipIdle implements IdleSkipper: an Allocate call with an empty request
// matrix grants nothing but still rotates the priority diagonal, so skipping
// idle cycles must advance prio by the same amount to stay bit-exact.
func (a *wavefront) SkipIdle(idleCycles int64) {
	a.prio = int((int64(a.prio) + idleCycles) % int64(a.n))
}

func (a *wavefront) Allocate(req *bitvec.Matrix) *bitvec.Matrix {
	checkShape(req, a.rows, a.cols)
	// Only the rows the previous call granted hold a bit.
	for wi, w := range a.rowBusy {
		for base := wi * 64; w != 0; w &= w - 1 {
			a.gnt.Row(base + bits.TrailingZeros64(w)).Reset()
		}
		a.rowBusy[wi] = 0
	}
	// Bucket requests by diagonal class. Since n >= cols, each row has at
	// most one column on any diagonal: (i, j) lies on class (i + j) mod n,
	// and j is recoverable from (class, i). Both are below n, so one
	// conditional subtraction (or addition, going back) reduces mod n.
	for d := a.diagAny.NextSet(0); d >= 0; d = a.diagAny.NextSet(d + 1) {
		clear(a.diagRows[d*a.rw : (d+1)*a.rw])
	}
	a.diagAny.Reset()
	for i := 0; i < a.rows; i++ {
		iw, ibit := i/64, uint64(1)<<(uint(i)%64)
		for wi, w := range req.Row(i).Words() {
			if w == 0 {
				continue
			}
			// Column wi*64+b is on class i+wi*64+b mod n: the row word, moved
			// to that position, is the set of classes it touches. It passes
			// class n-1 at most once; what does wraps to class 0.
			pos, low := i+wi*64, w
			if pos >= a.n {
				pos -= a.n
			} else if k := uint(a.n - pos); k < 64 && w>>k != 0 {
				a.diagAny.OrWordAt(0, w>>k)
				low = w & (1<<k - 1)
			}
			a.diagAny.OrWordAt(pos, low)
			for base := i + wi*64; w != 0; w &= w - 1 {
				d := base + bits.TrailingZeros64(w)
				if d >= a.n {
					d -= a.n
				}
				a.diagRows[d*a.rw+iw] |= ibit
			}
		}
	}
	// Visit the classes that hold a request, from the priority diagonal
	// round to the one before it.
	if first := a.diagAny.NextFrom(a.prio); first >= 0 {
		a.colFree.SetAll()
		for d := first; ; {
			a.sweep(d)
			if d = a.diagAny.NextFrom(d + 1); d == first {
				break
			}
		}
	}
	if a.prio++; a.prio == a.n {
		a.prio = 0
	}
	return &a.gnt
}

// sweep grants every request on diagonal class d whose row and column are
// still free. A row meets a diagonal once, so a grant made here cannot take
// the row of a later request of the same sweep.
func (a *wavefront) sweep(d int) {
	for wi, busy := range a.rowBusy {
		for w := a.diagRows[d*a.rw+wi] &^ busy; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			i := wi*64 + b
			j := d - i
			if j < 0 {
				j += a.n
			}
			if a.colFree.Get(j) {
				a.gnt.Set(i, j)
				a.rowBusy[wi] |= 1 << uint(b)
				a.colFree.Clear(j)
			}
		}
	}
}

// maximum is a maximum-size allocator based on Hopcroft–Karp style repeated
// augmenting-path search (Ford–Fulkerson on the bipartite request graph).
// It is used as the matching-quality reference; it provides no fairness and
// would be impractical as single-cycle router hardware (paper §2.3).
type maximum struct {
	rows, cols int
	matchRow   []int // matchRow[i] = matched col or -1
	matchCol   []int // matchCol[j] = matched row or -1
	visited    []bool
	gnt        *bitvec.Matrix
}

// NewMaximum returns a rows×cols maximum-size allocator.
func NewMaximum(rows, cols int) Allocator {
	return &maximum{
		rows:     rows,
		cols:     cols,
		matchRow: make([]int, rows),
		matchCol: make([]int, cols),
		visited:  make([]bool, cols),
		gnt:      bitvec.NewMatrix(rows, cols),
	}
}

func (a *maximum) Shape() (int, int) { return a.rows, a.cols }
func (a *maximum) Name() string      { return "max" }
func (a *maximum) Reset()            {}

func (a *maximum) Allocate(req *bitvec.Matrix) *bitvec.Matrix {
	checkShape(req, a.rows, a.cols)
	for i := range a.matchRow {
		a.matchRow[i] = -1
	}
	for j := range a.matchCol {
		a.matchCol[j] = -1
	}
	for i := 0; i < a.rows; i++ {
		if !req.Row(i).Any() {
			continue
		}
		for j := range a.visited {
			a.visited[j] = false
		}
		a.augment(req, i)
	}
	a.gnt.Reset()
	for i, j := range a.matchRow {
		if j >= 0 {
			a.gnt.Set(i, j)
		}
	}
	return a.gnt
}

// augment searches for an augmenting path from row i (Kuhn's algorithm).
func (a *maximum) augment(req *bitvec.Matrix, i int) bool {
	row := req.Row(i)
	for j := row.NextSet(0); j >= 0; j = row.NextSet(j + 1) {
		if a.visited[j] {
			continue
		}
		a.visited[j] = true
		if a.matchCol[j] < 0 || a.augment(req, a.matchCol[j]) {
			a.matchCol[j] = i
			a.matchRow[i] = j
			return true
		}
	}
	return false
}

// MatchSize returns the number of grants in a maximum matching of req
// without constructing an allocator. It is a convenience for quality
// normalization.
func MatchSize(req *bitvec.Matrix) int {
	a := NewMaximum(req.Rows(), req.Cols())
	return a.Allocate(req).Count()
}

// IsMaximal reports whether gnt is a maximal matching for req: no request
// (i, j) exists with both row i and column j unmatched.
func IsMaximal(req, gnt *bitvec.Matrix) bool {
	rows, cols := req.Rows(), req.Cols()
	rowUsed := make([]bool, rows)
	colUsed := make([]bool, cols)
	for i := 0; i < rows; i++ {
		gnt.Row(i).ForEach(func(j int) {
			rowUsed[i] = true
			colUsed[j] = true
		})
	}
	for i := 0; i < rows; i++ {
		if rowUsed[i] {
			continue
		}
		blocked := true
		req.Row(i).ForEach(func(j int) {
			if !colUsed[j] {
				blocked = false
			}
		})
		if !blocked {
			return false
		}
	}
	return true
}

// Validate reports an error when gnt is not a valid matching for req:
// grants must be a subset of requests with at most one grant per row and
// per column.
func Validate(req, gnt *bitvec.Matrix) error {
	if gnt.Rows() != req.Rows() || gnt.Cols() != req.Cols() {
		return fmt.Errorf("alloc: grant shape %dx%d does not match request shape %dx%d",
			gnt.Rows(), gnt.Cols(), req.Rows(), req.Cols())
	}
	if !gnt.SubsetOf(req) {
		return fmt.Errorf("alloc: grant issued without request")
	}
	if !gnt.IsMatching() {
		return fmt.Errorf("alloc: grants violate matching constraint")
	}
	return nil
}

func checkShape(req *bitvec.Matrix, rows, cols int) {
	if req.Rows() != rows || req.Cols() != cols {
		panic(fmt.Sprintf("alloc: request shape %dx%d, allocator shape %dx%d",
			req.Rows(), req.Cols(), rows, cols))
	}
}
