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
// output arbitration (iSLIP rule, §2.1); output arbiters' grants are final,
// so they update whenever they grant. One pass, as in the paper: a row whose
// pick loses stays unmatched this cycle.
type sepIF struct {
	rows, cols int
	name       string
	inArb      arbiter.Bank // per row, cols wide
	outArb     arbiter.Bank // per col, rows wide
	fwd        []bitvec.Vec // per col, rows wide: forwarded requests
	gnt        bitvec.Matrix
}

func newSepIF(c Config) *sepIF {
	a := &sepIF{rows: c.Rows, cols: c.Cols, name: "sep_if/" + c.ArbKind.String()}
	// Two passes over one slab (see package slab): measure, then carve.
	var s arbiter.Slab
	for pass := 0; pass < 2; pass++ {
		a.inArb = s.Bank(c.ArbKind, c.Rows, c.Cols)
		a.outArb = s.Bank(c.ArbKind, c.Cols, c.Rows)
		a.fwd = s.Vecs(c.Cols, c.Rows)
		a.gnt = s.Matrix(c.Rows, c.Cols)
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
	for j := range a.fwd {
		a.fwd[j].Reset()
	}
	// Input stage: each row picks one of its requested columns.
	for i := 0; i < a.rows; i++ {
		if c := a.inArb.Pick(i, req.Row(i)); c >= 0 {
			a.fwd[c].Set(i)
		}
	}
	// Output stage: each column arbitrates among the rows that picked it.
	// The output grant is final: update the output arbiter, and the input
	// arbiter whose pick succeeded end to end.
	for j := range a.fwd {
		if w := a.outArb.Pick(j, &a.fwd[j]); w >= 0 {
			a.gnt.Set(w, j)
			a.outArb.Update(j, w)
			a.inArb.Update(w, j)
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
	name       string
	outArb     arbiter.Bank // per col, rows wide (first stage)
	inArb      arbiter.Bank // per row, cols wide (second stage)
	colReq     []bitvec.Vec // per col, rows wide: the requesting rows
	offered    []bitvec.Vec // per row, cols wide: columns offered to row
	gnt        bitvec.Matrix
}

func newSepOF(c Config) *sepOF {
	a := &sepOF{rows: c.Rows, cols: c.Cols, name: "sep_of/" + c.ArbKind.String()}
	var s arbiter.Slab
	for pass := 0; pass < 2; pass++ {
		a.outArb = s.Bank(c.ArbKind, c.Cols, c.Rows)
		a.inArb = s.Bank(c.ArbKind, c.Rows, c.Cols)
		a.colReq = s.Vecs(c.Cols, c.Rows)
		a.offered = s.Vecs(c.Rows, c.Cols)
		a.gnt = s.Matrix(c.Rows, c.Cols)
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
	// Transpose the requests into per-column vectors.
	for j := range a.colReq {
		a.colReq[j].Reset()
	}
	for i := 0; i < a.rows; i++ {
		a.offered[i].Reset()
		row := req.Row(i)
		for j := row.NextSet(0); j >= 0; j = row.NextSet(j + 1) {
			a.colReq[j].Set(i)
		}
	}
	// Output stage: each column picks one of the rows requesting it.
	for j := range a.colReq {
		if w := a.outArb.Pick(j, &a.colReq[j]); w >= 0 {
			a.offered[w].Set(j)
		}
	}
	// Input stage: each row picks among the columns offered to it. The row
	// grant is final: update the row arbiter, and the column arbiter whose
	// offer was taken.
	for i := range a.offered {
		if c := a.inArb.Pick(i, &a.offered[i]); c >= 0 {
			a.gnt.Set(i, c)
			a.inArb.Update(i, c)
			a.outArb.Update(c, i)
		}
	}
	return &a.gnt
}

// Wave is the diagonal sweep of an n×n wavefront block (paper Fig. 2), one
// implementation for two feeders: NewWavefront's allocator hands it the rows
// of a request matrix, the VC allocator's wavefront engines (internal/core)
// their request words. Requests are granted diagonal by diagonal starting
// from a rotating priority diagonal; a granted request blocks its entire row
// and column for later diagonals. The result is always a maximal matching.
// Weak fairness comes from advancing the starting diagonal after every sweep.
//
// Cell (i, j) lies on diagonal class (i + j) mod n, and a row meets each
// class once, so j is recoverable from (class, i). Request buckets cells by
// class as they arrive; Sweep visits only the classes that hold one and
// leaves every bucket empty. Sets of rows, columns and classes are raw words,
// rw per set: bucketing sets one bit per request, which a call per bit would
// dominate.
type Wave struct {
	n, rw   int
	prio    int
	classes []uint64 // diagonal classes holding a request
	rows    []uint64 // per class d, at d*rw: the rows requesting on it
	rowBusy []uint64 // rows granted by the latest sweep
	colBusy []uint64 // columns granted by the latest sweep
}

// Layout carves an n×n block's storage out of s. Like all slab layout code it
// runs once to measure and once to carve.
func (w *Wave) Layout(s *bitvec.Slab, n int) {
	w.n, w.rw = n, (n+63)/64
	w.classes = s.Words(w.rw)
	w.rows = s.Words(n * w.rw)
	w.rowBusy = s.Words(w.rw)
	w.colBusy = s.Words(w.rw)
}

// Request adds the cells (row, col+b) for every set bit b of cols. All of them
// must lie inside the block: a cell outside would wrap onto a diagonal of the
// block and be granted a column it never asked for.
func (w *Wave) Request(row, col int, cols uint64) {
	if uint(row) >= uint(w.n) || col < 0 || col+bits.Len64(cols) > w.n {
		panic(fmt.Sprintf("alloc: wavefront cells (%d, %d+%#x) outside a %d×%d block", row, col, cols, w.n, w.n))
	}
	// The classes the cells lie on are cols moved to position row+col, mod n.
	// Both are below n, so one conditional subtraction reduces the sum, and
	// the classes pass n-1 at most once: what does wraps to class 0.
	pos, low := row+col, cols
	if pos >= w.n {
		pos -= w.n
	} else if k := uint(w.n - pos); k < 64 && cols>>k != 0 {
		w.markClasses(0, cols>>k)
		low = cols & (1<<k - 1)
	}
	w.markClasses(pos, low)
	iw, ibit := row/64, uint64(1)<<(uint(row)%64)
	for base := row + col; cols != 0; cols &= cols - 1 {
		d := base + bits.TrailingZeros64(cols)
		if d >= w.n {
			d -= w.n
		}
		w.rows[d*w.rw+iw] |= ibit
	}
}

// markClasses ORs word into the class set with its bit 0 on class pos; no set
// bit lands at or above n.
func (w *Wave) markClasses(pos int, word uint64) {
	wi, shift := uint(pos)/64, uint(pos)%64
	w.classes[wi] |= word << shift
	if hi := word >> 1 >> (63 - shift); hi != 0 {
		w.classes[wi+1] |= hi
	}
}

// Sweep grants the requested cells class by class, from the priority diagonal
// round to the one before it, calling grant for each; it empties the buckets
// and turns the priority diagonal, requests or not.
func (w *Wave) Sweep(grant func(row, col int)) {
	clear(w.rowBusy)
	clear(w.colBusy)
	w.visit(w.prio, w.n, grant)
	w.visit(0, w.prio, grant)
	if w.prio++; w.prio == w.n {
		w.prio = 0
	}
}

// SkipIdle turns the priority diagonal as k sweeps without a request would.
func (w *Wave) SkipIdle(k int64) { w.prio = int((int64(w.prio) + k) % int64(w.n)) }

// Reset restores the initial priority diagonal.
func (w *Wave) Reset() { w.prio = 0 }

// visit sweeps the classes in [lo, hi) that hold a request, in order.
func (w *Wave) visit(lo, hi int, grant func(row, col int)) {
	for wi := lo / 64; wi*64 < hi; wi++ {
		word := w.classes[wi]
		if wi == lo/64 {
			word &^= 1<<(uint(lo)%64) - 1
		}
		if rem := hi - wi*64; rem < 64 {
			word &= 1<<uint(rem) - 1
		}
		w.classes[wi] &^= word
		for ; word != 0; word &= word - 1 {
			w.sweepClass(wi*64+bits.TrailingZeros64(word), grant)
		}
	}
}

// sweepClass grants every request on diagonal class d whose row and column
// are still free, and empties the class. A row meets a diagonal once, so a
// grant made here cannot take the row of a later request of the same class.
func (w *Wave) sweepClass(d int, grant func(row, col int)) {
	rows := w.rows[d*w.rw : (d+1)*w.rw]
	for wi, word := range rows {
		if word == 0 {
			continue
		}
		rows[wi] = 0
		for word &^= w.rowBusy[wi]; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			i := wi*64 + b
			j := d - i
			if j < 0 {
				j += w.n
			}
			if cw, cb := &w.colBusy[j/64], uint64(1)<<(uint(j)%64); *cw&cb == 0 {
				*cw |= cb
				w.rowBusy[wi] |= 1 << uint(b)
				grant(i, j)
			}
		}
	}
}

// wavefront is the wavefront allocator of Tamir & Chi as used in the paper:
// one Wave over max(rows, cols) diagonal classes, fed from the request matrix.
type wavefront struct {
	rows, cols int
	wave       Wave
	gnt        bitvec.Matrix
}

// NewWavefront returns a rows×cols wavefront allocator.
func NewWavefront(rows, cols int) Allocator {
	a := &wavefront{rows: rows, cols: cols}
	var s bitvec.Slab
	for pass := 0; pass < 2; pass++ {
		a.gnt = s.Matrix(rows, cols)
		a.wave.Layout(&s, max(rows, cols))
		if pass == 0 {
			s.Alloc()
		}
	}
	return a
}

func (a *wavefront) Shape() (int, int) { return a.rows, a.cols }
func (a *wavefront) Name() string      { return "wf" }
func (a *wavefront) Reset()            { a.wave.Reset() }

func (a *wavefront) Allocate(req *bitvec.Matrix) *bitvec.Matrix {
	checkShape(req, a.rows, a.cols)
	// Only the rows the previous sweep granted hold a bit.
	for wi, w := range a.wave.rowBusy {
		for base := wi * 64; w != 0; w &= w - 1 {
			a.gnt.Row(base + bits.TrailingZeros64(w)).Reset()
		}
	}
	for i := 0; i < a.rows; i++ {
		for wi, w := range req.Row(i).Words() {
			if w != 0 {
				a.wave.Request(i, wi*64, w)
			}
		}
	}
	a.wave.Sweep(func(i, j int) { a.gnt.Set(i, j) })
	return &a.gnt
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
