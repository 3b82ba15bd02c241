package quality

import (
	"math/bits"

	"repro/internal/core"
)

// The normaliser: the size of a maximum matching of each request set, taken
// straight from the request slices. Only the size enters a quality point, and
// a maximum matching's size is unique, so any exact algorithm gives the
// tables alloc.NewMaximum gave on the materialised request matrix.
//
// Both request graphs split into blocks of at most 64 columns. A switch
// request set is one block: rows are input ports, columns output ports. A VC
// request names exactly one output port and its candidates lie inside that
// port, so the VC request graph is a disjoint union of one block per output
// port (rows: the input VCs requesting it, columns: its VCs). A maximum
// matching of a disjoint union is the union of maximum matchings of the
// parts, so the size is the sum of the blocks' sizes.

// wordBlock grows a maximum matching of one block a row at a time: Kuhn's
// algorithm with every row's columns, and every set of columns it tracks, as
// one word.
type wordBlock struct {
	taken uint64    // columns in the matching
	dead  uint64    // columns no augmenting path can reach any more (see add)
	seen  uint64    // columns visited by the search in progress
	owner [64]int32 // owner[c]: the row holding column c, where taken has bit c
}

func (b *wordBlock) reset() { b.taken, b.dead = 0, 0 }

// add offers row i, whose columns are rows[i], and reports whether the
// matching grew. A search that fails has visited a set of taken columns whose
// holders reach, alternating, only columns of the same set. An augmenting
// path that entered the set could never leave it for a free column, so no
// later search needs to visit it: it stays dead for the rest of the block.
func (b *wordBlock) add(rows []uint64, i int) bool {
	b.seen = b.dead
	if b.augment(rows, i) {
		return true
	}
	b.dead = b.seen
	return false
}

// augment searches for an augmenting path from row i. A free column ends it
// at once (the greedy first pass); otherwise every column of the row is
// marked seen before any is followed, which loses no path: a deeper search
// skipping one of them leaves it to this row's own loop.
func (b *wordBlock) augment(rows []uint64, i int) bool {
	w := rows[i] &^ b.seen
	if free := w &^ b.taken; free != 0 {
		c := bits.TrailingZeros64(free)
		b.taken |= 1 << uint(c)
		b.owner[c] = int32(i)
		return true
	}
	b.seen |= w
	for ; w != 0; w &= w - 1 {
		c := bits.TrailingZeros64(w)
		if b.augment(rows, int(b.owner[c])) {
			b.owner[c] = int32(i)
			return true
		}
	}
	return false
}

// vcMatchSize returns the size of a maximum matching of reqs, one output
// port per block. rows (one word per request) and blocks (one per output
// port) are scratch.
func vcMatchSize(reqs []core.VCRequest, rows []uint64, blocks []wordBlock) int {
	for p := range blocks {
		blocks[p].reset()
	}
	n := 0
	for i, r := range reqs {
		if !r.Active || r.Candidates == 0 {
			continue
		}
		rows[i] = uint64(r.Candidates)
		if blocks[r.OutPort].add(rows, i) {
			n++
		}
	}
	return n
}

// switchMatchSize returns the size of a maximum port-level matching of reqs,
// vcs requests per input port: switch allocation grants at most one flit per
// input port, so rows are input ports and columns output ports. rows (one
// word per input port) and b are scratch.
func switchMatchSize(reqs []core.SwitchRequest, vcs int, rows []uint64, b *wordBlock) int {
	for p := range rows {
		var w uint64
		for _, r := range reqs[p*vcs : (p+1)*vcs] {
			if r.Active {
				w |= 1 << uint(r.OutPort)
			}
		}
		rows[p] = w
	}
	b.reset()
	n := 0
	for p, w := range rows {
		if w != 0 && b.add(rows, p) {
			n++
		}
	}
	return n
}
