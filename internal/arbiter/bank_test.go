package arbiter

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/xrand"
)

// refTree is the tree arbiter of §4.1 assembled from standalone flat
// arbiters, one heap object each, with none of TreeBank's shortcuts: the
// reference the bank layout is compared against.
type refTree struct {
	groups, groupSize int
	root              Arbiter
	leaves            []Arbiter
}

func newRefTree(k Kind, groups, groupSize int) *refTree {
	t := &refTree{groups: groups, groupSize: groupSize, root: New(k, groups)}
	for g := 0; g < groups; g++ {
		t.leaves = append(t.leaves, New(k, groupSize))
	}
	return t
}

func (t *refTree) Size() int { return t.groups * t.groupSize }

func (t *refTree) Pick(req *bitvec.Vec) int {
	rootReq := bitvec.New(t.groups)
	for i := req.NextSet(0); i >= 0; i = req.NextSet(i + 1) {
		rootReq.Set(i / t.groupSize)
	}
	g := t.root.Pick(rootReq)
	if g < 0 {
		return -1
	}
	leafReq := bitvec.New(t.groupSize)
	for i := 0; i < t.groupSize; i++ {
		leafReq.SetTo(i, req.Get(g*t.groupSize+i))
	}
	return g*t.groupSize + t.leaves[g].Pick(leafReq)
}

func (t *refTree) Update(winner int) {
	t.root.Update(winner / t.groupSize)
	t.leaves[winner/t.groupSize].Update(winner % t.groupSize)
}

func (t *refTree) Reset() {
	t.root.Reset()
	for _, l := range t.leaves {
		l.Reset()
	}
}

// indexed is what Bank and TreeBank have in common.
type indexed interface {
	Pick(i int, req *bitvec.Vec) int
	Update(i, winner int)
	Reset()
}

// checkBankEquivalence drives bank and one standalone reference arbiter per
// bank slot through the same random sequence of Pick, Update and Reset calls
// and requires identical picks throughout. Slots are visited in random order,
// so state leaking from one slot into a neighbour shows up as a diverging
// pick on the neighbour.
func checkBankEquivalence(t *testing.T, bank indexed, refs []Arbiter, seed uint64) {
	t.Helper()
	rng := xrand.New(seed)
	n := refs[0].Size()
	req := bitvec.New(n)
	for step := 0; step < 4000; step++ {
		i := rng.Intn(len(refs))
		switch op := rng.Intn(20); {
		case op == 0:
			// Reset is bank-wide, so reset every reference with it.
			bank.Reset()
			for _, r := range refs {
				r.Reset()
			}
		default:
			req.Reset()
			density := rng.Float64()
			for b := 0; b < n; b++ {
				if rng.Bool(density) {
					req.Set(b)
				}
			}
			got, want := bank.Pick(i, req), refs[i].Pick(req)
			if got != want {
				t.Fatalf("step %d: slot %d picked %d for %s, standalone arbiter picked %d", step, i, got, req, want)
			}
			if again := bank.Pick(i, req); again != got {
				t.Fatalf("step %d: slot %d pick changed from %d to %d without an Update", step, i, got, again)
			}
			if wb, ok := bank.(*Bank); ok && n <= 64 {
				if w := wb.PickWord(i, req.Words()[0]); w != got {
					t.Fatalf("step %d: slot %d PickWord picked %d for %s, Pick picked %d", step, i, w, req, got)
				}
			}
			// Update on roughly two picks in three, as a separable allocator
			// does when a pick wins the second stage.
			if got >= 0 && op%3 != 0 {
				bank.Update(i, got)
				refs[i].Update(got)
			}
		}
	}
}

func TestBankMatchesStandaloneArbiters(t *testing.T) {
	for _, k := range allKinds() {
		for _, shape := range []struct{ count, n int }{{1, 1}, {3, 2}, {7, 5}, {4, 64}, {5, 65}, {2, 130}} {
			t.Run(fmt.Sprintf("%s/%dx%d", k, shape.count, shape.n), func(t *testing.T) {
				bank := NewBank(k, shape.count, shape.n)
				refs := make([]Arbiter, shape.count)
				for i := range refs {
					refs[i] = New(k, shape.n)
				}
				checkBankEquivalence(t, &bank, refs, uint64(shape.count*1000+shape.n))
			})
		}
	}
}

func TestTreeBankMatchesStandaloneTrees(t *testing.T) {
	for _, k := range allKinds() {
		for _, shape := range []struct{ count, groups, groupSize int }{
			{1, 1, 1}, {6, 5, 1}, {10, 5, 2}, {3, 10, 16}, {4, 3, 64}, {2, 7, 9},
		} {
			t.Run(fmt.Sprintf("%s/%dx(%dx%d)", k, shape.count, shape.groups, shape.groupSize), func(t *testing.T) {
				bank := NewTreeBank(k, shape.count, shape.groups, shape.groupSize)
				refs := make([]Arbiter, shape.count)
				for i := range refs {
					refs[i] = newRefTree(k, shape.groups, shape.groupSize)
				}
				checkBankEquivalence(t, &bank, refs, uint64(shape.groups*100+shape.groupSize))
				// NewTree is a bank of one; it must agree with the reference too.
				single := NewTree(k, shape.groups, shape.groupSize)
				one := NewTreeBank(k, 1, shape.groups, shape.groupSize)
				checkBankEquivalence(t, &one, []Arbiter{single}, 7)
			})
		}
	}
}

// TestTreeBankPickWordsMatchesPick drives two banks of one shape through the
// same random requests, one through the vector entry point and one through
// the word entry point, each updated with its own winner: the winners must be
// the same at every step. Group size 1 is the degenerate tree that reads no
// leaf word.
func TestTreeBankPickWordsMatchesPick(t *testing.T) {
	for _, k := range allKinds() {
		for _, shape := range []struct{ groups, groupSize int }{{5, 1}, {64, 1}, {10, 3}, {10, 16}, {3, 64}} {
			t.Run(fmt.Sprintf("%s/%dx%d", k, shape.groups, shape.groupSize), func(t *testing.T) {
				const count = 3
				byVec := NewTreeBank(k, count, shape.groups, shape.groupSize)
				byWord := NewTreeBank(k, count, shape.groups, shape.groupSize)
				rng := xrand.New(uint64(shape.groups*100 + shape.groupSize))
				req := bitvec.New(shape.groups * shape.groupSize)
				leaves := make([]uint64, shape.groups)
				for step := 0; step < 1000; step++ {
					req.Reset()
					var any uint64
					density := rng.Float64()
					for g := range leaves {
						// Words of groups the root cannot pick are never read.
						leaves[g] = rng.Uint64()
						if !rng.Bool(density) {
							continue
						}
						any |= 1 << uint(g)
						leaves[g] = 1 << uint(rng.Intn(shape.groupSize))
						if shape.groupSize > 1 {
							leaves[g] |= rng.Uint64() >> uint(64-shape.groupSize)
						}
						for w := leaves[g]; w != 0; w &= w - 1 {
							req.Set(g*shape.groupSize + bits.TrailingZeros64(w))
						}
					}
					i := rng.Intn(count)
					want, got := byVec.Pick(i, req), byWord.PickWords(i, any, leaves)
					if got != want {
						t.Fatalf("step %d tree %d: PickWords picked %d, Pick picked %d for %s", step, i, got, want, req)
					}
					if got >= 0 && step%3 != 0 {
						byVec.Update(i, want)
						byWord.Update(i, got)
					}
				}
			})
		}
	}
}

// TestTreeBankPickWordsRejectsWhatDoesNotFit: the word entry point carries at
// most 64 groups of at most 64 inputs, and a bit beyond either width is a
// caller bug.
func TestTreeBankPickWordsRejectsWhatDoesNotFit(t *testing.T) {
	for _, k := range allKinds() {
		manyGroups, wideLeaves, small := NewTreeBank(k, 1, 65, 2), NewTreeBank(k, 1, 2, 65), NewTreeBank(k, 1, 3, 4)
		for name, fn := range map[string]func(){
			"65 groups":       func() { manyGroups.PickWords(0, 1, make([]uint64, 65)) },
			"65-input leaves": func() { wideLeaves.PickWords(0, 1, []uint64{1, 0}) },
			"group 3 of 3":    func() { small.PickWords(0, 1<<3, make([]uint64, 3)) },
			"input 4 of 4":    func() { small.PickWords(0, 1, []uint64{1 << 4, 0, 0}) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s %s: expected panic", k, name)
					}
				}()
				fn()
			}()
		}
		if got := small.PickWords(0, 0, nil); got != -1 {
			t.Errorf("%s: empty request picked %d", k, got)
		}
	}
}

// TestPickWordRejectsWhatDoesNotFit: a word cannot carry a request vector
// wider than 64, and a bit at or above the arbiter's width is a caller bug
// that must not be arbitrated as if it were a request.
func TestPickWordRejectsWhatDoesNotFit(t *testing.T) {
	for _, k := range allKinds() {
		wide, narrow, full := NewBank(k, 1, 65), NewBank(k, 1, 5), NewBank(k, 1, 64)
		for name, fn := range map[string]func(){
			"width 65":       func() { wide.PickWord(0, 1) },
			"bit 5 of 5":     func() { narrow.PickWord(0, 1<<5) },
			"bit 63 of 5":    func() { narrow.PickWord(0, 1<<63) },
			"empty width 65": func() { wide.PickWord(0, 0) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s %s: expected panic", k, name)
					}
				}()
				fn()
			}()
		}
		if got := full.PickWord(0, 1<<63); got != 63 {
			t.Errorf("%s: bit 63 of a 64-wide arbiter picked %d", k, got)
		}
		if got := narrow.PickWord(0, 0); got != -1 {
			t.Errorf("%s: empty request picked %d", k, got)
		}
	}
}

// TestBankAllocations pins the layout: a bank is a fixed number of
// allocations however many arbiters it holds.
func TestBankAllocations(t *testing.T) {
	var bankSink Bank
	var treeSink TreeBank
	for _, c := range []struct {
		name string
		want float64
		make func()
	}{
		{"rr bank", 1, func() { bankSink = NewBank(RoundRobin, 160, 16) }},
		{"matrix bank", 3, func() { bankSink = NewBank(Matrix, 160, 16) }},
		{"rr tree bank", 3, func() { treeSink = NewTreeBank(RoundRobin, 160, 10, 16) }},
		{"matrix tree bank", 3, func() { treeSink = NewTreeBank(Matrix, 160, 10, 16) }},
	} {
		if got := testing.AllocsPerRun(5, c.make); got != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.want)
		}
	}
	_, _ = bankSink, treeSink
}
