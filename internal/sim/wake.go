package sim

import (
	"fmt"
	"math/bits"
)

// The wake index is how a shard knows, without asking each of them, which
// of its terminals and routers a cycle has to visit:
//
//   - awake holds the terminals visited every cycle: an open packet, a
//     queued request or reply, or an injection process that ticks per cycle.
//   - sleep holds the terminals that sleep until a presampled cycle (an
//     arrival or a chunk checkpoint), as a min-heap on that cycle, so "is
//     anyone due" and "who is due first" are reads of the heap's top.
//   - active holds the routers that are not Quiescent.
//
// A terminal in neither terminal set sleeps until something outside wakes
// it. Once New has filed every terminal, the index changes in three places
// only: after a terminal's own visit and when the commit phase queues a
// reply at it (both through settle), and for routers when a flit is
// delivered or Step drains the last one. Validate mode checks it against
// the dormant and Quiescent predicates every stepped cycle.
type wakeIndex struct {
	awake  bitset
	sleep  sleepQueue
	active bitset

	// How many terminals and routers phase1 visited; read by tests only.
	termVisits, routerVisits int64
}

// bitset is a bit per shard-local terminal or router. The sets change on
// every delivered flit and every visit, so unlike bitvec.Vec's its
// operations are unchecked one-liners the compiler inlines (as shard.occ's
// are written out by hand).
type bitset []uint64

func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// count returns the number of members and how many of them are below split.
func (b bitset) count(split int) (all, below int) {
	for wi, w := range b {
		all += bits.OnesCount64(w)
		if lo := split - wi*64; lo >= 64 {
			below += bits.OnesCount64(w)
		} else if lo > 0 {
			below += bits.OnesCount64(w & (1<<uint(lo) - 1))
		}
	}
	return all, below
}

func (b bitset) any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

func newWakeIndex(terminals, routers int) wakeIndex {
	return wakeIndex{
		awake:  make(bitset, (terminals+63)/64),
		sleep:  newSleepQueue(terminals),
		active: make(bitset, (routers+63)/64),
	}
}

// settle files terminal t (a global id) where its state now says it
// belongs: with the awake, with the sleepers, or with neither.
func (s *shard) settle(t int) {
	n, i := s.net, t-s.t0
	s.sleep.remove(i)
	at := n.terminals[t].wakeAt(n)
	if at <= n.now {
		s.awake.set(i)
		return
	}
	s.awake.clear(i)
	if at != never {
		s.sleep.push(i, at)
	}
}

// wakeDue moves the sleepers whose cycle has come to the awake set, so one
// pass over it visits them in id order along with everyone else.
func (s *shard) wakeDue() {
	for s.sleep.earliest() <= s.net.now {
		i := int(s.sleep.heap[0])
		s.sleep.remove(i)
		s.awake.set(i)
	}
}

// validateWakeIndex panics unless the index says exactly what the
// predicates say about the cycle being stepped (after wakeDue).
func (s *shard) validateWakeIndex() {
	n := s.net
	for t := s.t0; t < s.t1; t++ {
		i, term := t-s.t0, n.terminals[t]
		dormant, at := term.dormant(n), term.wakeAt(n)
		if s.awake.has(i) == dormant {
			panic(fmt.Sprintf("sim: cycle %d: terminal %d awake bit and dormant() are both %v", n.now, t, dormant))
		}
		queued := s.sleep.pos[i] >= 0
		if queued != (dormant && at != never) || queued && s.sleep.at[i] != at {
			panic(fmt.Sprintf("sim: cycle %d: terminal %d wakes at %d, sleep queue has it %v at %d",
				n.now, t, at, queued, s.sleep.at[i]))
		}
	}
	for r := s.r0; r < s.r1; r++ {
		if q := n.routers[r].Quiescent(); s.active.has(r-s.r0) == q {
			panic(fmt.Sprintf("sim: cycle %d: router %d active bit and Quiescent() are both %v", n.now, r, q))
		}
	}
}

// sleepQueue is a binary min-heap of sleeping terminals (shard-local
// indices) keyed by wake cycle, with each terminal's heap position kept so
// an early wake-up removes it in O(log n). It never allocates after
// construction: a terminal is in it at most once.
type sleepQueue struct {
	at   []int64 // wake cycle, valid while queued
	pos  []int32 // position in heap, -1 while not queued
	heap []int32
}

func newSleepQueue(n int) sleepQueue {
	q := sleepQueue{at: make([]int64, n), pos: make([]int32, n), heap: make([]int32, 0, n)}
	for i := range q.pos {
		q.pos[i] = -1
	}
	return q
}

// earliest returns the soonest wake cycle queued, never if none is.
func (q *sleepQueue) earliest() int64 {
	if len(q.heap) == 0 {
		return never
	}
	return q.at[q.heap[0]]
}

func (q *sleepQueue) push(i int, at int64) {
	q.at[i] = at
	q.heap = append(q.heap, int32(i))
	q.up(len(q.heap) - 1)
}

// remove takes terminal i out of the queue; a no-op if it is not in it.
func (q *sleepQueue) remove(i int) {
	p := int(q.pos[i])
	if p < 0 {
		return
	}
	last := len(q.heap) - 1
	moved := q.heap[last]
	q.heap = q.heap[:last]
	q.pos[i] = -1
	if p == last {
		return
	}
	q.heap[p] = moved
	q.pos[moved] = int32(p)
	q.down(p)
	q.up(p)
}

// up sifts the entry at heap position p towards the root, recording the
// positions of everything it passes and its own.
func (q *sleepQueue) up(p int) {
	i := q.heap[p]
	for p > 0 {
		parent := (p - 1) / 2
		if q.at[q.heap[parent]] <= q.at[i] {
			break
		}
		q.heap[p] = q.heap[parent]
		q.pos[q.heap[p]] = int32(p)
		p = parent
	}
	q.heap[p] = i
	q.pos[i] = int32(p)
}

func (q *sleepQueue) down(p int) {
	i := q.heap[p]
	for {
		c := 2*p + 1
		if c >= len(q.heap) {
			break
		}
		if c+1 < len(q.heap) && q.at[q.heap[c+1]] < q.at[q.heap[c]] {
			c++
		}
		if q.at[i] <= q.at[q.heap[c]] {
			break
		}
		q.heap[p] = q.heap[c]
		q.pos[q.heap[p]] = int32(p)
		p = c
	}
	q.heap[p] = i
	q.pos[i] = int32(p)
}
