package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// This file decides, cycle by cycle, whether a network holds a helper
// goroutine, and implements the barrier the two goroutines meet at.
//
// A network is built as one shard and gets a second in one way only: a
// Lender (BorrowHelpers) lends it a goroutine in a heavy cycle, and the
// network splits in two around it (split). It steps the two shards
// concurrently, shard 1 on the helper, for as long as it holds the helper,
// and merges back to one shard (merge) when it gives the helper back. So
// between cycles a network has two shards exactly when it holds a helper,
// and a cycle is stepped either on one shard or on two goroutines.
//
// The barrier is an epoch on atomics. The stepping goroutine numbers the
// concurrent cycles; to start one it stores the number into the helper's cmd
// word and steps shard 0. The helper spins on its cmd word, claims shard 1's
// phase for that epoch with a compare-and-swap on the phase word (2e =
// claimed, 2e+1 = done), steps the shard and stores "done". Having finished
// its own shard, the stepping goroutine claims — with the same
// compare-and-swap — the phase if the helper has not got to it yet and steps
// it itself, then spins until the phase word says done. So a helper that is
// late (just lent, parked, or its thread descheduled by the host) costs the
// cycle nothing but its share of the work, and GOMAXPROCS=1 degrades to both
// shards stepped on one goroutine instead of to a convoy.
//
// Spinning yields (runtime.Gosched) every spinsPerYield loads — about once a
// microsecond — which keeps the runtime's other goroutines and a single-P
// process live. A helper that has spun for parkAfter without a cycle to run
// (a leap, or a pause between hand-stepped cycles) parks on a channel; the
// next cycle wakes it without waiting for it. Parking sooner re-creates the
// cost of the channel barrier this replaces: two park/wake handshakes per
// cycle were all of its blocking (EXPERIMENTS.md, "Sharded parallel cycle
// stepper"); parking after a few µs measured 75 → 85 ms per round of the four
// knee units.
const (
	spinsPerYield = 512
	parkAfter     = 100 * time.Microsecond
)

// breakEven is the number of routers each shard must have to step for a cycle
// to be worth a helper: below it the barrier's two cache-line round trips and
// the outbox detour cost more than the second core saves. Measured on the
// 2-CPU reference host (EXPERIMENTS.md, "Break-even"): a concurrent cycle
// costs 0.9 µs more than stepping both shards on one goroutine at 2 routers
// per shard (+27 %) and is 9 % cheaper at 7, a third cheaper at the knee. The
// constant sits above the crossover because of what it has to keep on one
// shard: the busiest low-load units of the repository benchmark reach
// switchAfter cycles in a row at ≥ 6 routers per shard a few dozen times in
// 200 000 cycles, at ≥ 8 never, while a knee run is above 8 in nearly every
// cycle even on the 4×4 flattened butterfly's eight routers per shard.
const breakEven = 8

// switchAfter is the hysteresis on that rule: a network borrows a helper, or
// gives it back, after this many consecutive cycles that contradict what it
// holds, so a burst that is over in a few cycles touches no lender and splits
// nothing, and a knee run keeps its helper through its few light cycles. It is
// also the number of cycles a network that was lent no helper, or had to give
// one back to a lender that wanted it, waits before it asks again.
const switchAfter = 16

// lateLimit and lateBackoff keep a network from paying for a helper that does
// not run. A spinning helper claims its phase within a microsecond and never
// idles for parkAfter between two concurrent cycles in a row. One that lets
// the stepping goroutine take its phase, or that has to be woken from a park
// in the middle of a concurrent stretch, is not on a CPU of its own — a host
// that has lent the second core to another tenant, a single P — and its
// spinning and waking only steal from the core the stepping goroutine runs on
// (measured on the reference host while its second vCPU was withheld: a knee
// unit on two shards took 1.6× the time of one shard). Every such cycle in a
// row adds to a score, a taken phase 1 (the first few after a loan are taken
// while the lent goroutine wakes up), a mid-stretch wake lateLimit/4; at
// lateLimit the network gives its helper back, merges, and does not ask again
// for lateBackoff cycles.
const (
	lateLimit   = 32
	lateBackoff = 1024
)

// A Lender has goroutines that are idle some of the time and lends them to a
// network as helpers (BorrowHelpers). sweep.Pool is one: a simulation that
// has proved heavy borrows the pool's idle worker for its second shard.
type Lender interface {
	// Lend runs fn on a goroutine that is idle at this instant and reports
	// whether there was one. It neither blocks nor queues fn.
	Lend(fn func()) bool
	// Wanted reports whether the lender has work waiting for a goroutine it
	// lent out. A network holding a helper asks before every stepped cycle
	// and releases it (fn returns) before it steps the next one.
	Wanted() bool
}

// BorrowHelpers makes a network follow l: it stays one shard — and costs what
// one shard costs — until l lends it a helper in a heavy cycle, splits in two
// around it, and steps the halves on two goroutines. It holds the helper only
// while it has heavy cycles to step, the helper runs and l does not want it
// back, and it merges back to one shard when it gives the helper back.
// Without a lender a network never leaves its own goroutine. A traced network
// ignores l: the tracer is not concurrency-safe, and same-cycle trace events
// need the packet IDs a one-shard cycle hands out. Call it before the first
// cycle.
func (n *Network) BorrowHelpers(l Lender) {
	if n.cfg.Trace == nil {
		n.lender = l
	}
}

// ParallelStats says how a network's cycles were executed.
type ParallelStats struct {
	// Stepped counts the cycles stepped (leapt cycles are not), Concurrent
	// those of them whose two shards ran on separate goroutines.
	Stepped, Concurrent int64
	// Loans counts the helpers acquired: each loan is one split, and its
	// return (Run returns the last one) one merge.
	Loans int64
	// Parks counts the times the helper gave up spinning and parked, Wakes
	// the concurrent cycles that woke it, Taken the concurrent cycles whose
	// second shard the stepping goroutine stepped itself because the helper
	// had not got to it.
	Parks, Wakes, Taken int64
	// LateReturns counts the loans ended for lateness (lateLimit), after
	// which the network stopped asking for lateBackoff cycles.
	LateReturns int64
	// Wait is the time the stepping goroutine spent at the barrier after its
	// own share of a concurrent cycle: imbalance, the barrier's own cost, and
	// the phases it took over.
	Wait time.Duration
}

// ParallelStats reports how the cycles stepped so far were executed.
func (n *Network) ParallelStats() ParallelStats {
	st := n.par
	st.Parks = n.parks.Load()
	return st
}

// helper is the borrowed goroutine and the shard it steps.
type helper struct {
	s *shard // set before the first epoch the helper can see

	_ [64]byte // cmd and phase change every concurrent cycle: keep the line to themselves
	// cmd is the last epoch the stepping goroutine started; the helper spins
	// on it. phase is 2e while someone steps the shard for epoch e and 2e+1
	// once that is done.
	cmd    atomic.Uint64
	phase  atomic.Uint64
	stop   atomic.Bool
	parked atomic.Bool
	_      [64]byte

	wake   chan struct{} // buffered 1: one token per parked → running transition the stepper wins
	exited chan struct{}
	parks  *atomic.Int64

	// A panic in the helper's phase, re-raised on the stepping goroutine.
	panicVal any
	stack    []byte
}

// follow decides whether the cycle about to be stepped has a helper, and
// borrows one (splitting) or gives it back (merging) on the way.
func (n *Network) follow() {
	want := n.wantHelpers
	if n.modeHook != nil {
		want = n.modeHook(n.now)
	} else if n.heavy() == want {
		n.streak = 0
	} else if n.streak++; n.streak == switchAfter {
		want, n.streak = !want, 0
	}
	n.wantHelpers = want
	if n.helper == nil {
		if want && n.askIn > 0 {
			n.askIn--
		} else if want && !n.acquireHelper() {
			n.askIn = switchAfter
		}
		return
	}
	switch {
	case !want:
		n.Close()
	case n.lender.Wanted():
		n.Close()
		n.askIn = switchAfter
	case n.late >= lateLimit && n.modeHook == nil:
		n.Close()
		n.askIn = lateBackoff
		n.par.LateReturns++
	}
}

// heavy reports whether each shard stepped at least breakEven routers in the
// last cycle, which is the best cheap guess at what this one holds: the
// active sets at a cycle's start leave out every router a flit is about to
// wake. A network that has not split yet is judged as the two halves it would
// split into.
func (n *Network) heavy() bool {
	if s := n.shards[0]; len(n.shards) == 1 {
		return min(s.loadLow, s.load-s.loadLow) >= breakEven
	}
	return min(n.shards[0].load, n.shards[1].load) >= breakEven
}

// acquireHelper borrows a helper from the lender and splits the network in
// two for it: a network never pays for a second shard it cannot run.
func (n *Network) acquireHelper() bool {
	if n.lender.Wanted() {
		return false
	}
	h := &helper{wake: make(chan struct{}, 1), exited: make(chan struct{}), parks: &n.parks}
	h.cmd.Store(n.epoch)
	h.phase.Store(2*n.epoch + 1)
	if !n.lender.Lend(h.run) {
		return false
	}
	n.split()
	// The helper reads its shard only after it has seen an epoch start, which
	// is after this.
	h.s = n.shards[1]
	n.helper, n.late = h, 0
	n.par.Loans++
	return true
}

// Close gives the helper back, waits until it has gone (it is back with its
// lender when Close returns) and merges the network back to one shard. Run
// calls it on return; callers driving stepCycle directly on a network that
// borrows should defer it. Idempotent, and stepping a heavy cycle after Close
// borrows again.
func (n *Network) Close() {
	if h := n.helper; h != nil {
		h.stop.Store(true)
		n.unpark(h)
		<-h.exited
		n.helper = nil
		n.merge()
	}
}

// unpark wakes h if it is parked and reports whether it did. It never blocks:
// the wake channel takes the one token a won parked → running transition
// sends.
func (n *Network) unpark(h *helper) bool {
	if h.parked.Load() && h.parked.CompareAndSwap(true, false) {
		h.wake <- struct{}{}
		n.par.Wakes++
		return true
	}
	return false
}

// scoreLate updates the lateness score after a concurrent cycle that took
// over the helper's phase or woke it (see lateLimit).
func (n *Network) scoreLate(taken, woken bool) {
	midStretch := n.lastConcurrent == n.now-1
	n.lastConcurrent = n.now
	switch {
	case woken && midStretch:
		n.late += lateLimit / 4
	case taken:
		n.late++
	default:
		n.late = 0
	}
}

// stepConcurrent runs phase 1 of both shards for one cycle, shard 0 here and
// shard 1 on whoever claims it first.
func (n *Network) stepConcurrent() {
	n.epoch++
	e, h := n.epoch, n.helper
	h.cmd.Store(e)
	woken := n.unpark(h)
	n.shards[0].phase1()
	t0 := time.Now()
	taken := false
	for spins := 1; ; spins++ {
		v := h.phase.Load()
		if v == 2*e+1 {
			break
		}
		if v == 2*e-1 && h.phase.CompareAndSwap(v, 2*e) {
			n.par.Taken++
			taken = true
			h.s.phase1() // a panic here is already on the stepping goroutine
			h.phase.Store(2*e + 1)
			break
		}
		if spins%spinsPerYield == 0 {
			runtime.Gosched()
		}
	}
	n.par.Wait += time.Since(t0)
	n.par.Concurrent++
	n.scoreLate(taken, woken)
	if h.panicVal != nil {
		panic(fmt.Sprintf("sim: shard worker panicked: %v\n%s", h.panicVal, h.stack))
	}
}

// run is the helper goroutine: claim and step the shard for every epoch the
// stepping goroutine starts, until told to stop.
func (h *helper) run() {
	defer close(h.exited)
	seen := h.cmd.Load()
	var idleSince time.Time
	for spins := 1; ; spins++ {
		if h.stop.Load() {
			return
		}
		if e := h.cmd.Load(); e != seen {
			seen = e
			if h.phase.CompareAndSwap(2*e-1, 2*e) {
				h.stepGuarded()
				h.phase.Store(2*e + 1)
			}
			idleSince = time.Time{}
			continue
		}
		if spins%spinsPerYield != 0 {
			continue
		}
		runtime.Gosched()
		if idleSince.IsZero() {
			idleSince = time.Now()
		} else if time.Since(idleSince) >= parkAfter {
			h.park(seen)
			idleSince = time.Time{}
		}
	}
}

// park blocks until the stepping goroutine has something new to say. The
// parked flag is set before cmd and stop are looked at again and the stepper
// stores those before it looks at the flag, so one of the two always notices
// the other; whoever swaps the flag back owns the transition, and the helper
// takes the token if the stepper won.
func (h *helper) park(seen uint64) {
	h.parked.Store(true)
	if (h.stop.Load() || h.cmd.Load() != seen) && h.parked.CompareAndSwap(true, false) {
		return
	}
	h.parks.Add(1)
	<-h.wake
}

// stepGuarded steps the helper's shard, keeping a panic (a Validate
// violation, a flow-control bug) for the stepping goroutine to re-raise with
// this goroutine's stack.
func (h *helper) stepGuarded() {
	defer func() {
		if r := recover(); r != nil {
			h.panicVal, h.stack = r, debug.Stack()
		}
	}()
	h.s.phase1()
}
