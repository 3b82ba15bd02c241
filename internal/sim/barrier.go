package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// This file decides, cycle by cycle, whether a sharded network's phase 1 runs
// on one goroutine or on several, and implements the barrier the several
// meet at.
//
// One layout serves both. An inline cycle steps the shards one after another
// on the stepping goroutine and files cross-shard events straight into the
// destination's wheel; a concurrent cycle gives every shard but the first to
// a helper goroutine and routes cross-shard events through the outboxes
// (shard.go). The two produce the same state — the order of events within a
// wheel slot is the only thing that differs, and delivery is commutative in
// it — so the choice is free at every cycle boundary.
//
// The barrier is an epoch on atomics. The stepping goroutine numbers the
// concurrent cycles; to start one it stores the number into each helper's cmd
// word and steps shard 0. A helper spins on its cmd word, claims its shard's
// phase for that epoch with a compare-and-swap on the phase word (2e =
// claimed, 2e+1 = done), steps the shard and stores "done". Having finished
// its own shard, the stepping goroutine claims — with the same
// compare-and-swap — whatever no helper has got to yet and steps it itself,
// then spins until every phase word says done. So a helper that is late (just
// started, parked, or its thread descheduled by the host) costs the cycle
// nothing but its share of the work, and GOMAXPROCS=1 or more shards than
// cores degrade to the inline order instead of to a convoy.
//
// Spinning yields (runtime.Gosched) every spinsPerYield loads — about once a
// microsecond — which keeps the runtime's other goroutines and a single-P
// process live. A helper that has
// spun for parkAfter without a cycle to run parks on a channel; the next
// concurrent cycle wakes it without waiting for it. Parking sooner re-creates
// the cost of the channel barrier this replaces: two park/wake handshakes per
// helper per cycle were all of its blocking (EXPERIMENTS.md, "Sharded
// parallel cycle stepper"); parking after a few µs measured 75 → 85 ms per
// round of the four knee units.
const (
	spinsPerYield = 512
	parkAfter     = 100 * time.Microsecond
)

// breakEven is the number of routers every shard must have to step for a cycle
// to be worth running concurrently: below it the barrier's two cache-line
// round trips and the outbox detour cost more than the second core saves.
// Measured with BenchmarkNetworkSharded's forced cells on the 2-CPU reference
// host (EXPERIMENTS.md, "Break-even"): a concurrent cycle costs 0.9 µs more
// than an inline one at 2 routers per shard (+27 %) and is 9 % cheaper at 7,
// a third cheaper at the knee. The constant sits above the crossover because
// of what it has to keep inline: the busiest low-load units of the repository
// benchmark reach switchAfter cycles in a row at ≥ 6 routers per shard a few
// dozen times in 200 000 cycles, at ≥ 8 never, while a knee run is above 8
// in nearly every cycle even on the 4×4 flattened butterfly's eight routers
// per shard.
const breakEven = 8

// switchAfter is the hysteresis on that rule: the network changes the way it
// steps after this many consecutive cycles that would rather have been
// stepped the other way, so a burst that is over in a few cycles starts no
// goroutine, touches no lender and wakes no parked helper, and a knee run
// stays concurrent through its few light cycles. It is also the number of
// cycles a network that found no helper waits before it asks again.
const switchAfter = 16

// lateLimit and lateBackoff keep a network from paying for helpers that do
// not run. A spinning helper claims its phase within a microsecond and never
// idles for parkAfter between two concurrent cycles in a row. One that lets
// the stepping goroutine take its phase, or that has to be woken from a park
// in the middle of a concurrent stretch, is not on a CPU of its own — a host
// that has lent the second core to another tenant, a single P, more shards
// than cores — and its spinning and waking only steal from the core the
// stepping goroutine runs on (measured on the reference host while its second
// vCPU was withheld: a knee unit on two shards took 1.6× the time of one
// shard). Every such cycle in a row adds to a score, a taken phase 1 (the
// first few after a loan are taken while the lent goroutine wakes up), a
// mid-stretch wake lateLimit/4; at lateLimit the network gives its helpers
// back and does not ask again for lateBackoff cycles.
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
	// lent out. A network holding helpers asks before every stepped cycle and
	// releases them (fn returns) before it steps the next one.
	Wanted() bool
}

// BorrowHelpers makes a network take its helper goroutines from l instead of
// starting its own. It holds them only while it has heavy cycles to step and
// l does not want them back; without them it steps inline. A network built
// with one shard follows the lender: it stays one shard — and costs what one
// shard costs — until it is lent its first helper, and is two from then on.
// Call it before the first cycle.
func (n *Network) BorrowHelpers(l Lender) { n.lender = l }

// ParallelStats says how a network's cycles were executed.
type ParallelStats struct {
	// Stepped counts the cycles stepped (leapt cycles are not), Concurrent
	// those of them whose shards ran on separate goroutines.
	Stepped, Concurrent int64
	// Parks counts the times a helper gave up spinning and parked, Wakes the
	// parked helpers a concurrent cycle woke, Taken the shard phases of
	// concurrent cycles the stepping goroutine ran itself because the helper
	// had not got to them.
	Parks, Wakes, Taken int64
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

// helper is one borrowed or started goroutine and the shard it steps.
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

// wantConcurrent decides how the cycle about to be stepped runs, acquiring
// and releasing helpers on the way.
func (n *Network) wantConcurrent() bool {
	want := n.wantHelpers
	if n.modeHook != nil {
		want = n.modeHook(n.now)
	} else if n.heavy() == want {
		n.streak = 0
	} else if n.streak++; n.streak == switchAfter {
		want, n.streak = !want, 0
	}
	n.wantHelpers = want
	if n.helpers != nil {
		switch {
		case n.lender != nil && n.lender.Wanted():
			n.Close()
			n.askIn = switchAfter
		case n.late >= lateLimit && n.modeHook == nil:
			n.Close()
			n.askIn = lateBackoff
		}
	}
	if !want {
		return false
	}
	if n.helpers == nil {
		if n.askIn > 0 {
			n.askIn--
			return false
		}
		if !n.acquireHelpers() {
			n.askIn = switchAfter
			return false
		}
	}
	return true
}

// heavy reports whether every shard stepped at least breakEven routers in the
// last cycle, which is the best cheap guess at what this one holds: the
// active sets at a cycle's start leave out every router a flit is about to
// wake. A borrowing network that has not split yet is judged as the two
// halves it would split into.
func (n *Network) heavy() bool {
	if s := n.shards[0]; len(n.shards) == 1 {
		return min(s.loadLow, s.load-s.loadLow) >= breakEven
	}
	for _, s := range n.shards {
		if s.load < breakEven {
			return false
		}
	}
	return true
}

// acquireHelpers gets one helper per shard but the first, all or none. A
// one-shard network (it borrows, or it would not ask) gets one helper and
// splits in two for it, once it has it: it never pays for a second shard it
// cannot run.
func (n *Network) acquireHelpers() bool {
	if n.lender != nil && n.lender.Wanted() {
		return false
	}
	n.late = 0
	shards := max(len(n.shards), 2)
	hs := make([]*helper, 0, shards-1)
	for len(hs) < shards-1 {
		h := &helper{wake: make(chan struct{}, 1), exited: make(chan struct{}), parks: &n.parks}
		h.cmd.Store(n.epoch)
		h.phase.Store(2*n.epoch + 1)
		if n.lender == nil {
			go h.run()
		} else if !n.lender.Lend(h.run) {
			n.helpers = hs
			n.Close()
			return false
		}
		hs = append(hs, h)
	}
	if len(n.shards) == 1 {
		n.split()
	}
	// A helper reads its shard only after it has seen an epoch start, which
	// is after this.
	for i, h := range hs {
		h.s = n.shards[i+1]
	}
	n.helpers = hs
	return true
}

// Close releases the helper goroutines and waits until they have gone (a
// borrowed one is back with its lender when Close returns). Run calls it on
// return; callers driving stepCycle directly with Shards > 1 should defer it.
// Idempotent, and stepping a heavy cycle after Close acquires helpers again.
func (n *Network) Close() {
	for _, h := range n.helpers {
		h.stop.Store(true)
		n.unpark(h)
	}
	for _, h := range n.helpers {
		<-h.exited
	}
	n.helpers = nil
}

// unpark wakes h if it is parked. It never blocks: the wake channel takes the
// one token a won parked → running transition sends.
func (n *Network) unpark(h *helper) {
	if h.parked.Load() && h.parked.CompareAndSwap(true, false) {
		h.wake <- struct{}{}
		n.par.Wakes++
	}
}

// scoreLate updates the lateness score after a concurrent cycle that took
// over `taken` phases and woke `woken` helpers (see lateLimit).
func (n *Network) scoreLate(taken, woken int64) {
	midStretch := n.lastConcurrent == n.now-1
	n.lastConcurrent = n.now
	switch {
	case woken > 0 && midStretch:
		n.late += lateLimit / 4
	case taken > 0:
		n.late++
	default:
		n.late = 0
	}
}

// stepConcurrent runs phase 1 of every shard for one cycle, shard 0 here and
// the others on whoever claims them first.
func (n *Network) stepConcurrent() {
	n.epoch++
	e := n.epoch
	before := n.par
	for _, h := range n.helpers {
		h.cmd.Store(e)
		n.unpark(h)
	}
	n.shards[0].phase1()
	t0 := time.Now()
	for _, h := range n.helpers {
		for spins := 1; ; spins++ {
			v := h.phase.Load()
			if v == 2*e+1 {
				break
			}
			if v == 2*e-1 && h.phase.CompareAndSwap(v, 2*e) {
				n.par.Taken++
				h.s.phase1() // a panic here is already on the stepping goroutine
				h.phase.Store(2*e + 1)
				break
			}
			if spins%spinsPerYield == 0 {
				runtime.Gosched()
			}
		}
	}
	n.par.Wait += time.Since(t0)
	n.par.Concurrent++
	n.scoreLate(n.par.Taken-before.Taken, n.par.Wakes-before.Wakes)
	for _, h := range n.helpers {
		if h.panicVal != nil {
			panic(fmt.Sprintf("sim: shard worker panicked: %v\n%s", h.panicVal, h.stack))
		}
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
