package sim

import (
	"fmt"

	"repro/internal/traffic"
)

// Event leaping: the active-set scheduler (PR 2) skips dormant terminals and
// quiescent routers within a cycle, but the stepper still visits every cycle
// — at low injection rates and in the drain tail most of those visits find
// nothing to do. This file adds the complementary optimization: when the
// whole network is provably idle, jump the clock straight to the next cycle
// in which anything can happen.
//
// A leap from cycle c to cycle e is safe iff no entity could have made
// progress in any cycle of (c, e):
//
//   - Every router is Quiescent() (no occupied input VC). A quiescent
//     router's Step is a state no-op apart from idle-variant allocator
//     priority, which SkipIdle replays on wake-up — and the active-set
//     lastStep bookkeeping is keyed to absolute cycles, so the existing
//     wake-up path replays leapt cycles without any extra work here.
//   - Every terminal is dormant. A terminal with offered load exposes its
//     next arrival cycle by presampling the Bernoulli gate draws (see
//     terminal.go); the earliest such arrival bounds the leap.
//     Both are read off the shards' wake index (wake.go), not asked of
//     each router and terminal: no active router, no awake terminal, and
//     the sleep queue's earliest wake cycle as the bound.
//   - No timing-wheel event lands in the skipped span. Each shard keeps an
//     occupancy bitmask over its wheel slots, making the earliest-pending-
//     event query O(wheelSize/64); the leap target is the min over shards.
//     What the last cycle of a two-shard network left in the outboxes is
//     imported first, so the wheels are the whole truth.
//
// The target is clamped to the caller's phase horizon so warmup/measure/
// drain boundaries land on exactly the cycles per-cycle ticking would
// visit, and a leap only moves now/nowSlot — it runs no cycle — so the
// first stepped cycle after a leap is the exact cycle the ticked schedule
// would next have done work in. That is what keeps leaped results
// bit-identical to the per-cycle stepper.

// tryLeap advances the clock to the earliest cycle (at most horizon) in
// which any work is pending, if the network is provably idle until then.
// It reports whether it moved the clock. Called between cycles only, when
// no shard worker is running. The reference schedule never leaps.
func (n *Network) tryLeap(horizon int64) bool {
	if n.cfg.Reference {
		return false
	}
	// Cheap pre-gate: any live packet means some terminal queue, router
	// VC or in-flight flit is non-idle, so the full scan below would fail.
	// Ruling that out first keeps the gate's cost negligible on busy cycles
	// (the common case anywhere near saturation). The only leaps this
	// forgoes are packets-in-the-wheel-only states, which are bounded by
	// the few-cycle link latency and not worth scanning every cycle for.
	live := 0
	for _, s := range n.shards {
		live += s.livePkts
	}
	if live > 0 {
		return false
	}
	if len(n.shards) == 2 {
		n.flushOutboxes()
	}
	target := horizon
	for _, s := range n.shards {
		if s.active.any() || s.awake.any() {
			return false
		}
		// The earliest sleeper bounds the leap (a due one forbids it): a
		// presampled arrival, or the checkpoint where sampling resumes.
		if at := s.sleep.earliest(); at < target {
			target = at
		}
		if d := s.nextEventDelta(); d >= 0 && n.now+d < target {
			target = n.now + d
		}
	}
	skip := target - n.now
	if skip <= 0 {
		return false
	}
	if n.cfg.Validate {
		n.validateLeap(target)
	}
	n.now = target
	n.nowSlot = (n.nowSlot + skip) % n.wheelSize
	n.leapEvents++
	n.cyclesLeapt += skip
	return true
}

// validateLeap cross-checks a proposed leap before it is taken: every
// shard's occupancy bitmask must agree with its raw wheel slots, no slot in
// the skipped span may hold an event, and no presampled terminal arrival
// may precede the target — i.e. the leap skips no cycle in which any router
// or terminal could have made progress. The caller took quiescence, dormancy
// and the earliest wake cycle from the wake index; here they are asked of
// every router and terminal directly.
func (n *Network) validateLeap(target int64) {
	skip := target - n.now
	for _, s := range n.shards {
		for slot := int64(0); slot < n.wheelSize; slot++ {
			occupied := s.occ[slot>>6]&(1<<(uint(slot)&63)) != 0
			if occupied != (len(s.wheel[slot]) > 0) {
				panic(fmt.Sprintf("sim: shard %d wheel slot %d occupancy bit %v disagrees with %d queued events",
					s.id, slot, occupied, len(s.wheel[slot])))
			}
		}
		span := skip
		if span > n.wheelSize {
			span = n.wheelSize
		}
		for d := int64(0); d < span; d++ {
			slot := (n.nowSlot + d) % n.wheelSize
			if len(s.wheel[slot]) > 0 {
				panic(fmt.Sprintf("sim: leap of %d cycles would skip shard %d events due in %d cycles", skip, s.id, d))
			}
		}
	}
	for _, t := range n.terminals {
		if at := t.wakeAt(n); at < target {
			panic(fmt.Sprintf("sim: leap to cycle %d would skip terminal %d, awake at %d", target, t.id, at))
		}
	}
	for _, r := range n.routers {
		if !r.Quiescent() {
			panic(fmt.Sprintf("sim: leap to cycle %d would skip busy router %d", target, r.ID()))
		}
	}
}

// LeapStats reports how many leaps the run performed and how many cycles
// they skipped in total; exposed for benchmarks and the JSON snapshot tools.
func (n *Network) LeapStats() (events, cycles int64) {
	return n.leapEvents, n.cyclesLeapt
}

// ArrivalDraws adds up the terminals' arrival gate draws: the reference
// schedule ticks terminals × cycles of them, the default presamples them and
// replays what a rewind (terminal.Intn, SetInjectionRate) gives back.
func (n *Network) ArrivalDraws() traffic.DrawStats {
	var d traffic.DrawStats
	for _, t := range n.terminals {
		d.Add(t.gen.Draws())
	}
	return d
}
