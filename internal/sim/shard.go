package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// This file implements the sharded cycle stepper. A network is one shard, or
// two after it has split around a borrowed helper (barrier.go): the routers
// in two contiguous halves, each taking its terminals along (a terminal always
// lives with its router, so injection, ejection and UGAL's occupancy reads
// stay shard-local). Every simulation cycle runs in two phases:
//
//  1. Every shard delivers the cycle's due events and steps its terminals
//     and routers — the shards one after the other on the stepping goroutine
//     (an inline cycle) or each on a goroutine of its own (a concurrent
//     cycle); barrier.go chooses per cycle. In an inline cycle an event for
//     an entity owned by the other shard — only inter-router channel flits
//     and credits ever are — is filed straight into that shard's wheel. In a
//     concurrent cycle it goes to the shard's outbox instead, and the other
//     shard imports it at the start of its next phase 1.
//  2. A single-threaded merge publishes the outboxes of a concurrent cycle (a
//     buffer swap; the copying itself happens in the destinations' next
//     phase 1, in parallel), then commits the cycle's packet births and
//     deliveries in destination-terminal order.
//
// Cross-shard events are emitted with a delay of at least 2 cycles (channel
// traversal is 2+latency), so neither way of filing one can touch the slot
// being drained, and deferring the wheel insertion to the start of the next
// cycle's phase 1 never misses a due slot.
//
// Phase 2 is what makes results bit-identical on one shard or two and for any
// interleaving of inline and concurrent cycles: within one cycle every
// per-router and per-terminal mutation in phase 1 is commutative (each input
// VC, credit counter and terminal receives at most one event per cycle, and
// each RNG stream belongs to exactly one terminal), so the order of the
// events within a wheel slot — the one thing the shard layout and the filing
// path change — is immaterial, and the only order-sensitive state is the
// global packet ID counter and the floating-point measurement accumulators.
// Those are touched in terminal order only: by phase 2, and by an inline
// cycle's phase 1, which visits the shards in index order and so the
// terminals in id order.

// shard owns a contiguous range of routers and their terminals: all of them,
// or one half.
type shard struct {
	id  int
	net *Network

	r0, r1 int // owned routers [r0, r1)
	t0, t1 int // owned terminals [t0, t1)

	// wheel is the shard-local timing wheel; slot (now+delay)%wheelSize
	// holds the events due at cycle now+delay for entities owned by this
	// shard. A slot keeps the largest capacity it ever needed: a run is short
	// and its network dropped afterwards, so there is nothing to give back.
	// occ is a bitmask over slots (bit set iff the slot holds events), giving
	// the event-leaping gate an O(wheelSize/64) earliest-pending-event query
	// (nextEventDelta).
	wheel [][]event
	occ   []uint64

	// outCur collects the events emitted in a concurrent cycle for routers
	// owned by the other shard; outPrev holds the batch of the last
	// concurrent cycle, which the other shard imports into its wheel at the
	// start of its next phase 1 (Network.pendingImport). The commit phase only
	// swaps the two buffers, so the actual event copying runs in the
	// destination's (parallel) phase 1 instead of the serial barrier.
	outCur  []outEvent
	outPrev []outEvent

	// load is the number of routers the last stepped cycle visited: what the
	// next one is expected to cost (Network.heavy). loadLow is the part of it
	// in the lower half of the shard's routers, which is how a one-shard
	// network, which may yet split in two, is judged.
	load, loadLow int

	// lastStep[r-r0] is the last cycle router r was stepped; the active-set
	// scheduler uses it to replay skipped idle cycles into the allocators.
	lastStep []int64

	// wakeIndex says which terminals and routers the active-set scheduler
	// visits this cycle and how far the leap gate may jump (wake.go). The
	// reference schedule visits everything and never reads it.
	wakeIndex

	// freePkts is a LIFO free list of recycled packet objects. It never
	// shrinks: a run's peak is reached long before it ends. A packet is drawn
	// at its source terminal's shard and recycled at its destination's, so
	// objects migrate between lists, but each list is only touched by its own
	// shard in phase 1 and by the single-threaded commit in phase 2. Flits
	// are values and need no free list.
	freePkts []*router.Packet

	// newPkts are the requests created this cycle, in terminal order,
	// awaiting ID assignment at commit (concurrent cycles only; an inline
	// cycle assigns inline and leaves this empty).
	newPkts []*router.Packet
	// newMeasured counts this cycle's requests created inside the
	// measurement window; committed into Network.measuredCreated/inFlight.
	newMeasured int
	// deliveries are the packets whose tail flit reached one of this
	// shard's terminals this cycle; stats and replies commit in phase 2.
	deliveries []delivery

	// Cumulative flit counters, summed by the Network accessors.
	created   int64
	delivered int64
	measFlits int64

	// livePkts is this shard's net packet balance (allocated here minus
	// retired here). A packet allocates at its source shard and retires at
	// its destination's, so one shard's balance can go negative; the sum
	// over shards is the number of packets anywhere in the network —
	// queued, streaming, or in flight — and is the leap gate's first, cheap
	// busy check (tryLeap).
	livePkts int
}

// outEvent is a cross-shard event awaiting import by the other shard.
type outEvent struct {
	slot int32
	e    event
}

// delivery records a packet completion awaiting the commit phase. At most
// one packet per terminal completes per cycle (a terminal's ejection port
// is a switch output, granted at most once per cycle), so the destination
// terminal is a unique, shard-layout-independent sort key.
type delivery struct {
	terminal int
	pkt      *router.Packet
}

// recycleSlot empties a drained wheel slot, keeping its backing array. The
// slot's occupancy bit clears here and nowhere else: slotFor rejects zero
// delays, so nothing can re-enter the slot being drained within the same
// cycle.
func (s *shard) recycleSlot(slot int64) {
	s.occ[slot>>6] &^= 1 << (uint(slot) & 63)
	s.wheel[slot] = s.wheel[slot][:0]
}

func (s *shard) slotFor(delay int64) int64 {
	n := s.net
	if delay < 1 || delay >= n.wheelSize {
		panic(fmt.Sprintf("sim: bad event delay %d (wheel size %d)", delay, n.wheelSize))
	}
	// nowSlot < wheelSize and delay < wheelSize, so one conditional
	// subtract replaces the modulo on this per-event path.
	slot := n.nowSlot + delay
	if slot >= n.wheelSize {
		slot -= n.wheelSize
	}
	return slot
}

// enqueue appends an event to a wheel slot and marks the slot occupied.
func (s *shard) enqueue(slot int64, e event) {
	s.wheel[slot] = append(s.wheel[slot], e)
	s.occ[slot>>6] |= 1 << (uint(slot) & 63)
}

// scheduleLocal inserts an event for an entity owned by this shard. All
// terminal-link events are local by construction (a terminal shares its
// router's shard).
func (s *shard) scheduleLocal(delay int64, e event) {
	s.enqueue(s.slotFor(delay), e)
}

// scheduleRouter inserts an event destined for an arbitrary router: into the
// owning shard's wheel, or while that shard may be running on another
// goroutine into the outbox it imports from.
func (s *shard) scheduleRouter(delay int64, e event) {
	slot := s.slotFor(delay)
	if d := s.net.shardOf(e.router); d != s {
		if s.net.concurrent {
			s.outCur = append(s.outCur, outEvent{slot: int32(slot), e: e})
			return
		}
		s = d
	}
	s.enqueue(slot, e)
}

// importOutbox moves the cross-shard events the other shard published in the
// last concurrent cycle into this shard's wheel. The other shard's outPrev is
// read-only during phase 1 (it now appends to its outCur), so the two
// importers never race.
func (s *shard) importOutbox() {
	for _, oe := range s.net.shards[1-s.id].outPrev {
		s.enqueue(int64(oe.slot), oe.e)
	}
}

// flushOutboxes imports what the last concurrent cycle published into both
// shards' wheels, here and now, so that the leap gate reads the wheels alone.
func (n *Network) flushOutboxes() {
	for _, s := range n.shards {
		s.importOutbox()
	}
	for _, s := range n.shards {
		s.outPrev = s.outPrev[:0]
	}
	n.pendingImport = false
}

// nextEventDelta returns the number of cycles until this shard's earliest
// pending wheel event (0 = due this cycle), or -1 for an empty wheel, by
// scanning the slot-occupancy bitmask from nowSlot with a wrap.
func (s *shard) nextEventDelta() int64 {
	n := s.net
	nowSlot := n.nowSlot
	w0 := int(nowSlot >> 6)
	for wi := w0; wi < len(s.occ); wi++ {
		w := s.occ[wi]
		if wi == w0 {
			w &= ^uint64(0) << (uint(nowSlot) & 63)
		}
		if w != 0 {
			return int64(wi<<6+bits.TrailingZeros64(w)) - nowSlot
		}
	}
	for wi := 0; wi <= w0; wi++ {
		w := s.occ[wi]
		if wi == w0 {
			w &= 1<<(uint(nowSlot)&63) - 1
		}
		if w != 0 {
			return int64(wi<<6+bits.TrailingZeros64(w)) + n.wheelSize - nowSlot
		}
	}
	return -1
}

// phase1 advances this shard by one cycle: deliver due events, then step
// terminals and routers. Safe to run concurrently with other shards'
// phase1 in a concurrent cycle; it then touches only shard-owned state plus
// the read-only topology, routing and config structures.
func (s *shard) phase1() {
	n := s.net
	if n.pendingImport {
		s.importOutbox()
	}
	slot := n.nowSlot
	evs := s.wheel[slot]
	for i := range evs {
		e := &evs[i]
		switch e.kind {
		case evFlitToRouter:
			n.routers[e.router].AcceptFlit(int(e.port), int(e.vc), &e.flit)
			s.active.set(int(e.router) - s.r0)
		case evCreditToRouter:
			n.routers[e.router].AcceptCredit(int(e.port), int(e.vc))
		case evFlitToTerminal:
			n.terminals[e.terminal].receive(s, &e.flit)
		case evCreditToTerminal:
			n.terminals[e.terminal].credit(int(e.vc))
		}
	}
	s.recycleSlot(slot)

	if n.cfg.Reference {
		for t := s.t0; t < s.t1; t++ {
			term := n.terminals[t]
			term.generate(s)
			term.send(s)
		}
		for r := s.r0; r < s.r1; r++ {
			s.stepRouter(n.routers[r])
		}
		s.load, s.loadLow = s.r1-s.r0, (s.r1-s.r0)/2
		return
	}
	s.wakeDue()
	if n.cfg.Validate {
		s.validateWakeIndex()
	}
	// Each word is read before its terminals (routers) are visited, and a
	// visit changes no bit but its own, so the scan sees every member once,
	// in id order.
	for wi, w := range s.awake {
		for base := s.t0 + wi*64; w != 0; w &= w - 1 {
			t := base + bits.TrailingZeros64(w)
			term := n.terminals[t]
			term.generate(s)
			term.send(s)
			if term.wakeAt(n) > n.now { // still awake otherwise: nothing to re-file
				s.settle(t)
			}
			s.termVisits++
		}
	}
	// A stepped router wakes no other in the same cycle (every event has a
	// delay), so the active set here is the set of routers visited below.
	s.load, s.loadLow = s.active.count((s.r1 - s.r0) / 2)
	for wi, w := range s.active {
		for base := wi * 64; w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			rt := n.routers[s.r0+i]
			if gap := n.now - s.lastStep[i] - 1; gap > 0 {
				rt.SkipIdle(gap)
			}
			s.lastStep[i] = n.now
			s.stepRouter(rt)
			if rt.Quiescent() {
				s.active.clear(i)
			}
			s.routerVisits++
		}
	}
}

// stepRouter advances one router and schedules its departures and credits.
func (s *shard) stepRouter(r *router.Router) {
	topo := s.net.cfg.Topology
	deps, credits := r.Step()
	for _, d := range deps {
		if topo.IsTerminalPort(d.OutPort) {
			term := topo.RouterTerminal(r.ID(), d.OutPort)
			// ST (1) + ejection link (1).
			s.scheduleLocal(2, event{kind: evFlitToTerminal, terminal: int32(term), flit: d.Flit})
			// Sink consumes instantly; credit returns after the round
			// trip (ejection link + credit processing).
			s.scheduleLocal(4, event{kind: evCreditToRouter, router: int32(r.ID()), port: int16(d.OutPort), vc: int16(d.OutVC)})
			continue
		}
		ch := topo.Channels[topo.OutChannel[r.ID()][d.OutPort]]
		s.scheduleRouter(int64(2+ch.Latency), event{
			kind: evFlitToRouter, router: int32(ch.Dst), port: int16(ch.DstPort), vc: int16(d.OutVC), flit: d.Flit,
		})
	}
	for _, c := range credits {
		if topo.IsTerminalPort(c.InPort) {
			term := topo.RouterTerminal(r.ID(), c.InPort)
			s.scheduleLocal(2, event{kind: evCreditToTerminal, terminal: int32(term), vc: int16(c.InVC)})
			continue
		}
		ch := topo.Channels[topo.InChannel[r.ID()][c.InPort]]
		s.scheduleRouter(int64(2+ch.Latency), event{
			kind: evCreditToRouter, router: int32(ch.Src), port: int16(ch.SrcPort), vc: int16(c.InVC),
		})
	}
}

// flitDelivered counts an ejected flit for throughput accounting.
func (s *shard) flitDelivered() {
	s.delivered++
	n := s.net
	if n.now >= n.measStart && n.now < n.measEnd {
		s.measFlits++
	}
}

// allocPacket draws a recycled packet object (or allocates one) and
// initializes its fields. ID assignment and measurement accounting are the
// caller's responsibility.
func (s *shard) allocPacket(t traffic.PacketType, src, dst int, createdAt int64) *router.Packet {
	var p *router.Packet
	if k := len(s.freePkts) - 1; k >= 0 {
		p, s.freePkts = s.freePkts[k], s.freePkts[:k]
	} else {
		p = new(router.Packet)
	}
	*p = router.Packet{
		Type:      t,
		Src:       src,
		Dst:       dst,
		Size:      t.Flits(),
		CreatedAt: createdAt,
		Route:     routing.PacketRoute{DestTerminal: dst, Intermediate: -1},
	}
	s.created += int64(p.Size)
	s.livePkts++
	return p
}

// newRequest registers a freshly created request packet. An inline cycle
// takes the next global ID immediately; a concurrent phase 1 defers
// assignment to the commit, which hands out the same IDs in the same
// terminal-order sequence.
func (s *shard) newRequest(t traffic.PacketType, src, dst int, createdAt int64) *router.Packet {
	p := s.allocPacket(t, src, dst, createdAt)
	n := s.net
	if n.concurrent {
		s.newPkts = append(s.newPkts, p)
	} else {
		n.nextPktID++
		p.ID = n.nextPktID
	}
	if createdAt >= n.measStart && createdAt < n.measEnd {
		s.newMeasured++
	}
	return p
}

// mergeAndCommit is phase 2 of a cycle: single-threaded, it publishes the
// cycle's cross-shard events and commits packet births and deliveries in a
// canonical order, making results bit-identical on one shard or two.
func (n *Network) mergeAndCommit() {
	// 1. Publish outboxes: a concurrent cycle's outCur becomes the next
	// cycle's outPrev, which the other shard imports; the buffer it drained
	// in this cycle is truncated for reuse. An inline cycle filed nothing, so
	// after it the swap only retires what it imported.
	if n.concurrent || n.pendingImport {
		for _, s := range n.shards {
			s.outCur, s.outPrev = s.outPrev[:0], s.outCur
		}
		n.pendingImport = n.concurrent
	}
	// 2. IDs for this cycle's new requests, in terminal order (shards own
	// contiguous terminal ranges and append in id order). An inline cycle
	// assigned them in newRequest — same order, since replies are only
	// created below, after every request of the cycle.
	for _, s := range n.shards {
		for _, p := range s.newPkts {
			n.nextPktID++
			p.ID = n.nextPktID
		}
		s.newPkts = s.newPkts[:0]
		n.measuredCreated += s.newMeasured
		n.inFlight += s.newMeasured
		s.newMeasured = 0
	}
	// 3. Deliveries, in destination-terminal order. Each shard's list is in
	// wheel-slot order, which depends on the shard layout; the terminal is
	// unique per cycle and layout-independent, so sort by it (insertion
	// sort: the lists are tiny and this path must not allocate).
	for _, s := range n.shards {
		d := s.deliveries
		for i := 1; i < len(d); i++ {
			for j := i; j > 0 && d[j].terminal < d[j-1].terminal; j-- {
				d[j], d[j-1] = d[j-1], d[j]
			}
		}
		for _, dv := range d {
			n.commitDelivery(s, dv)
		}
		s.deliveries = s.deliveries[:0]
	}
}

// commitDelivery records a completed packet's statistics and generates the
// reply its delivery elicits (§3.2: replies are created in the next cycle
// and take priority over new request injections).
func (n *Network) commitDelivery(s *shard, d delivery) {
	p := d.pkt
	n.packetDelivered(p)
	if p.Type.IsRequest() {
		reply := s.allocPacket(p.Type.ReplyType(), d.terminal, p.Src, n.now+1)
		n.nextPktID++
		reply.ID = n.nextPktID
		if reply.CreatedAt >= n.measStart && reply.CreatedAt < n.measEnd {
			n.measuredCreated++
			n.inFlight++
		}
		n.terminals[d.terminal].replyQ.push(reply)
		s.settle(d.terminal)
	}
	s.freePkts = append(s.freePkts, p)
	s.livePkts--
}
