package sim

import (
	"testing"
	"unsafe"
)

// creditEv builds a harmless wheel event (a terminal credit bump) for
// scheduling machinery tests.
func creditEv() event { return event{kind: evCreditToTerminal, terminal: 0, vc: 0} }

// TestEventSize pins the wheel event at 32 bytes: the flit it carries by
// value (a packet pointer, a 32-bit sequence number and two marks) plus the
// narrowed destination fields. Every flit and credit of a run is copied
// into a wheel slot and out again, and an outbox entry wraps one event.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 32 {
		t.Fatalf("wheel event is %d bytes, want 32", got)
	}
}

// TestNextEventDelta pins the occupancy-bitmask earliest-event query,
// including the wrap around the circular wheel: the mesh wheel has 5 slots,
// so advancing nowSlot past the middle forces the wrapped scan path.
func TestNextEventDelta(t *testing.T) {
	cfg := meshConfig(2, 0) // no traffic: the wheel stays empty unless we fill it
	n := New(cfg)
	s := n.shards[0]
	if d := s.nextEventDelta(); d != -1 {
		t.Fatalf("empty wheel: nextEventDelta = %d, want -1", d)
	}
	for i := 0; i < 3; i++ {
		n.stepCycle()
	}
	if n.nowSlot != 3 {
		t.Fatalf("nowSlot = %d after 3 cycles, want 3", n.nowSlot)
	}
	s.scheduleLocal(3, creditEv()) // slot (3+3)%5 = 1: only reachable via wrap
	if d := s.nextEventDelta(); d != 3 {
		t.Fatalf("wrapped event: nextEventDelta = %d, want 3", d)
	}
	s.scheduleLocal(1, creditEv()) // slot 4: ahead of nowSlot, no wrap
	if d := s.nextEventDelta(); d != 1 {
		t.Fatalf("near event: nextEventDelta = %d, want 1", d)
	}
	n.stepCycle() // drains slot 3 (empty), lands on slot 4
	if d := s.nextEventDelta(); d != 0 {
		t.Fatalf("due event: nextEventDelta = %d, want 0", d)
	}
	n.stepCycle() // delivers the slot-4 credit
	if d := s.nextEventDelta(); d != 1 {
		t.Fatalf("after drain: nextEventDelta = %d, want 1 (the wrapped event)", d)
	}
	n.stepCycle()
	if d := s.nextEventDelta(); d != 0 {
		t.Fatalf("wrapped event now due: nextEventDelta = %d, want 0", d)
	}
	n.stepCycle()
	if d := s.nextEventDelta(); d != -1 {
		t.Fatalf("all drained: nextEventDelta = %d, want -1", d)
	}
}

// occConsistent verifies every shard's occupancy bit agrees with the raw
// slot contents.
func occConsistent(t *testing.T, n *Network, when string) {
	t.Helper()
	for _, s := range n.shards {
		for slot := int64(0); slot < n.wheelSize; slot++ {
			occupied := s.occ[slot>>6]&(1<<(uint(slot)&63)) != 0
			if occupied != (len(s.wheel[slot]) > 0) {
				t.Fatalf("%s: shard %d slot %d: occupancy bit %v, %d events",
					when, s.id, slot, occupied, len(s.wheel[slot]))
			}
		}
	}
}

// TestWheelOccupancyTracksSlots drives a loaded split simulation and
// cross-checks the occupancy bitmask against the raw wheel every cycle —
// covering local schedules, cross-shard imports and slot drains.
func TestWheelOccupancyTracksSlots(t *testing.T) {
	n := New(meshConfig(2, 0.3))
	splitLent(n)
	defer n.Close()
	for i := 0; i < 400; i++ {
		n.stepCycle()
		occConsistent(t, n, "cycle")
	}
}
