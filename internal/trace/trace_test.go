package trace

import (
	"strings"
	"testing"
)

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{Inject, RouteComputed, VAGrant, SAGrant, Misspec, Eject} {
		if k.String() == "" || strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d missing a name", int(k))
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestTracerStampsCycle(t *testing.T) {
	c := NewCollector(8)
	tr := New(c, nil)
	tr.SetCycle(41)
	tr.Record(Event{Kind: VAGrant, Router: 3})
	tr.SetCycle(42)
	tr.Record(Event{Kind: SAGrant, Router: 3})
	evs := c.Events()
	if len(evs) != 2 || evs[0].Cycle != 41 || evs[1].Cycle != 42 {
		t.Fatalf("bad stamping: %v", evs)
	}
}

func TestTracerFilter(t *testing.T) {
	c := NewCollector(8)
	tr := New(c, func(e Event) bool { return e.Kind == Misspec })
	tr.Record(Event{Kind: VAGrant})
	tr.Record(Event{Kind: Misspec})
	tr.Record(Event{Kind: SAGrant})
	if c.Total() != 1 || c.Events()[0].Kind != Misspec {
		t.Fatalf("filter failed: %v", c.Events())
	}
}

func TestCollectorRingBuffer(t *testing.T) {
	c := NewCollector(3)
	for i := 0; i < 5; i++ {
		c.Record(Event{Seq: i})
	}
	if c.Total() != 5 {
		t.Fatalf("Total = %d", c.Total())
	}
	evs := c.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Seq != i+2 {
			t.Fatalf("retention order wrong: %v", evs)
		}
	}
}

func TestCollectorPacketEvents(t *testing.T) {
	c := NewCollector(16)
	c.Record(Event{Packet: 1, Seq: 0})
	c.Record(Event{Packet: 2, Seq: 0})
	c.Record(Event{Packet: 1, Seq: 1})
	evs := c.PacketEvents(1)
	if len(evs) != 2 || evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Fatalf("packet filter wrong: %v", evs)
	}
}

func TestWriterRendersLines(t *testing.T) {
	var sb strings.Builder
	w := Writer{W: &sb}
	w.Record(Event{Cycle: 7, Kind: SAGrant, Router: 2, Port: 1, VC: 0, OutPort: 3, OutVC: 1, Packet: 9, Seq: 2, Spec: true})
	out := sb.String()
	for _, want := range []string{"cycle=7", "sa_grant", "router=2", "pkt=9", "spec=true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("line %q missing %q", out, want)
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(nil, nil) },
		func() { NewCollector(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
