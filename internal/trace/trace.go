// Package trace provides cycle-stamped event tracing for the router
// pipeline and network simulation: VC allocation grants, switch grants,
// misspeculations, flit movements and terminal activity. Traces are the
// debugging substrate for the simulator — when a latency curve looks wrong,
// the per-packet event log says which router and which pipeline decision is
// responsible.
package trace

import (
	"fmt"
	"io"
)

// Kind classifies trace events.
type Kind int

const (
	// Inject marks a flit leaving a terminal's source queue toward its
	// router.
	Inject Kind = iota
	// RouteComputed marks lookahead route computation for a head flit.
	RouteComputed
	// VAGrant marks an output-VC assignment.
	VAGrant
	// SAGrant marks a switch grant (crossbar traversal of one flit).
	SAGrant
	// Misspec marks a wasted speculative switch grant (§5.2).
	Misspec
	// Eject marks a flit consumed by its destination terminal.
	Eject
)

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case Inject:
		return "inject"
	case RouteComputed:
		return "route"
	case VAGrant:
		return "va_grant"
	case SAGrant:
		return "sa_grant"
	case Misspec:
		return "misspec"
	case Eject:
		return "eject"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one pipeline occurrence.
type Event struct {
	// Cycle is the simulation cycle (stamped by the Tracer).
	Cycle int64
	// Kind classifies the event.
	Kind Kind
	// Router is the router index, or -1 for terminal events.
	Router int
	// Port and VC locate the input VC involved (-1 when not applicable).
	Port, VC int
	// OutPort and OutVC locate the granted output (-1 when not applicable).
	OutPort, OutVC int
	// Packet and Seq identify the flit (-1 when not applicable).
	Packet int64
	Seq    int
	// Spec marks speculative switch grants.
	Spec bool
}

// String renders one line per event.
func (e Event) String() string {
	return fmt.Sprintf("cycle=%d %s router=%d in=(%d,%d) out=(%d,%d) pkt=%d seq=%d spec=%v",
		e.Cycle, e.Kind, e.Router, e.Port, e.VC, e.OutPort, e.OutVC, e.Packet, e.Seq, e.Spec)
}

// Recorder receives events; implementations must be cheap when disabled.
type Recorder interface {
	Record(Event)
}

// Tracer stamps events with the current cycle and forwards them to a sink,
// optionally filtered. The zero value is unusable; create with New.
type Tracer struct {
	sink   Recorder
	cycle  int64
	filter func(Event) bool
}

// New returns a tracer forwarding to sink. filter may be nil (record all).
func New(sink Recorder, filter func(Event) bool) *Tracer {
	if sink == nil {
		panic("trace: nil sink")
	}
	return &Tracer{sink: sink, filter: filter}
}

// SetCycle sets the timestamp applied to subsequent events; the simulator
// calls it once per cycle.
func (t *Tracer) SetCycle(c int64) { t.cycle = c }

// Record stamps and forwards an event.
func (t *Tracer) Record(e Event) {
	e.Cycle = t.cycle
	if t.filter != nil && !t.filter(e) {
		return
	}
	t.sink.Record(e)
}

// Collector is a bounded in-memory sink: it retains the most recent
// capacity events.
type Collector struct {
	cap    int
	events []Event
	start  int
	total  int64
}

// NewCollector returns a sink retaining up to capacity events.
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		panic("trace: capacity must be positive")
	}
	return &Collector{cap: capacity}
}

// Record implements Recorder.
func (c *Collector) Record(e Event) {
	c.total++
	if len(c.events) < c.cap {
		c.events = append(c.events, e)
		return
	}
	c.events[c.start] = e
	c.start = (c.start + 1) % c.cap
}

// Total returns the number of events recorded (including evicted ones).
func (c *Collector) Total() int64 { return c.total }

// Events returns the retained events in arrival order.
func (c *Collector) Events() []Event {
	out := make([]Event, 0, len(c.events))
	for i := 0; i < len(c.events); i++ {
		out = append(out, c.events[(c.start+i)%len(c.events)])
	}
	return out
}

// PacketEvents returns the retained events for one packet, in order.
func (c *Collector) PacketEvents(pkt int64) []Event {
	var out []Event
	for _, e := range c.Events() {
		if e.Packet == pkt {
			out = append(out, e)
		}
	}
	return out
}

// Writer is a sink that renders each event as one text line.
type Writer struct {
	W io.Writer
}

// Record implements Recorder; write errors are intentionally dropped
// (tracing must never perturb the simulation).
func (w Writer) Record(e Event) {
	fmt.Fprintln(w.W, e.String())
}
