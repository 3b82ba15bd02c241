package sim

import (
	"math"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// pktQueue is a FIFO of packets with a head index, so dequeues neither
// shift elements nor shrink the backing array's reusable capacity.
type pktQueue struct {
	buf  []*router.Packet
	head int
}

func (q *pktQueue) empty() bool           { return q.head >= len(q.buf) }
func (q *pktQueue) front() *router.Packet { return q.buf[q.head] }
func (q *pktQueue) push(p *router.Packet) { q.buf = append(q.buf, p) }

func (q *pktQueue) pop() *router.Packet {
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return p
}

// terminal models one network endpoint: it generates request transactions,
// streams packet flits into its router's terminal-port input VCs (one flit
// per cycle, credit flow-controlled), consumes ejected flits, and generates
// replies for received requests with priority over new injections (§3.2).
type terminal struct {
	id       int
	routerID int
	port     int
	net      *Network
	gen      *traffic.Generator
	// rng feeds the arrival process and the request it starts; routeRNG
	// feeds the routing decision made when a packet opens (UGAL's Valiant
	// intermediate). Neither stream has another reader, so presampling
	// arrivals ahead of the clock never meets a routing draw.
	rng      *xrand.Source
	routeRNG *xrand.Source
	spec     core.VCSpec

	// Source queues: replies take strict priority over requests.
	replyQ pktQueue
	reqQ   pktQueue

	// Open packet being streamed, the next flit to send and its VC.
	cur    *router.Packet
	curSeq int
	curVC  int

	// Terminal-side view of the router's terminal-port input VCs: which
	// are occupied by one of our packets, and how many credits remain.
	vcBusy  []bool
	credits []int

	// recorded accumulates this terminal's injected request transactions
	// when Config.RecordArrivals is set (nil otherwise); the per-terminal
	// buffers are merged into one canonical trace by Network.ArrivalTrace,
	// which keeps recording deterministic on one shard or two.
	recorded []traffic.Arrival
	record   bool

	sentFlits int64
}

func newTerminal(n *Network, id, routerID, port int, rng, routeRNG *xrand.Source, pattern traffic.Pattern, proc traffic.ArrivalProcess) *terminal {
	cfg := n.cfg
	v := cfg.Spec.V()
	t := &terminal{
		id:       id,
		routerID: routerID,
		port:     port,
		net:      n,
		gen:      traffic.NewGeneratorProcess(pattern, proc, *cfg.ReadFraction),
		rng:      rng,
		routeRNG: routeRNG,
		spec:     cfg.Spec,
		vcBusy:   make([]bool, v),
		credits:  make([]int, v),
		curVC:    -1,
		record:   cfg.RecordArrivals,
	}
	for i := range t.credits {
		t.credits[i] = cfg.BufDepth
	}
	return t
}

// never is the wake cycle of a terminal nothing but an outside event — a
// delivered request's reply — can wake.
const never = math.MaxInt64

// wakeAt returns the first cycle in which the terminal has to be visited
// again; any value <= now means this cycle. At zero rate the injection
// process draws no randomness when ticked (the ArrivalProcess
// quiet-at-zero-rate contract), and with no open packet and empty source
// queues both generate and send are no-ops, so the terminal sleeps until
// something outside wakes it. A reply elicited by a delivery this cycle is
// enqueued by the end-of-cycle commit, so the terminal is awake from the
// next cycle on; that is exactly when the reply first becomes sendable (its
// CreatedAt is the following cycle).
//
// An idle terminal that has presampled its next arrival (generate) sleeps
// until that cycle: the per-cycle gate draws it would have made were
// consumed in one batch at presample time, and nothing else reads its
// arrival stream, so skipping the terminal neither skips work nor
// desynchronizes the stream. The reference schedule presamples nothing, so
// there a terminal with offered load is always awake; it visits every
// terminal anyway.
func (t *terminal) wakeAt(n *Network) int64 {
	if t.cur != nil || !t.replyQ.empty() || !t.reqQ.empty() {
		return n.now
	}
	if t.gen.PendingArrival() {
		// A presampled arrival is still owed even if the process has gone
		// quiet since it was drawn — a trace replay's rate drops to 0 the
		// moment its last arrival is presampled — so the terminal sleeps
		// only until that cycle, never past it.
		return t.gen.PresampledArrival()
	}
	if t.gen.Rate() <= 0 {
		return never
	}
	return t.gen.PresampledArrival() // -1, so awake, until presampled
}

// dormant reports whether the terminal can be skipped this cycle. The
// steppers read the shards' wake index instead (wake.go); this is the
// predicate Validate mode checks that index against.
func (t *terminal) dormant(n *Network) bool { return t.wakeAt(n) > n.now }

// inject pushes a new request transaction into the source queue, recording
// it when arrival recording is on.
func (t *terminal) inject(s *shard, typ traffic.PacketType, dst int) {
	if t.record {
		t.recorded = append(t.recorded, traffic.Arrival{Cycle: s.net.now, Src: t.id, Dst: dst, Type: typ})
	}
	t.reqQ.push(s.newRequest(typ, t.id, dst, s.net.now))
}

// generate rolls the injection process for this cycle. Under the default
// schedule, traced or not, an idle terminal consumes the whole run of
// per-cycle Bernoulli failures up to the next success in one batch,
// exposing the arrival cycle to the wake index and the leap gate; the batch
// is the exact same draw sequence the reference schedule consumes one cycle
// at a time.
func (t *terminal) generate(s *shard) {
	n := s.net
	if !n.cfg.Reference && (t.gen.Rate() > 0 || t.gen.PendingArrival()) {
		t.generateLeap(s)
		return
	}
	typ, dst, ok := t.gen.NextRequest(t.id, t.rng)
	if !ok {
		return
	}
	t.inject(s, typ, dst)
}

// presampleChunk bounds one presampling batch: an idle terminal consumes
// at most this many per-cycle gate draws ahead of the clock, so ultra-low
// rates don't eagerly burn an entire geometric run (mean 1/p cycles, vastly
// past the end of the run at low p). A batch that ends without an arrival
// parks the generator's presampled wake-up at the chunk boundary as a
// checkpoint (PresampledReal false); the leap gate may jump there, and
// sampling resumes. A terminal therefore draws at most one chunk more gates
// than the cycles it lives through.
const presampleChunk = 1024

// generateLeap is the presampling injection path (see generate).
func (t *terminal) generateLeap(s *shard) {
	n := s.net
	g := t.gen
	if next := g.PresampledArrival(); next >= 0 {
		switch {
		case n.now < next:
			// Woken before the presampled arrival (a reply arrived): the
			// presample stands. Its draws already cover this cycle's gate.
			return
		case g.PresampledReal():
			// now == the presampled arrival: the gate draw was consumed at
			// presample time; draw the rest of the transaction and emit. A
			// leaped schedule cannot overshoot: the leap gate never jumps
			// past a presampled wake-up.
			g.ClearPresample()
			typ, dst := g.RequestAt(t.id, t.rng)
			t.inject(s, typ, dst)
			return
		default:
			// Chunk checkpoint: the previous batch held no arrival, and its
			// draws covered exactly the cycles before this one. Resume
			// sampling below as if freshly idle (or tick per-cycle if a
			// reply arrived at this very cycle).
			g.ClearPresample()
		}
	}
	if t.cur != nil || !t.replyQ.empty() || !t.reqQ.empty() {
		// Busy terminals tick the per-cycle process: send has to run
		// every cycle anyway, so presampling would buy nothing.
		typ, dst, ok := g.NextRequest(t.id, t.rng)
		if ok {
			t.inject(s, typ, dst)
		}
		return
	}
	g.Presample(t.rng, n.now, presampleChunk)
	if g.PresampledArrival() == n.now {
		// The batch's first tick fired: the arrival is this cycle; emit.
		g.ClearPresample()
		typ, dst := g.RequestAt(t.id, t.rng)
		t.inject(s, typ, dst)
	}
}

// receive consumes an ejected flit; a tail records the completed packet for
// the end-of-cycle commit, which takes the delivery statistics and generates
// the reply (§3.2: in the next cycle, with priority over new request
// injections).
func (t *terminal) receive(s *shard, f *router.Flit) {
	s.flitDelivered()
	if tr := s.net.cfg.Trace; tr != nil {
		tr.Record(trace.Event{Kind: trace.Eject, Router: t.routerID,
			Port: t.port, VC: -1, OutPort: -1, OutVC: -1, Packet: f.Pkt.ID, Seq: int(f.Seq)})
	}
	if f.Tail {
		s.deliveries = append(s.deliveries, delivery{terminal: t.id, pkt: f.Pkt})
	}
}

// credit restores one credit for input VC vc at the router's terminal port.
func (t *terminal) credit(vc int) {
	t.credits[vc]++
}

// send streams at most one flit into the router this cycle, opening a new
// packet when the previous one finished and an input VC of the packet's
// class is available.
func (t *terminal) send(s *shard) {
	if t.cur == nil {
		t.open(s)
	}
	if t.cur == nil {
		return
	}
	if t.credits[t.curVC] <= 0 {
		return
	}
	p, seq := t.cur, t.curSeq
	t.credits[t.curVC]--
	t.sentFlits++
	if tr := s.net.cfg.Trace; tr != nil {
		tr.Record(trace.Event{Kind: trace.Inject, Router: t.routerID,
			Port: t.port, VC: t.curVC, OutPort: -1, OutVC: -1, Packet: p.ID, Seq: seq})
	}
	// Injection link: 1 cycle of terminal processing + 1 cycle of wire. The
	// terminal's router is on its own shard by construction.
	s.scheduleLocal(2, event{kind: evFlitToRouter, router: int32(t.routerID), port: int16(t.port), vc: int16(t.curVC),
		flit: router.Flit{Pkt: p, Seq: int32(seq), Head: seq == 0, Tail: seq == p.Size-1}})
	t.curSeq++
	if t.curSeq == p.Size {
		t.vcBusy[t.curVC] = false
		t.cur, t.curSeq, t.curVC = nil, 0, -1
	}
}

// open starts streaming the next queued packet if an input VC is free.
// Replies are strictly prioritized: while a reply waits, request injection
// stalls.
func (t *terminal) open(s *shard) {
	n := s.net
	var q *pktQueue
	switch {
	case !t.replyQ.empty() && t.replyQ.front().CreatedAt <= n.now:
		q = &t.replyQ
	case !t.reqQ.empty() && t.reqQ.front().CreatedAt <= n.now:
		q = &t.reqQ
	default:
		return
	}
	p := q.front()
	// Routing decision at injection (UGAL consults local queue state and
	// draws from this terminal's routing stream).
	if n.injector != nil {
		n.injector.Inject(t.routerID, &p.Route, n, t.routeRNG)
	}
	// The packet must occupy an input VC matching its message class and
	// initial resource class: the lowest free one of that class's range.
	vc := -1
	for c, hi := t.spec.ClassRange(p.Type.MessageClass(), p.Route.Phase); c < hi; c++ {
		if !t.vcBusy[c] {
			vc = c
			break
		}
	}
	if vc < 0 {
		return // head-of-line blocked until a VC frees up
	}
	q.pop()
	t.cur = p
	t.curSeq = 0
	t.curVC = vc
	t.vcBusy[vc] = true
}

// ArrivalTrace returns the run's recorded injection workload (requires
// Config.RecordArrivals): the per-terminal buffers merged into canonical
// (cycle, src) order. Each terminal appends its own arrivals during its
// shard's phase, so recording is race-free and the merged trace is
// bit-identical on one shard or two and for either schedule.
func (n *Network) ArrivalTrace() *traffic.PacketTrace {
	if !n.cfg.RecordArrivals {
		panic("sim: ArrivalTrace requires Config.RecordArrivals")
	}
	pt := &traffic.PacketTrace{Terminals: len(n.terminals)}
	for _, t := range n.terminals {
		pt.Arrivals = append(pt.Arrivals, t.recorded...)
	}
	pt.Sort()
	return pt
}

// SentFlits returns the total flits handed to routers by all terminals.
func (n *Network) SentFlits() int64 {
	var s int64
	for _, t := range n.terminals {
		s += t.sentFlits
	}
	return s
}
