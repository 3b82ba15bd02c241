// Package traffic implements the synthetic workloads of Becker & Dally
// (SC '09) §3.2: spatial traffic patterns (uniform random plus the standard
// permutations) and the request–reply transaction model in which read
// requests and write replies are single-flit packets while read replies and
// write requests carry four payload flits behind the head flit.
package traffic

import (
	"fmt"
	"math/bits"

	"repro/internal/xrand"
)

// PacketType enumerates the four packet kinds of the transaction model.
type PacketType int

const (
	// ReadRequest is a single-flit read request.
	ReadRequest PacketType = iota
	// ReadReply is a five-flit read reply (head + four payload flits).
	ReadReply
	// WriteRequest is a five-flit write request.
	WriteRequest
	// WriteReply is a single-flit write acknowledgment.
	WriteReply
)

// String returns a short identifier.
func (t PacketType) String() string {
	switch t {
	case ReadRequest:
		return "read_req"
	case ReadReply:
		return "read_reply"
	case WriteRequest:
		return "write_req"
	case WriteReply:
		return "write_reply"
	default:
		return fmt.Sprintf("PacketType(%d)", int(t))
	}
}

// Flits returns the packet length in flits (§3.2: read requests and write
// replies are one flit; read replies and write requests are five).
func (t PacketType) Flits() int {
	switch t {
	case ReadRequest, WriteReply:
		return 1
	case ReadReply, WriteRequest:
		return 5
	default:
		panic(fmt.Sprintf("traffic: unknown packet type %d", int(t)))
	}
}

// MessageClass returns the VC message class: requests travel in class 0,
// replies in class 1, preventing protocol deadlock at the network boundary.
func (t PacketType) MessageClass() int {
	switch t {
	case ReadRequest, WriteRequest:
		return 0
	case ReadReply, WriteReply:
		return 1
	default:
		panic(fmt.Sprintf("traffic: unknown packet type %d", int(t)))
	}
}

// IsRequest reports whether the packet elicits a reply at its destination.
func (t PacketType) IsRequest() bool { return t == ReadRequest || t == WriteRequest }

// ReplyType returns the packet type of the reply a request elicits.
func (t PacketType) ReplyType() PacketType {
	switch t {
	case ReadRequest:
		return ReadReply
	case WriteRequest:
		return WriteReply
	default:
		panic(fmt.Sprintf("traffic: %v has no reply", t))
	}
}

// FlitsPerTransaction is the total flit count of any request–reply pair
// (1+5 or 5+1); the paper uses it to relate packet and flit injection rates.
const FlitsPerTransaction = 6

// Pattern maps source terminals to destination terminals.
type Pattern interface {
	// Dest returns the destination terminal for a packet injected at src.
	// rng is consulted only by randomized patterns.
	Dest(src int, rng *xrand.Source) int
}

// NewPattern constructs a pattern by name over n terminals. Supported:
// "uniform", "transpose", "bitcomp", "bitrev", "shuffle", "tornado",
// "neighbor", "hotspot" (with default hotspot set and fraction; use
// NewHotspot for explicit parameters). Permutation patterns require n to be
// a power of two (and "transpose" a square power of two), matching standard
// usage.
func NewPattern(name string, n int) (Pattern, error) {
	if n <= 1 {
		return nil, fmt.Errorf("traffic: need at least 2 terminals, got %d", n)
	}
	switch name {
	case "uniform":
		return uniform{n: n}, nil
	case "hotspot":
		return NewHotspot(n, nil, 0)
	case "transpose", "bitcomp", "bitrev", "shuffle":
		if n&(n-1) != 0 {
			return nil, fmt.Errorf("traffic: %s requires power-of-two terminals, got %d", name, n)
		}
		b := bits.TrailingZeros(uint(n))
		if name == "transpose" && b%2 != 0 {
			return nil, fmt.Errorf("traffic: transpose requires an even number of address bits, got %d", b)
		}
		return bitPattern{name: name, n: n, b: b}, nil
	case "tornado":
		return tornado{n: n}, nil
	case "neighbor":
		return neighbor{n: n}, nil
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q", name)
	}
}

type uniform struct{ n int }

// Dest draws a destination uniformly among all other terminals.
func (u uniform) Dest(src int, rng *xrand.Source) int {
	d := rng.Intn(u.n - 1)
	if d >= src {
		d++
	}
	return d
}

type bitPattern struct {
	name string
	n, b int
}

func (p bitPattern) Dest(src int, _ *xrand.Source) int {
	s := uint(src)
	switch p.name {
	case "transpose":
		half := p.b / 2
		lo := s & (1<<half - 1)
		hi := s >> half
		return int(lo<<half | hi)
	case "bitcomp":
		return int(^s & (1<<p.b - 1))
	case "bitrev":
		r := uint(0)
		for i := 0; i < p.b; i++ {
			r = r<<1 | (s>>i)&1
		}
		return int(r)
	case "shuffle":
		msb := (s >> (p.b - 1)) & 1
		return int((s<<1)&(1<<p.b-1) | msb)
	default:
		panic("traffic: bad bit pattern")
	}
}

type tornado struct{ n int }

// Dest sends halfway around the terminal ring.
func (t tornado) Dest(src int, _ *xrand.Source) int {
	return (src + t.n/2) % t.n
}

type neighbor struct{ n int }

func (nb neighbor) Dest(src int, _ *xrand.Source) int { return (src + 1) % nb.n }

// hotspot concentrates a configurable fraction of the traffic onto a small
// set of hot terminals and spreads the rest uniformly — the §3.2-style
// non-uniform spatial workload where destination contention separates
// allocator implementations.
type hotspot struct {
	n    int
	hot  []int
	frac float64
	// hotFor[src] is the hot set with src itself removed (a terminal never
	// sends to itself), precomputed so Dest stays allocation-free.
	hotFor [][]int
}

// DefaultHotspotFraction is the traffic share directed at the hot set when
// none is specified.
const DefaultHotspotFraction = 0.2

// NewHotspot builds a hotspot pattern over n terminals: with probability
// frac the destination is drawn uniformly from the hot set, otherwise
// uniformly from all other terminals. A nil/empty hot set defaults to
// terminal 0, a zero frac to DefaultHotspotFraction.
func NewHotspot(n int, hot []int, frac float64) (Pattern, error) {
	if n <= 1 {
		return nil, fmt.Errorf("traffic: need at least 2 terminals, got %d", n)
	}
	if len(hot) == 0 {
		hot = []int{0}
	}
	if frac == 0 {
		frac = DefaultHotspotFraction
	}
	if frac < 0 || frac > 1 {
		return nil, fmt.Errorf("traffic: hotspot fraction %g outside [0, 1]", frac)
	}
	seen := map[int]bool{}
	for _, h := range hot {
		if h < 0 || h >= n {
			return nil, fmt.Errorf("traffic: hotspot terminal %d outside [0, %d)", h, n)
		}
		if seen[h] {
			return nil, fmt.Errorf("traffic: duplicate hotspot terminal %d", h)
		}
		seen[h] = true
	}
	p := &hotspot{n: n, hot: append([]int(nil), hot...), frac: frac, hotFor: make([][]int, n)}
	for src := 0; src < n; src++ {
		dsts := make([]int, 0, len(hot))
		for _, h := range p.hot {
			if h != src {
				dsts = append(dsts, h)
			}
		}
		p.hotFor[src] = dsts
	}
	return p, nil
}

// Dest draws the hot-vs-background gate, then a destination uniformly within
// the chosen set (excluding src). A hot terminal whose hot set holds only
// itself falls back to the background draw without consuming the set draw,
// keeping the consumed-draw count a function of (src, gate) only.
func (h *hotspot) Dest(src int, rng *xrand.Source) int {
	if hot := h.hotFor[src]; len(hot) > 0 && rng.Bool(h.frac) {
		return hot[rng.Intn(len(hot))]
	}
	d := rng.Intn(h.n - 1)
	if d >= src {
		d++
	}
	return d
}

// Generator produces the per-terminal injection workload: an ArrivalProcess
// decides *when* transactions start (temporal), the Pattern and ReadFraction
// decide *where* they go and what kind they are (spatial) — unless the
// process is a trace Replay, which carries both halves.
//
// The generator also owns the event-leaping presample state: the wake-up
// cycle a bounded batch of future gate draws found (Presample; DESIGN.md §9).
type Generator struct {
	// Pattern chooses destinations.
	Pattern Pattern
	// ReadFraction is the probability a transaction is a read.
	ReadFraction float64

	proc ArrivalProcess

	// Presample state: next is the presampled wake-up cycle (-1 = not
	// sampled) — the next transaction arrival when nextReal, otherwise a
	// chunk checkpoint at which sampling resumes.
	next     int64
	nextReal bool

	draws DrawStats
}

// DrawStats counts a generator's gate draws — one per simulated cycle its
// arrival process covers, whether or not the process consumes randomness for
// it — by how they were made.
type DrawStats struct {
	// Presampled draws were made ahead of the clock, a batch at a time
	// (Presample).
	Presampled int64 `json:"presampled"`
	// Ticked draws were made one cycle at a time (NextRequest).
	Ticked int64 `json:"ticked"`
}

// Total is the number of gate draws made, however they were made.
func (d DrawStats) Total() int64 { return d.Presampled + d.Ticked }

// Add accumulates o into d.
func (d *DrawStats) Add(o DrawStats) {
	d.Presampled += o.Presampled
	d.Ticked += o.Ticked
}

// Draws returns the generator's gate draw counts since construction.
func (g *Generator) Draws() DrawStats { return g.draws }

// NewGeneratorProcess builds a generator around an arrival process, with
// reads making up readFraction of the transactions.
func NewGeneratorProcess(p Pattern, proc ArrivalProcess, readFraction float64) *Generator {
	return &Generator{Pattern: p, ReadFraction: readFraction, proc: proc, next: -1}
}

// Rate returns the process's offered load in flits/cycle/terminal.
func (g *Generator) Rate() float64 { return g.proc.Rate() }

// NextRequest rolls the injection process for one terminal-cycle — a batch
// of one gate draw. It returns (packetType, dest, true) when a new request
// transaction starts.
func (g *Generator) NextRequest(src int, rng *xrand.Source) (PacketType, int, bool) {
	g.draws.Ticked++
	if g.proc.NextArrivalDelta(rng, 1) != 0 {
		return 0, 0, false
	}
	t, d := g.RequestAt(src, rng)
	return t, d, true
}

// RequestAt draws the type and destination of a transaction whose arrival
// tick was already consumed — the second half of NextRequest, split out for
// the presampling path. A trace Replay supplies both directly, consuming no
// randomness.
func (g *Generator) RequestAt(src int, rng *xrand.Source) (PacketType, int) {
	if r, ok := g.proc.(*Replay); ok {
		return r.PacketAt()
	}
	t := WriteRequest
	if rng.Bool(g.ReadFraction) {
		t = ReadRequest
	}
	return t, g.Pattern.Dest(src, rng)
}

// Presample batch-samples up to chunk gate draws from cycle now on: the
// draws per-cycle ticking would make in those cycles. The presampled wake-up
// cycle is exposed by PresampledArrival: the arrival cycle itself when the
// batch found one (PresampledReal true, possibly now itself), otherwise the
// checkpoint now+chunk where sampling must resume.
func (g *Generator) Presample(rng *xrand.Source, now int64, chunk int) {
	if d := g.proc.NextArrivalDelta(rng, chunk); d < 0 {
		g.next, g.nextReal = now+int64(chunk), false
		g.draws.Presampled += int64(chunk)
	} else {
		g.next, g.nextReal = now+int64(d), true
		g.draws.Presampled += int64(d) + 1
	}
}

// PresampledArrival returns the presampled wake-up cycle, -1 when none is
// outstanding.
func (g *Generator) PresampledArrival() int64 { return g.next }

// PresampledReal reports whether the presampled wake-up is an actual
// arrival (as opposed to a chunk checkpoint).
func (g *Generator) PresampledReal() bool { return g.nextReal }

// PendingArrival reports whether a presampled real arrival is outstanding:
// its gate draws were consumed at presample time but it has not been
// emitted yet. The distinction matters for finite processes — a trace
// replay's Rate() drops to 0 the moment its last arrival is presampled —
// so a scheduler must treat a generator with a pending arrival as live
// even at zero rate, or the final arrival would be leapt over and lost.
func (g *Generator) PendingArrival() bool { return g.next >= 0 && g.nextReal }

// ClearPresample discards the outstanding presample without touching the
// RNG: the caller has reached (or consumed) the presampled cycle, so the
// batched draws exactly cover the elapsed cycles.
func (g *Generator) ClearPresample() { g.next = -1 }
