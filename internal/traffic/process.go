package traffic

import (
	"fmt"
	"sort"

	"repro/internal/xrand"
)

// ArrivalProcess is the per-terminal injection process: the temporal half of
// a workload (the spatial half is Pattern). The simulator consumes one gate
// draw per simulated cycle; a cycle's draw reports whether a new request
// transaction arrives in it. A tick is NextArrivalDelta(rng, 1) == 0.
//
// Contract (DESIGN.md §12) — every implementation must satisfy all of:
//
//   - Determinism: the draw sequence a tick consumes from rng is a function
//     of the process state alone, never of network state, so a terminal's
//     arrivals are a function of its stream alone.
//   - Quiet at zero rate: when Rate() <= 0 NextArrivalDelta consumes no
//     randomness and returns -1. This is what lets the active-set scheduler
//     skip a zero-rate terminal entirely while the dense reference still
//     ticks it every cycle — both consume nothing, so the schedules stay
//     bit-identical.
//   - Batched sampling: NextArrivalDelta consumes exactly the draws of k+1
//     ticks when it returns k >= 0 (the (k+1)th tick being the arrival) and
//     exactly max ticks when it returns -1. The event-leaping presampler
//     relies on this to consume per-cycle gate draws in one batch.
type ArrivalProcess interface {
	// Rate is the process's mean offered load in flits/cycle/terminal
	// (0 when the process can emit nothing more).
	Rate() float64
	// NextArrivalDelta batch-samples up to max ticks: it returns the offset
	// in cycles to the next arrival (0 = the current cycle) or -1 when none
	// of the max ticks arrived (or Rate() <= 0, consuming nothing).
	NextArrivalDelta(rng *xrand.Source, max int) int
}

// --- Bernoulli ---------------------------------------------------------------

// Bernoulli is the paper's §3.2 injection process: one independent gate draw
// per cycle at the transaction rate (flit rate / FlitsPerTransaction). It is
// memoryless.
type Bernoulli struct {
	rate float64
	gate uint64 // xrand.Threshold of the per-cycle transaction probability
}

// NewBernoulli builds the memoryless process at the given flit rate.
func NewBernoulli(rate float64) *Bernoulli {
	return &Bernoulli{rate: rate, gate: xrand.Threshold(rate / FlitsPerTransaction)}
}

func (b *Bernoulli) Rate() float64 { return b.rate }

// NextArrivalDelta consumes per-cycle gate draws until the first success —
// the exact stream ticking would consume one cycle at a time, which is what
// keeps event-leaped runs bit-identical to per-cycle ticking; a zero gate
// draws nothing, which is the quiet-at-zero-rate guarantee. A closed-form
// inversion sampler deliberately is not used here because it consumes a
// different number of draws.
func (b *Bernoulli) NextArrivalDelta(rng *xrand.Source, max int) int {
	return rng.FirstBelow(b.gate, max)
}

// --- Markov-modulated on/off (bursty) ---------------------------------------

// MMP is a two-state Markov-modulated process: the terminal alternates
// between ON bursts and OFF silences, drawing arrivals only while ON. Each
// tick first draws the state transition, then (if ON) the arrival gate, so
// the mean offered load is rate while the arrivals cluster into bursts —
// the adversarial temporal workload the dynamic-VC literature evaluates
// under (PAPERS.md, Onsori & Safaei).
//
// Parameterization: BurstLen is the mean ON duration in cycles
// (p_on->off = 1/BurstLen) and Duty the long-run ON fraction
// (p_off->on = duty/(1-duty) * p_on->off, the detailed-balance rate).
// While ON the transaction gate fires at (rate/6)/duty, so the long-run
// mean is the configured rate. Duty 1 degenerates to Bernoulli exactly:
// both transition probabilities are 0, and a zero gate consumes no draw, so
// the draw stream is bit-identical to the memoryless process.
//
// Every terminal starts ON deterministically; the synchronized initial
// burst is absorbed by warmup like any other cold-start transient.
type MMP struct {
	rate float64
	on   bool
	// xrand.Threshold of the three per-cycle gates: ON->OFF, OFF->ON and,
	// while ON, the arrival.
	gOnOff, gOffOn, gArr uint64
}

// NewMMP builds the bursty process: mean flit rate, mean burst length in
// cycles (>= 1) and duty cycle in (0, 1]. The per-cycle arrival gate while
// ON is (rate/6)/duty, so rate must not exceed 6*duty.
func NewMMP(rate, burstLen, duty float64) (*MMP, error) {
	if burstLen < 1 {
		return nil, fmt.Errorf("traffic: mmp burst length %g < 1 cycle", burstLen)
	}
	if duty <= 0 || duty > 1 {
		return nil, fmt.Errorf("traffic: mmp duty %g outside (0, 1]", duty)
	}
	if rate < 0 {
		return nil, fmt.Errorf("traffic: mmp rate %g < 0", rate)
	}
	if rate/FlitsPerTransaction/duty > 1 {
		return nil, fmt.Errorf("traffic: mmp rate %g exceeds duty-limited capacity %g", rate, FlitsPerTransaction*duty)
	}
	m := &MMP{rate: rate, on: true, gArr: xrand.Threshold(rate / FlitsPerTransaction / duty)}
	if duty < 1 {
		pOnOff := 1 / burstLen
		m.gOnOff = xrand.Threshold(pOnOff)
		m.gOffOn = xrand.Threshold(duty / (1 - duty) * pOnOff)
	}
	return m, nil
}

func (m *MMP) Rate() float64 { return m.rate }

// NextArrivalDelta runs up to max cycles of the chain. A cycle that starts
// OFF draws the OFF->ON gate and, only if that fires, the arrival gate; one
// that starts ON draws the ON->OFF gate and, unless that fires, the arrival
// gate. An OFF silence is therefore a run of single draws against one
// threshold and goes through FirstBelow in one batch; ON cycles alternate
// two thresholds and are drawn one at a time. At rate <= 0 it consumes
// nothing and freezes the phase — the dense schedule keeps ticking zero-rate
// terminals while the active set skips them, and both must leave the rng
// stream untouched.
func (m *MMP) NextArrivalDelta(rng *xrand.Source, max int) int {
	if m.rate <= 0 {
		return -1
	}
	for k := 0; k < max; k++ {
		if !m.on {
			d := rng.FirstBelow(m.gOffOn, max-k)
			if d < 0 {
				return -1
			}
			k += d
			m.on = true
		} else if rng.FirstBelow(m.gOnOff, 1) == 0 {
			m.on = false
			continue
		}
		if rng.FirstBelow(m.gArr, 1) == 0 {
			return k
		}
	}
	return -1
}

// --- Trace replay ------------------------------------------------------------

// Arrival is one recorded request-transaction injection: at Cycle, terminal
// Src started a Type transaction to Dst. It is the unit of a PacketTrace.
type Arrival struct {
	Cycle int64      `json:"cycle"`
	Src   int        `json:"src"`
	Dst   int        `json:"dst"`
	Type  PacketType `json:"type"`
}

// PacketTrace is a recorded injection workload: every request transaction of
// a run, sorted by (cycle, source). Replaying it through Replay processes
// reproduces the recorded offered load exactly — same cycles, sources,
// destinations and types — independent of the replaying network's topology
// or allocators (internal/trace serializes it; sim records it).
type PacketTrace struct {
	// Terminals is the terminal count of the recording network; replay
	// requires at least this many terminals.
	Terminals int `json:"terminals"`
	// Arrivals is sorted by (Cycle, Src); per source, cycles are strictly
	// increasing (a terminal starts at most one transaction per cycle).
	Arrivals []Arrival `json:"arrivals"`
}

// Validate checks the trace's structural invariants: sources and
// destinations in range, no self-traffic, request packet types, global
// (cycle, src) order and per-source strictly increasing cycles.
func (pt *PacketTrace) Validate() error {
	if pt.Terminals < 2 {
		return fmt.Errorf("traffic: trace needs at least 2 terminals, got %d", pt.Terminals)
	}
	last := make(map[int]int64, min(pt.Terminals, len(pt.Arrivals)))
	for i, a := range pt.Arrivals {
		if a.Src < 0 || a.Src >= pt.Terminals || a.Dst < 0 || a.Dst >= pt.Terminals {
			return fmt.Errorf("traffic: trace arrival %d: endpoints %d->%d outside [0, %d)", i, a.Src, a.Dst, pt.Terminals)
		}
		if a.Src == a.Dst {
			return fmt.Errorf("traffic: trace arrival %d: self-traffic at terminal %d", i, a.Src)
		}
		if a.Cycle < 0 {
			return fmt.Errorf("traffic: trace arrival %d: negative cycle %d", i, a.Cycle)
		}
		if !a.Type.IsRequest() {
			return fmt.Errorf("traffic: trace arrival %d: %v is not a request type", i, a.Type)
		}
		if i > 0 {
			prev := pt.Arrivals[i-1]
			if a.Cycle < prev.Cycle || (a.Cycle == prev.Cycle && a.Src <= prev.Src) {
				return fmt.Errorf("traffic: trace arrival %d out of (cycle, src) order", i)
			}
		}
		if c, ok := last[a.Src]; ok && a.Cycle <= c {
			return fmt.Errorf("traffic: trace arrival %d: terminal %d injects twice in cycle %d", i, a.Src, a.Cycle)
		}
		last[a.Src] = a.Cycle
	}
	return nil
}

// Sort puts the arrivals into the canonical (cycle, src) order.
func (pt *PacketTrace) Sort() {
	sort.SliceStable(pt.Arrivals, func(i, j int) bool {
		a, b := pt.Arrivals[i], pt.Arrivals[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		return a.Src < b.Src
	})
}

// BySource splits the trace into per-terminal arrival slices (views into
// copies, safe to hold beyond the trace), indexed by source over n
// terminals.
func (pt *PacketTrace) BySource(n int) [][]Arrival {
	out := make([][]Arrival, n)
	for _, a := range pt.Arrivals {
		out[a.Src] = append(out[a.Src], a)
	}
	return out
}

// Replay drives one terminal from its slice of a recorded PacketTrace. It is
// the one process that carries the spatial half of the workload too: after
// an arrival fires, PacketAt returns its recorded packet type and
// destination, and the Generator uses them instead of drawing from
// ReadFraction and the Pattern. It consumes no randomness at all: a tick
// advances an internal cycle counter and fires exactly at the recorded
// arrival cycles. Once the slice is exhausted Rate() reports 0 and the
// terminal goes quiet.
type Replay struct {
	arrivals []Arrival
	cycle    int64 // next tick advances this simulated cycle
	idx      int   // next arrival not yet fired
	meanRate float64
}

// NewReplay builds a replay process over one source's arrivals (cycles
// strictly increasing, as PacketTrace.Validate enforces per source).
func NewReplay(arrivals []Arrival) *Replay {
	r := &Replay{arrivals: arrivals}
	if n := len(arrivals); n > 0 {
		span := arrivals[n-1].Cycle + 1
		r.meanRate = FlitsPerTransaction * float64(n) / float64(span)
	}
	return r
}

// Rate reports the trace segment's mean flit rate while arrivals remain and
// 0 once the replay is exhausted, which is what lets the scheduler treat a
// finished trace terminal as quiet.
func (r *Replay) Rate() float64 {
	if r.idx >= len(r.arrivals) {
		return 0
	}
	return r.meanRate
}

// NextArrivalDelta jumps the internal clock straight to the next recorded
// arrival (or by max cycles), consuming no randomness: a tick advances one
// cycle and fires iff that cycle is the next recorded arrival, and the
// accounting — k+1 ticks on arrival at offset k, max ticks on -1 — matches
// the per-cycle contract exactly.
func (r *Replay) NextArrivalDelta(_ *xrand.Source, max int) int {
	if r.Rate() <= 0 {
		return -1
	}
	d := r.arrivals[r.idx].Cycle - r.cycle
	if d >= int64(max) {
		r.cycle += int64(max)
		return -1
	}
	r.cycle += d + 1
	r.idx++
	return int(d)
}

// PacketAt returns the type and destination of the most recently fired
// arrival.
func (r *Replay) PacketAt() (PacketType, int) {
	a := r.arrivals[r.idx-1]
	return a.Type, a.Dst
}
