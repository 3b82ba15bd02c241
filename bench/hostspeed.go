package main

import (
	"math"
	"time"
)

// The host this benchmark runs on is a few cores of a shared machine whose
// speed moves by a quarter and more for seconds to minutes at a time: over
// sets of ten runs of the same code the medians of wall-clock times spread
// (interquartile distance over median) by 13-58 % on every workload here and
// by 20-33 % on the driver. No run length that fits the time limit averages that out. So
// the benchmark measures the host's speed while it measures the program, and
// reports every time in milliseconds of a reference-speed host: between
// operations the load generator times a fixed piece of work of its own (the
// kernel below, about a millisecond), and an operation's time is divided by
// the host's slowness around it, which is how much longer than
// referenceKernelMS the kernel took, raised to hostExponent. On the same sets
// of runs the scaled medians spread by 3-10 %. Wall-clock values are printed
// beside the scaled ones.

// referenceKernelMS is what one kernel pass takes on the reference host in
// its fast state. It only fixes the unit: on a calm host scaled and wall-clock
// times agree.
const referenceKernelMS = 1.0

// hostExponent is the exponent of every workload but service_mixed (see
// serviceExponent). The programs under test lose more speed than the kernel does
// when the host slows. Over 14 sets of ten runs (all five workloads, three
// batches an hour apart) the slope of log(operation time) on log(kernel time)
// was 1.2-1.9, and 1.4 gave the narrowest spread on most of them; 1.0 left
// half of the host's swings in the numbers. Kernels built to be more
// sensitive (a 4 MiB and a 32 MiB table, four independent multiply chains, a
// simulator-like walk over an array of structs, a thread ping-pong) tracked
// the programs worse than this one, alone or combined with it.
const hostExponent = 1.4

// probeInterval is the least time between two kernel passes: at one
// millisecond a pass that keeps the probe's share of the run below 4 %.
const probeInterval = 25 * time.Millisecond

// smoothWindow is the half-width of the window a kernel time is smoothed
// over. The host's speed changes over seconds; a single pass is also hit by
// interrupts and by the caches the server just emptied.
const smoothWindow = 500 * time.Millisecond

const (
	kernelTableWords = 1 << 15 // 256 KiB: in L2, not in L1
	kernelSteps      = 200_000 // a millisecond on the reference host
)

var kernelSink uint64

// kernel is the fixed work: a xorshift generator driving dependent
// read-modify-writes over a table that fits the second-level cache and a
// data-dependent branch — integer work, cache misses and mispredictions in
// about the mix a simulator has.
func kernel(table *[kernelTableWords]uint64) {
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < kernelSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p := &table[x&(kernelTableWords-1)]
		if *p&1 == 0 {
			acc += *p >> 3
		} else {
			acc ^= *p
		}
		*p += x
	}
	kernelSink += acc
}

// hostSpeed is the client's record of kernel passes. It is not safe for
// concurrent use: the benchmark has one client.
type hostSpeed struct {
	// exponent is how much more than the kernel the workload slows with the
	// host; see hostExponent.
	exponent   float64
	table      [kernelTableWords]uint64
	start, end []time.Time
	ms         []float64
	spent      time.Duration // in kernel passes so far
	factor     []float64     // filled by close
}

// tick times one kernel pass and returns its index.
func (h *hostSpeed) tick() int {
	t0 := time.Now()
	kernel(&h.table)
	t1 := time.Now()
	h.start, h.end, h.ms = append(h.start, t0), append(h.end, t1), append(h.ms, ms(t1.Sub(t0)))
	h.spent += t1.Sub(t0)
	return len(h.ms) - 1
}

// stopwatch times one operation and remembers which kernel passes surround
// it.
type stopwatch struct {
	h     *hostSpeed
	from  int // index of the first pass after the operation began
	t0    time.Time
	spent time.Duration
}

// begin is called before every operation, and may be called inside a long
// one: it takes a kernel pass when the last one is probeInterval old. On a nil
// hostSpeed (the traced run, whose metrics are not scaled) it does nothing.
func (h *hostSpeed) begin() stopwatch {
	if h == nil {
		return stopwatch{}
	}
	if n := len(h.end); n == 0 || time.Since(h.end[n-1]) >= probeInterval {
		h.tick()
	}
	return stopwatch{h, len(h.ms), time.Now(), h.spent}
}

// elapsed is the time since begin, kernel passes taken meanwhile left out.
func (s stopwatch) elapsed() time.Duration { return time.Since(s.t0) - (s.h.spent - s.spent) }

// close takes the last pass and computes each pass's factor: the median
// kernel time within smoothWindow of it over referenceKernelMS, to the power
// exponent.
func (h *hostSpeed) close() {
	h.tick()
	h.smooth()
}

func (h *hostSpeed) smooth() {
	h.factor = make([]float64, len(h.ms))
	lo, hi := 0, 0
	for j := range h.ms {
		for h.start[j].Sub(h.start[lo]) > smoothWindow {
			lo++
		}
		for hi < len(h.ms) && h.start[hi].Sub(h.start[j]) <= smoothWindow {
			hi++
		}
		a, b := min(lo, max(j-2, 0)), max(hi, min(j+3, len(h.ms))) // at least five passes
		h.factor[j] = math.Pow(sample(h.ms[a:b]).median()/referenceKernelMS, h.exponent)
	}
}

// at is the host's slowness (1 = the reference host) around an operation
// that began before pass from and ended before pass to: the median factor of
// those passes.
func (h *hostSpeed) at(from, to int) float64 {
	last := len(h.factor) - 1
	return sample(h.factor[min(from, last) : min(to, last)+1]).median()
}

// seconds is the time between passes from and to, the passes themselves left
// out: as the clock counted it and with each stretch divided by the factor at
// its end.
func (h *hostSpeed) seconds(from, to int) (scaled, raw float64) {
	for j := from + 1; j <= to; j++ {
		d := h.start[j].Sub(h.end[j-1]).Seconds()
		raw += d
		scaled += d / h.factor[j]
	}
	return scaled, raw
}
