package traffic

import (
	"reflect"
	"testing"

	"repro/internal/xrand"
)

// tick advances p by one cycle and reports an arrival: a batch of one.
func tick(p ArrivalProcess, rng *xrand.Source) bool { return p.NextArrivalDelta(rng, 1) == 0 }

// collectTicked runs proc one tick per cycle for n cycles and returns the
// arrival cycles.
func collectTicked(p ArrivalProcess, rng *xrand.Source, n int) []int64 {
	var out []int64
	for c := int64(0); c < int64(n); c++ {
		if tick(p, rng) {
			out = append(out, c)
		}
	}
	return out
}

// collectBatched runs proc through NextArrivalDelta in bounded chunks —
// the event-leaping presampler's consumption pattern — and returns the
// arrival cycles.
func collectBatched(p ArrivalProcess, rng *xrand.Source, n, chunk int) []int64 {
	var out []int64
	for c := int64(0); c < int64(n); {
		max := chunk
		if rem := int64(n) - c; rem < int64(chunk) {
			max = int(rem)
		}
		if d := p.NextArrivalDelta(rng, max); d < 0 {
			c += int64(max)
		} else {
			c += int64(d)
			out = append(out, c)
			c++
		}
	}
	return out
}

// TestMMPBatchMatchesTicked pins the batched-sampling clause of the
// ArrivalProcess contract for MMP: NextArrivalDelta in presampler-style
// chunks must reproduce per-cycle ticking exactly — same arrival cycles and
// the same RNG stream position afterwards.
func TestMMPBatchMatchesTicked(t *testing.T) {
	const cycles = 20000
	for _, chunk := range []int{1, 7, 1024} {
		a, err := NewMMP(0.3, 16, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewMMP(0.3, 16, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		rngA, rngB := xrand.New(42), xrand.New(42)
		ticked := collectTicked(a, rngA, cycles)
		batched := collectBatched(b, rngB, cycles, chunk)
		if !reflect.DeepEqual(ticked, batched) {
			t.Fatalf("chunk %d: batched arrivals diverged from ticked (%d vs %d arrivals)",
				chunk, len(batched), len(ticked))
		}
		if *rngA != *rngB {
			t.Fatalf("chunk %d: RNG stream positions diverged after identical tick counts", chunk)
		}
		if len(ticked) == 0 {
			t.Fatal("no arrivals at rate 0.3 over 20000 cycles; test is vacuous")
		}
	}
}

// TestMMPDutyOneIsBernoulli pins the degenerate parameterization: at duty 1
// both transition gates have probability 0, xrand.Bool(0) consumes no draw,
// so the MMP's arrival stream is bit-identical to Bernoulli at the same
// rate — same cycles, same RNG consumption.
func TestMMPDutyOneIsBernoulli(t *testing.T) {
	m, err := NewMMP(0.4, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	bern := NewBernoulli(0.4)
	rngM, rngB := xrand.New(7), xrand.New(7)
	am := collectTicked(m, rngM, 5000)
	ab := collectTicked(bern, rngB, 5000)
	if !reflect.DeepEqual(am, ab) {
		t.Fatalf("duty-1 MMP diverged from Bernoulli: %d vs %d arrivals", len(am), len(ab))
	}
	if *rngM != *rngB {
		t.Fatal("duty-1 MMP consumed a different draw stream than Bernoulli")
	}
}

// TestMMPQuietAtZeroRate pins the zero-rate clause: no randomness consumed,
// no arrivals, phase frozen — the active-set scheduler skips the terminal
// while the dense schedule keeps ticking it, and both must agree.
func TestMMPQuietAtZeroRate(t *testing.T) {
	m, err := NewMMP(0, 8, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(42)
	before, phase := *rng, m.on
	for i := 0; i < 100; i++ {
		if tick(m, rng) {
			t.Fatal("zero-rate MMP produced an arrival")
		}
	}
	if m.NextArrivalDelta(rng, 1000) != -1 {
		t.Fatal("zero-rate NextArrivalDelta found an arrival")
	}
	if *rng != before {
		t.Fatal("zero-rate ticks consumed randomness")
	}
	if m.on != phase {
		t.Fatal("zero-rate ticks moved the phase")
	}
}

// TestMMPStatistics checks the parameterization's long-run moments at seed
// 42: mean offered load near the configured rate and ON fraction near the
// duty cycle. Tolerances are loose; the test guards gross mis-derivations
// of the transition rates, not sampling noise.
func TestMMPStatistics(t *testing.T) {
	const cycles = 400000
	m, err := NewMMP(0.6, 32, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(42)
	arrivals, onCycles := 0, 0
	for c := 0; c < cycles; c++ {
		if tick(m, rng) {
			arrivals++
		}
		if m.on {
			onCycles++
		}
	}
	flitRate := FlitsPerTransaction * float64(arrivals) / cycles
	if flitRate < 0.55 || flitRate > 0.65 {
		t.Errorf("long-run flit rate %.4f, want ~0.6", flitRate)
	}
	onFrac := float64(onCycles) / cycles
	if onFrac < 0.20 || onFrac > 0.30 {
		t.Errorf("long-run ON fraction %.4f, want ~0.25", onFrac)
	}
}

// TestMMPValidation pins the constructor's rejection surface.
func TestMMPValidation(t *testing.T) {
	cases := []struct {
		name                 string
		rate, burstLen, duty float64
	}{
		{"burst below one cycle", 0.3, 0.5, 0.25},
		{"duty zero", 0.3, 32, 0},
		{"duty above one", 0.3, 32, 1.5},
		{"negative rate", -0.1, 32, 0.25},
		{"rate beyond duty capacity", 0.9, 32, 0.1},
	}
	for _, tc := range cases {
		if _, err := NewMMP(tc.rate, tc.burstLen, tc.duty); err == nil {
			t.Errorf("%s: NewMMP(%g, %g, %g) accepted", tc.name, tc.rate, tc.burstLen, tc.duty)
		}
	}
	if _, err := NewMMP(0.6, 32, 0.25); err != nil {
		t.Errorf("valid parameters rejected: %v", err)
	}
}

// testTrace is a small two-terminal-overlapping trace used by the replay
// tests.
func testTrace() []Arrival {
	return []Arrival{
		{Cycle: 2, Src: 1, Dst: 3, Type: ReadRequest},
		{Cycle: 5, Src: 1, Dst: 0, Type: WriteRequest},
		{Cycle: 6, Src: 1, Dst: 2, Type: ReadRequest},
		{Cycle: 40, Src: 1, Dst: 3, Type: WriteRequest},
	}
}

// TestReplayFiresAtRecordedCycles pins the replay semantics: arrivals at
// exactly the recorded cycles, PacketAt surfacing the recorded type and
// destination, zero randomness consumed, and Rate dropping to 0 once the
// slice is exhausted.
func TestReplayFiresAtRecordedCycles(t *testing.T) {
	r := NewReplay(testTrace())
	if r.Rate() <= 0 {
		t.Fatal("fresh replay reports no rate")
	}
	rng := xrand.New(42)
	before := *rng
	var got []Arrival
	for c := int64(0); c < 50; c++ {
		if tick(r, rng) {
			typ, dst := r.PacketAt()
			got = append(got, Arrival{Cycle: c, Src: 1, Dst: dst, Type: typ})
		}
	}
	if !reflect.DeepEqual(got, testTrace()) {
		t.Fatalf("replayed %+v, want the recorded arrivals", got)
	}
	if *rng != before {
		t.Fatal("replay consumed randomness")
	}
	if r.Rate() != 0 {
		t.Fatalf("exhausted replay rate = %g, want 0", r.Rate())
	}
	if tick(r, rng) {
		t.Fatal("exhausted replay produced an arrival")
	}
}

// TestReplayBatchMatchesTicked pins the batched-sampling accounting for
// Replay: NextArrivalDelta's clock jumps must land on the same arrival
// cycles as per-cycle ticking for every chunk size.
func TestReplayBatchMatchesTicked(t *testing.T) {
	for _, chunk := range []int{1, 3, 1024} {
		a, b := NewReplay(testTrace()), NewReplay(testTrace())
		rng := xrand.New(1)
		ticked := collectTicked(a, rng, 64)
		batched := collectBatched(b, rng, 64, chunk)
		if !reflect.DeepEqual(ticked, batched) {
			t.Fatalf("chunk %d: batched replay %v, ticked %v", chunk, batched, ticked)
		}
	}
}

// TestHotspotDistribution checks the hot-vs-background split empirically:
// the hot set receives its configured share (within sampling noise), the
// rest spreads over the other terminals, and no packet is self-addressed.
func TestHotspotDistribution(t *testing.T) {
	const n, trials = 16, 200000
	p, err := NewHotspot(n, []int{3, 7}, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(42)
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		src := i % n
		d := p.Dest(src, rng)
		if d == src {
			t.Fatalf("self-traffic from terminal %d", src)
		}
		counts[d]++
	}
	hotShare := float64(counts[3]+counts[7]) / trials
	// Hot terminals also receive a sliver of background traffic, so the
	// expected share sits slightly above frac.
	if hotShare < 0.40 || hotShare > 0.52 {
		t.Errorf("hot set received %.3f of traffic, want ~0.4 plus background", hotShare)
	}
	for d, c := range counts {
		if d == 3 || d == 7 {
			continue
		}
		share := float64(c) / trials
		want := 0.6 / float64(n-1) // background spread, roughly
		if share < want/2 || share > want*2 {
			t.Errorf("background terminal %d received %.4f of traffic, want ~%.4f", d, share, want)
		}
	}
}

// TestHotspotValidation pins the constructor's rejection surface.
func TestHotspotValidation(t *testing.T) {
	if _, err := NewHotspot(8, []int{8}, 0.2); err == nil {
		t.Error("out-of-range hotspot accepted")
	}
	if _, err := NewHotspot(8, []int{3, 3}, 0.2); err == nil {
		t.Error("duplicate hotspot accepted")
	}
	if _, err := NewHotspot(8, []int{0}, 1.5); err == nil {
		t.Error("fraction above 1 accepted")
	}
	if _, err := NewHotspot(1, nil, 0); err == nil {
		t.Error("single-terminal network accepted")
	}
	if _, err := NewHotspot(8, nil, 0); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
}

// TestWorkloadNormalized pins the canonicalization rules: defaults fill,
// irrelevant parameters clear, and equivalent spellings collapse.
func TestWorkloadNormalized(t *testing.T) {
	if w := (Workload{}).Normalized(); w.Process != "bernoulli" || w.Pattern != "uniform" {
		t.Errorf("zero workload normalized to %+v", w)
	}
	w := Workload{Process: "mmp", Rate: 0.3}.Normalized()
	if w.BurstLen != 32 || w.Duty != 0.25 {
		t.Errorf("mmp defaults: %+v", w)
	}
	w = Workload{Pattern: "hotspot", Rate: 0.3}.Normalized()
	if len(w.Hotspots) != 1 || w.Hotspots[0] != 0 || w.HotspotFraction != DefaultHotspotFraction {
		t.Errorf("hotspot defaults: %+v", w)
	}
	// Inert parameters clear: burst/duty without mmp, hotspot params without
	// the pattern.
	w = Workload{Process: "bernoulli", Rate: 0.3, BurstLen: 64, Duty: 0.5,
		Hotspots: []int{3}, HotspotFraction: 0.4}.Normalized()
	if w.BurstLen != 0 || w.Duty != 0 || w.Hotspots != nil || w.HotspotFraction != 0 {
		t.Errorf("inert parameters survived: %+v", w)
	}
	// A trace implies the trace process and collapses the inert rate/pattern.
	pt := &PacketTrace{Terminals: 4, Arrivals: []Arrival{{Cycle: 0, Src: 0, Dst: 1, Type: ReadRequest}}}
	w = Workload{Trace: pt, Rate: 0.5, Pattern: "tornado"}.Normalized()
	if w.Process != "trace" || w.Rate != 0 || w.Pattern != "uniform" {
		t.Errorf("trace normalization: %+v", w)
	}
}

// TestWorkloadValidate pins the unified validation surface.
func TestWorkloadValidate(t *testing.T) {
	bad := []Workload{
		{Process: "poisson", Rate: 0.1},
		{Process: "trace"}, // no trace data
		{Process: "mmp", Rate: 0.9, Duty: 0.1},
		{Pattern: "hotspot", Rate: 0.1, Hotspots: []int{99}},
		{Pattern: "no_such_pattern", Rate: 0.1},
		{Rate: -0.1},
	}
	for _, w := range bad {
		if err := w.Validate(64); err == nil {
			t.Errorf("Validate accepted %+v", w)
		}
	}
	good := []Workload{
		{},
		{Process: "mmp", Rate: 0.3},
		{Pattern: "hotspot", Rate: 0.3, Hotspots: []int{1, 5}, HotspotFraction: 0.3},
	}
	for _, w := range good {
		if err := w.Validate(64); err != nil {
			t.Errorf("Validate rejected %+v: %v", w, err)
		}
	}
}

// TestWorkloadProcesses pins the per-terminal fan-out, in particular the
// trace split: each terminal replays exactly its own recorded arrivals and
// unrecorded terminals are quiet from cycle zero.
func TestWorkloadProcesses(t *testing.T) {
	procs, err := Workload{Process: "mmp", Rate: 0.3}.Processes(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 4 {
		t.Fatalf("got %d processes, want 4", len(procs))
	}
	for _, p := range procs {
		if _, ok := p.(*MMP); !ok {
			t.Fatalf("process %T, want *MMP", p)
		}
	}

	pt := &PacketTrace{Terminals: 3, Arrivals: []Arrival{
		{Cycle: 1, Src: 0, Dst: 2, Type: ReadRequest},
		{Cycle: 1, Src: 2, Dst: 0, Type: WriteRequest},
		{Cycle: 4, Src: 0, Dst: 1, Type: WriteRequest},
	}}
	procs, err = Workload{Trace: pt}.Processes(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	counts := make([]int, 4)
	for i, p := range procs {
		for c := 0; c < 10; c++ {
			if tick(p, rng) {
				counts[i]++
			}
		}
	}
	if want := []int{2, 0, 1, 0}; !reflect.DeepEqual(counts, want) {
		t.Errorf("per-terminal replay counts %v, want %v", counts, want)
	}

	// A trace recorded over more terminals than the network has is rejected.
	if _, err := (Workload{Trace: pt}).Processes(2); err == nil {
		t.Error("oversized trace accepted")
	}
}
