package sim

import (
	"bytes"
	"testing"

	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// workloadConfig builds a paper-style config at seed 42 with fast phases
// and the given workload spec.
func workloadConfig(mk func(int, float64) Config, rate float64, w traffic.Workload) Config {
	cfg := mk(2, rate)
	cfg.Seed = 42
	cfg.Warmup, cfg.Measure, cfg.Drain = 200, 500, 5000
	w.Rate = rate
	cfg.Workload = w
	return cfg
}

// TestWorkloadGoldenMMP pins the default schedule against the reference
// (assertGolden, one shard and split) for the bursty MMP arrival process on
// both paper topologies. The fbfly leg also draws UGAL's routing from each
// terminal's routing stream while MMP's phase state rides the presample.
func TestWorkloadGoldenMMP(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(int, float64) Config
	}{
		{"mesh", meshConfig},
		{"fbfly", fbflyConfig},
	} {
		w := traffic.Workload{Process: "mmp", BurstLen: 16, Duty: 0.25}
		assertGolden(t, tc.name+"/mmp", workloadConfig(tc.mk, 0.1, w), oneShard, splitLent)
	}
}

// TestWorkloadGoldenHotspot pins the matrix for the hotspot spatial
// pattern, which adds destination-draw randomness to the terminal streams.
func TestWorkloadGoldenHotspot(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(int, float64) Config
	}{
		{"mesh", meshConfig},
		{"fbfly", fbflyConfig},
	} {
		w := traffic.Workload{Pattern: "hotspot", Hotspots: []int{0, 9}, HotspotFraction: 0.2}
		assertGolden(t, tc.name+"/hotspot", workloadConfig(tc.mk, 0.1, w), oneShard, splitLent)
	}
}

// recordedTrace runs one recording pass under the reference schedule and
// returns its trace.
func recordedTrace(t *testing.T, mk func(int, float64) Config, rate float64) *traffic.PacketTrace {
	t.Helper()
	cfg := workloadConfig(mk, rate, traffic.Workload{})
	cfg.Reference = true
	cfg.RecordArrivals = true
	n := New(cfg)
	n.Run()
	pt := n.ArrivalTrace()
	if len(pt.Arrivals) == 0 {
		t.Fatal("recording pass produced an empty trace")
	}
	return pt
}

// segment is one stretch of a synthesized workload: cycles cycles of
// arrivals at rate (0 is silence).
type segment struct {
	cycles int64
	rate   float64
}

// synthTrace runs one generator per terminal over n terminals through the
// segments back to back, building each segment's arrival process fresh at
// its rate with mk, and returns the arrivals as a trace. A trace is finite,
// so a run replaying it loads the network as the segments say and then
// drains: a load that stops and comes back is data, not a mid-run knob.
func synthTrace(n int, seed uint64, mk func(rate float64) traffic.ArrivalProcess, segs ...segment) *traffic.PacketTrace {
	pattern, err := traffic.NewPattern("uniform", n)
	if err != nil {
		panic(err)
	}
	root := xrand.New(seed)
	rngs := make([]*xrand.Source, n)
	for i := range rngs {
		rngs[i] = root.Split(uint64(i) + 1)
	}
	pt := &traffic.PacketTrace{Terminals: n}
	gens := make([]*traffic.Generator, n)
	var start int64
	for _, sg := range segs {
		for i := range gens {
			gens[i] = traffic.NewGeneratorProcess(pattern, mk(sg.rate), DefaultReadFraction)
		}
		for c := start; c < start+sg.cycles; c++ {
			for src, g := range gens {
				if typ, dst, ok := g.NextRequest(src, rngs[src]); ok {
					pt.Arrivals = append(pt.Arrivals, traffic.Arrival{Cycle: c, Src: src, Dst: dst, Type: typ})
				}
			}
		}
		start += sg.cycles
	}
	return pt
}

func bernoulliAt(rate float64) traffic.ArrivalProcess { return traffic.NewBernoulli(rate) }

// loadThenDrain replaces cfg's workload with a replay of its own Bernoulli
// arrivals over the first load cycles and silence after them.
func loadThenDrain(cfg Config, load int64) Config {
	rate := cfg.Workload.Rate
	cfg.Workload = traffic.Workload{Trace: synthTrace(cfg.Topology.Terminals(), cfg.Seed, bernoulliAt, segment{load, rate})}
	return cfg
}

// stepUntilDrained steps n past cycle load until every flit handed to a
// router has reached a terminal, for at most 10000 cycles more.
func stepUntilDrained(n *Network, load int64) {
	for n.now < load+10000 {
		n.stepCycle()
		if sent, delivered := n.SentFlits(), n.deliveredFlits(); sent == delivered && n.now > load+100 {
			return
		}
	}
}

// TestWorkloadGoldenReplay pins the matrix for trace replay on both
// topologies: a trace recorded on each network replays through the reference
// and the default schedule bit-identically. Replay consumes no
// terminal randomness at all, so this exercises the quiet-terminal and
// exhausted-replay paths of the scheduler.
func TestWorkloadGoldenReplay(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(int, float64) Config
	}{
		{"mesh", meshConfig},
		{"fbfly", fbflyConfig},
	} {
		pt := recordedTrace(t, tc.mk, 0.1)
		assertGolden(t, tc.name+"/replay", workloadConfig(tc.mk, 0, traffic.Workload{Trace: pt}), oneShard, splitLent)
	}
}

// TestRecordReplayRoundTrip is the end-to-end workload round trip on both
// topologies: record → replay must reproduce the recording run's Result
// exactly, and re-recording during the replay must serialize byte-identical
// to the original trace. On the flattened butterfly this holds because UGAL
// draws from each terminal's routing stream, which a replay draws from
// exactly as the recording did, while the arrival stream it leaves untouched.
func TestRecordReplayRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(int, float64) Config
	}{
		{"mesh", meshConfig},
		{"fbfly", fbflyConfig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := workloadConfig(tc.mk, 0.1, traffic.Workload{})
			rec.RecordArrivals = true
			n := New(rec)
			want := n.Run()
			pt := n.ArrivalTrace()

			var orig bytes.Buffer
			if err := trace.WriteArrivals(&orig, pt); err != nil {
				t.Fatal(err)
			}

			rep := workloadConfig(tc.mk, 0, traffic.Workload{Trace: pt})
			rep.RecordArrivals = true
			rn := New(rep)
			got := rn.Run()
			if got != want {
				t.Errorf("replay diverged from the recording run:\nrecord: %+v\nreplay: %+v", want, got)
			}
			var again bytes.Buffer
			if err := trace.WriteArrivals(&again, rn.ArrivalTrace()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(orig.Bytes(), again.Bytes()) {
				t.Error("re-recorded trace is not byte-identical to the original")
			}
		})
	}
}

// TestLeapEngagesDuringBurstOFF guards the bursty golden against passing
// vacuously: at a drain-dominated rate with long OFF silences (duty 0.05,
// mean OFF stretch ~1200 cycles) the leap gate must fire and actually skip
// cycles while every terminal sits in its OFF phase.
func TestLeapEngagesDuringBurstOFF(t *testing.T) {
	cfg := workloadConfig(meshConfig, 0.002, traffic.Workload{Process: "mmp", BurstLen: 64, Duty: 0.05})
	cfg.Validate = true
	n := New(cfg)
	res := n.Run()
	events, cycles := n.LeapStats()
	if events == 0 {
		t.Fatal("leap gate never fired under bursty OFF periods")
	}
	if cycles == 0 {
		t.Fatal("leap gate fired but skipped zero cycles")
	}
	if res.MeasuredPackets == 0 {
		t.Error("no measured packets; the run exercised nothing")
	}
}
