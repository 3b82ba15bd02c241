package sim

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// TestWakeIndexVisitCounts pins what the index is for: at a drain-dominated
// rate a stepped cycle visits the handful of terminals and routers
// something is happening at, not all of them. The test drives the run loop
// itself and, before each stepped cycle, counts from the predicates alone
// who needs a visit — the terminals that are not dormant, and the routers
// that are not quiescent or have a flit landing this cycle; the index must
// have visited exactly those, which at rate 0.001 is far under one
// terminal in twenty.
func TestWakeIndexVisitCounts(t *testing.T) {
	const cycles = 10000
	for _, leg := range []struct {
		name string
		prep func(*Network)
	}{{"shards=1", oneShard}, {"split", splitLent}} {
		t.Run(leg.name, func(t *testing.T) {
			cfg := meshConfig(1, 0.001)
			cfg.Seed = 42
			n := New(cfg)
			leg.prep(n)
			defer n.Close()
			var stepped, wantTerms, wantRouters int64
			needsStep := make([]bool, len(n.routers))
			for n.now < cycles {
				if n.tryLeap(cycles) {
					continue
				}
				for _, term := range n.terminals {
					if !term.dormant(n) {
						wantTerms++
					}
				}
				for r, rt := range n.routers {
					needsStep[r] = !rt.Quiescent()
				}
				for _, s := range n.shards {
					for _, e := range s.wheel[n.nowSlot] {
						if e.kind == evFlitToRouter {
							needsStep[e.router] = true
						}
					}
					// Cross-shard flits due now are still in the outboxes.
					for _, oe := range s.outPrev {
						if oe.e.kind == evFlitToRouter && int64(oe.slot) == n.nowSlot {
							needsStep[oe.e.router] = true
						}
					}
				}
				for _, need := range needsStep {
					if need {
						wantRouters++
					}
				}
				n.stepCycle()
				stepped++
			}
			var terms, routers int64
			for _, s := range n.shards {
				terms += s.termVisits
				routers += s.routerVisits
			}
			if _, leapt := n.LeapStats(); stepped+leapt != cycles || leapt == 0 {
				t.Fatalf("stepped %d + leapt %d cycles, want %d with some leapt", stepped, leapt, cycles)
			}
			if sent, _ := n.Conservation(); sent == 0 {
				t.Fatal("nothing was injected; the test is vacuous")
			}
			if terms != wantTerms {
				t.Errorf("visited %d terminals, the predicates asked for %d", terms, wantTerms)
			}
			if routers != wantRouters {
				t.Errorf("stepped %d routers, the predicates asked for %d", routers, wantRouters)
			}
			if all := int64(len(n.terminals)) * stepped; terms*20 >= all {
				t.Errorf("visited %d terminals in %d stepped cycles: %.1f %% of all %d, want under 5 %%",
					terms, stepped, 100*float64(terms)/float64(all), all)
			}
			t.Logf("%d stepped cycles: %d terminal visits (%.2f %% of all), %d router steps (%.2f %%)",
				stepped, terms, 100*float64(terms)/float64(int64(len(n.terminals))*stepped),
				routers, 100*float64(routers)/float64(int64(len(n.routers))*stepped))
		})
	}
}

// earlyWakes wraps a routing function and counts the injections made while
// the injecting terminal holds a presample: a reply woke it before its
// presampled arrival. It finds the terminal by its routing stream, passes
// the injection on to the wrapped function if that is an Injector, and draws
// nothing itself.
type earlyWakes struct {
	routing.Function
	n *int64
}

func (e earlyWakes) Inject(src int, pr *routing.PacketRoute, q routing.QueueEstimator, rng *xrand.Source) {
	for _, t := range q.(*Network).terminals {
		if t.routeRNG == rng && t.gen.PresampledArrival() >= 0 {
			*e.n++
		}
	}
	if inj, ok := e.Function.(routing.Injector); ok {
		inj.Inject(src, pr, q, rng)
	}
}

// TestArrivalDraws pins what a run's arrival gate draws cost. The reference
// ticks every terminal every cycle. The default schedule presamples at most a
// chunk ahead of the clock, and nothing but the arrival process reads a
// terminal's arrival stream, so a reply that wakes a terminal early costs no
// draw: on both topologies, UGAL's routing draws on the flattened butterfly
// included, the default draws at most the reference's terminals × cycles
// plus one chunk per terminal. Both runs must equal the reference.
func TestArrivalDraws(t *testing.T) {
	run := func(cfg Config) (Result, traffic.DrawStats, int64) {
		var early int64
		cfg.Routing = earlyWakes{cfg.Routing, &early}
		n := New(cfg)
		res := n.Run()
		return res, n.ArrivalDraws(), early
	}
	for _, cfg := range []Config{meshConfig(1, 0.01), fbflyConfig(1, 0.01)} {
		name := cfg.Topology.Name
		cfg.Seed = 42
		cfg.Warmup, cfg.Measure, cfg.Drain = 500, 2000, 5000
		res, draws, early := run(cfg)
		cfg.Reference = true
		refRes, refDraws, _ := run(cfg)
		if res != refRes {
			t.Fatalf("%s: default diverged from the reference:\nreference: %+v\ndefault:   %+v", name, refRes, res)
		}
		terms := int64(cfg.Topology.Terminals())
		if want := (traffic.DrawStats{Ticked: terms * res.Cycles}); refDraws != want {
			t.Errorf("%s: reference drew %+v, want %+v", name, refDraws, want)
		}
		if early == 0 || draws.Presampled == 0 {
			t.Fatalf("%s: %d early-wake injections, %d presampled draws; the test is vacuous", name, early, draws.Presampled)
		}
		t.Logf("%s: %d cycles × %d terminals; default drew %+v (%.2f× the reference), %d early-wake injections",
			name, res.Cycles, terms, draws, float64(draws.Total())/float64(refDraws.Total()), early)
		if bound := refDraws.Total() + terms*presampleChunk; draws.Total() > bound {
			t.Errorf("%s: drew %d gates, want at most %d (reference %d + %d terminals × %d)",
				name, draws.Total(), bound, refDraws.Total(), terms, presampleChunk)
		}
	}
}

// TestSleepQueue checks the indexed heap against a linear scan under random
// pushes, early removals and due-pops.
func TestSleepQueue(t *testing.T) {
	const n = 37
	q := newSleepQueue(n)
	at := make([]int64, n) // 0 = not queued
	rng := xrand.New(42)
	earliest := func() int64 {
		min := int64(never)
		for _, a := range at {
			if a != 0 && a < min {
				min = a
			}
		}
		return min
	}
	for step := 0; step < 20000; step++ {
		i := rng.Intn(n)
		switch {
		case at[i] == 0:
			at[i] = 1 + int64(rng.Intn(50))
			q.push(i, at[i])
		case rng.Bool(0.5):
			at[i] = 0
			q.remove(i)
		default:
			top := int(q.heap[0])
			at[top] = 0
			q.remove(top)
		}
		for j := range at { // removing one that is not queued is a no-op
			if at[j] == 0 {
				q.remove(j)
				break
			}
		}
		if got, want := q.earliest(), earliest(); got != want {
			t.Fatalf("step %d: earliest = %d, scan says %d", step, got, want)
		}
		for j := range at {
			if queued := q.pos[j] >= 0; queued != (at[j] != 0) || queued && (q.heap[q.pos[j]] != int32(j) || q.at[j] != at[j]) {
				t.Fatalf("step %d: terminal %d queued=%v at %d, want at %d", step, j, queued, q.at[j], at[j])
			}
		}
	}
}

// TestRandomRateChangesMatchReference is a randomized property of the wake
// index and the leap gate under a load that changes over time: random rate
// sequences, zero and back included, with random phase lengths, for
// Bernoulli and MMP arrivals on both topologies. The arrivals are
// synthesized from those processes phase by phase and replayed as a trace,
// so the load changes at the phase boundaries without a mid-run knob. The
// default schedule runs under Validate, so validateWakeIndex holds the
// index to the dormant/quiescent predicates every stepped cycle and the
// leap gate checks every span it skips, and it may leap within a phase.
// After every phase its SentFlits and Conservation must equal the reference
// schedule's, and so must the Result of the run both finish.
func TestRandomRateChangesMatchReference(t *testing.T) {
	rates := []float64{0, 0.001, 0.01, 0.05, 0.2}
	mmp := func(rate float64) traffic.ArrivalProcess {
		m, err := traffic.NewMMP(rate, 16, 0.25)
		if err != nil {
			panic(err)
		}
		return m
	}
	for seed, tc := range []struct {
		name string
		mk   func(int, float64) Config
		proc func(float64) traffic.ArrivalProcess
	}{
		{"mesh/bernoulli", meshConfig, bernoulliAt},
		{"mesh/mmp", meshConfig, mmp},
		{"fbfly/bernoulli", fbflyConfig, bernoulliAt},
		{"fbfly/mmp", fbflyConfig, mmp},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := workloadConfig(tc.mk, 0, traffic.Workload{})
			cfg.Warmup, cfg.Measure, cfg.Drain = 2500, 500, 3000
			cfg.Validate = true
			warmup := int64(cfg.Warmup)
			rng := xrand.New(uint64(seed) + 1)
			var segs []segment
			var ends []int64
			rate := 0.05
			for phase, at := 0, int64(0); at < warmup; phase++ {
				end := min(at+1+int64(rng.Intn(400)), warmup)
				segs = append(segs, segment{end - at, rate})
				ends = append(ends, end)
				rate = rates[rng.Intn(len(rates))]
				switch phase {
				case 0:
					rate = 0 // every run stops injecting once, long enough to drain and leap,
				case 1, 2:
					rate = 0.2 // and comes back
				}
				at = end
			}
			segs = append(segs, segment{int64(cfg.Measure), 0.1}) // the measurement window sees traffic
			cfg.Workload = traffic.Workload{Trace: synthTrace(cfg.Topology.Terminals(), cfg.Seed, tc.proc, segs...)}
			ref := cfg
			ref.Reference = true
			a, b := New(cfg), New(ref)
			for phase, end := range ends {
				for a.now < end {
					if !a.tryLeap(end) {
						a.stepCycle()
					}
				}
				for b.now < end {
					b.stepCycle()
				}
				if as, bs := a.SentFlits(), b.SentFlits(); as != bs {
					t.Fatalf("phase %d (to cycle %d): sent %d flits, reference %d", phase, end, as, bs)
				}
				ac, ad := a.Conservation()
				bc, bd := b.Conservation()
				if ac != bc || ad != bd {
					t.Fatalf("phase %d (to cycle %d): created %d delivered %d, reference created %d delivered %d",
						phase, end, ac, ad, bc, bd)
				}
			}
			if _, leapt := a.LeapStats(); leapt == 0 {
				t.Fatal("the default schedule never leapt; the test is vacuous")
			}
			ra, rb := a.Run(), b.Run()
			if ra != rb {
				t.Fatalf("final result diverged from the reference:\nreference: %+v\ndefault:   %+v", rb, ra)
			}
			if ra.MeasuredPackets == 0 {
				t.Fatal("nothing measured; the final comparison is vacuous")
			}
		})
	}
}
