package sim

import (
	"fmt"
	"testing"

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
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := meshConfig(1, 0.001)
			cfg.Seed = 42
			cfg.Shards = shards
			n := New(cfg)
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
					for _, src := range n.shards {
						for _, oe := range src.outPrev[s.id] {
							if oe.e.kind == evFlitToRouter && int64(oe.slot) == n.nowSlot {
								needsStep[oe.e.router] = true
							}
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
