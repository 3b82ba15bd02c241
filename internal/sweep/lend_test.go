package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"
)

// kneeForever is a knee unit that runs until it is cancelled.
var kneeForever = UnitConfig{Topo: "mesh", Rate: 0.3, Seed: 42, Warmup: 500, Measure: 50_000_000, Drain: 1000}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func lentNow(p *Pool) int64 { now, _, _ := p.LendStats(); return now }

// startUnit evaluates u on srv in the background and returns its cancel
// function and the channel its error arrives on.
func startUnit(srv *Server, u UnitConfig) (context.CancelFunc, <-chan error) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := srv.EvalUnit(ctx, u)
		done <- err
	}()
	return cancel, done
}

// TestPoolRunRacingClose is the hazard the old pool documented instead of
// preventing: Run calls racing Close panicked on the closed task channel. Now
// every one of them runs its task or returns ErrPoolClosed.
func TestPoolRunRacingClose(t *testing.T) {
	for round := 0; round < 50; round++ {
		p := NewPool(2)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					ran := false
					err := p.Run(context.Background(), func(context.Context) { ran = true })
					if errors.Is(err, ErrPoolClosed) {
						if ran {
							t.Error("Run reported ErrPoolClosed for a task that ran")
						}
						return
					}
					if err != nil || !ran {
						t.Errorf("Run: err %v, ran %v", err, ran)
						return
					}
				}
			}()
		}
		time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		p.Close()
		wg.Wait()
	}
}

// TestPoolLentWorkerIsNoTask pins the accounting and the shutdown half of the
// lending contract: only a worker that is idle at that instant is lent, a
// lent worker is in none of running/done/skipped, and Close calls it back
// instead of hanging on it.
func TestPoolLentWorkerIsNoTask(t *testing.T) {
	p := NewPool(2)
	var returned sync.WaitGroup
	untilWanted := func() {
		defer returned.Done()
		for !p.Wanted() {
			time.Sleep(100 * time.Microsecond)
		}
	}
	// Both workers have to be parked on the task channel before they count
	// as idle; they get there right after NewPool.
	returned.Add(2)
	waitFor(t, "the first loan", func() bool { return p.Lend(untilWanted) })
	waitFor(t, "the second loan", func() bool { return p.Lend(untilWanted) })
	if p.Lend(func() { t.Error("lent a worker that was not idle") }) {
		t.Fatal("Lend succeeded with every worker out on loan")
	}
	done, skipped := p.Stats()
	if now, lent, _ := p.LendStats(); now != 2 || lent != 2 || p.Running() != 0 || done != 0 || skipped != 0 {
		t.Fatalf("two loans: now %d lent %d, running %d done %d skipped %d", now, lent, p.Running(), done, skipped)
	}
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hangs on lent workers")
	}
	returned.Wait()
	done, skipped = p.Stats()
	if now := lentNow(p); now != 0 || done != 0 || skipped != 0 {
		t.Fatalf("after Close: %d on loan, done %d skipped %d", now, done, skipped)
	}
}

// TestServerRecallsLentWorker runs a knee unit on a two-worker server, whose
// units follow the idle workers: the unit borrows the second worker; a
// task that then arrives gets that worker within the bound Pool documents;
// the unit borrows it again once the task is done; and cancelling the unit
// returns it.
//
// Between the wait for the loan and the task, the unit may give its helper
// back on its own (the lateness rule); that task finds an idle worker and
// recalls nothing, so only a task during which the recall counter advanced
// counts towards the five, out of at most maxTasks.
func TestServerRecallsLentWorker(t *testing.T) {
	const maxTasks = 50
	srv, _ := newTestServer(t, Options{Workers: 2})
	p := srv.pool
	cancel, done := startUnit(srv, kneeForever)
	defer cancel()
	best := time.Hour
	tasks := 0
	for recalls := 0; recalls < 5; {
		if tasks == maxTasks {
			t.Fatalf("%d recalls in %d tasks: the unit gave its helper back before nearly every task", recalls, tasks)
		}
		waitFor(t, "the unit to borrow the idle worker", func() bool { return lentNow(p) == 1 })
		if p.Running() != 1 {
			t.Fatalf("a lent worker counts as running: pool_running %d", p.Running())
		}
		_, _, before := p.LendStats()
		start := time.Now()
		var took time.Duration
		if err := p.Run(context.Background(), func(context.Context) { took = time.Since(start) }); err != nil {
			t.Fatal(err)
		}
		tasks++
		if _, _, after := p.LendStats(); after == before {
			continue
		}
		recalls++
		if took < best {
			best = took
		}
	}
	t.Logf("best of five recalls: %v (%d tasks)", best, tasks)
	if bound := raceSlowdown * time.Millisecond; best > bound {
		t.Fatalf("a queued task waited %v for the lent worker at best, want under %v", best, bound)
	}
	if _, lent, recalled := p.LendStats(); lent < 5 || recalled < 5 {
		t.Fatalf("five recalls: %d loans, %d recalls counted", lent, recalled)
	}
	waitFor(t, "the unit to borrow again", func() bool { return lentNow(p) == 1 })
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled unit returned a result")
	}
	waitFor(t, "the cancelled unit's helper to come back", func() bool { return lentNow(p) == 0 })
	// The unit and the tasks, no loan (the unit's worker may still be
	// unwinding when its caller has its error).
	waitFor(t, "pool_done to count the unit and the tasks", func() bool { d, _ := p.Stats(); return d >= int64(1+tasks) })
	if d, _ := p.Stats(); d != int64(1+tasks) {
		t.Fatalf("pool_done %d, want %d: a loan is no task", d, 1+tasks)
	}
}

// TestServerUnitsShareIdleWorkers checks that "idle" is exact: two knee units
// running at once hold as many helpers as the pool has workers left over —
// none of two, one of three — and never more.
func TestServerUnitsShareIdleWorkers(t *testing.T) {
	for _, tc := range []struct{ workers, spare int64 }{{2, 0}, {3, 1}} {
		srv, _ := newTestServer(t, Options{Workers: int(tc.workers)})
		p := srv.pool
		second := kneeForever
		second.Seed = 43 // not coalesced with the first
		cancelA, doneA := startUnit(srv, kneeForever)
		cancelB, doneB := startUnit(srv, second)
		waitFor(t, "both units to run", func() bool { return p.Running() == 2 })
		reached := false
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); time.Sleep(50 * time.Microsecond) {
			now := lentNow(p)
			if now > tc.spare {
				t.Fatalf("%d workers, 2 units: %d helpers out on loan", tc.workers, now)
			}
			reached = reached || now == tc.spare
		}
		if !reached {
			t.Fatalf("%d workers, 2 units: the spare worker was never borrowed", tc.workers)
		}
		cancelA()
		cancelB()
		<-doneA
		<-doneB
		waitFor(t, "the helpers to come back", func() bool { return lentNow(p) == 0 })
	}
}

// TestServerLightUnitsNeverBorrow is the other side of the break-even rule,
// end to end: the six low-load units of the repository benchmark's
// sim_lowload workload step every cycle inline and leave the pool alone; a
// knee unit then borrows, and /statz says so.
func TestServerLightUnitsNeverBorrow(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	statz := func() (st struct {
		HelpersLent      int64 `json:"helpers_lent"`
		HelpersRecalled  int64 `json:"helpers_recalled"`
		HelpersLate      int64 `json:"helpers_late"`
		HelpersUnstarted int64 `json:"helpers_unstarted"`
		ParallelCycles   int64 `json:"parallel_cycles"`
		PoolDone         int64 `json:"pool_done"`
	}) {
		resp, err := http.Get(ts.URL + "/statz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	light := []UnitConfig{
		{Topo: "mesh", VCsPerClass: 1, Rate: 0.001},
		{Topo: "fbfly", VCsPerClass: 1, Rate: 0.002},
		{Topo: "mesh", VCsPerClass: 1, Rate: 0.005, Process: "mmp"},
		{Topo: "fbfly", VCsPerClass: 2, Rate: 0.01},
		{Topo: "mesh", VCsPerClass: 2, Rate: 0.02, Pattern: "hotspot"},
		{Topo: "mesh", VCsPerClass: 1, Rate: 0.02},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, u := range light {
			u.Seed, u.Warmup, u.Measure, u.Drain = seed, 500, 1500, 8000
			if _, err := srv.EvalUnit(context.Background(), u); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := statz(); st.HelpersLent != 0 || st.HelpersLate != 0 || st.HelpersUnstarted != 0 || st.ParallelCycles != 0 || st.PoolDone != 18 {
		t.Fatalf("18 low-load units: %+v, want no loan and no concurrent cycle", st)
	}
	knee := UnitConfig{Topo: "mesh", VCsPerClass: 1, Rate: 0.30, Seed: 1, Warmup: 125, Measure: 300, Drain: 2500}
	if _, err := srv.EvalUnit(context.Background(), knee); err != nil {
		t.Fatal(err)
	}
	// (Most of its ~500 cycles on a host with two free cores; a few dozen
	// before it gives the helper back on one that withholds the second.)
	if st := statz(); st.HelpersLent != 1 || st.HelpersLate > 1 || st.HelpersUnstarted > 1 || st.ParallelCycles == 0 || st.HelpersRecalled != 0 || st.PoolDone != 19 {
		t.Fatalf("after a knee unit: %+v, want one loan (given back late, or unstarted, at most once), concurrent cycles, no recall", st)
	}
}
