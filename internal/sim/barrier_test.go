package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/router"
)

// testLender lends a fresh goroutine every time it is asked and wants its
// goroutines back at every recallEvery-th asking (never, if that is 0).
type testLender struct {
	recallEvery int
	asked, lent int
}

func (l *testLender) Lend(fn func()) bool { l.lent++; go fn(); return true }

func (l *testLender) Wanted() bool {
	l.asked++
	return l.recallEvery > 0 && l.asked%l.recallEvery == 0
}

// splitLent lends n a helper in its first cycle and never takes it back, so
// n is split in two and steps its halves on two goroutines in every cycle of
// the run: the layout and the goroutine a borrowing network reaches once it
// has proved heavy. It is the second golden leg (assertGolden).
func splitLent(n *Network) {
	n.BorrowHelpers(&testLender{})
	n.modeHook = func(int64) bool { return true }
}

// splitMergeEvery lends n a helper and takes it back every k cycles, so n
// splits and merges every k cycles.
func splitMergeEvery(k int64) func(*Network) {
	return func(n *Network) {
		n.BorrowHelpers(&testLender{})
		n.modeHook = func(now int64) bool { return now/k%2 == 1 }
	}
}

// settleGoroutines waits for the goroutine count to come back to base: a
// helper that Close has waited for has closed its exit channel but may not
// have left the scheduler's books yet.
func settleGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, %d before:\n%s", what, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParallelSwitchGolden is the contract of split and merge (sim.go): a
// network that is lent a helper and has it taken back every k cycles —
// splitting and merging every cycle, every few, and after stretches of 64 —
// reproduces the reference bit for bit on both paper topologies and all
// three speculation modes. Under Validate, in CI under -race, and on one P.
func TestParallelSwitchGolden(t *testing.T) {
	for _, mk := range []func(int, float64) Config{meshConfig, fbflyConfig} {
		for _, mode := range []core.SpecMode{core.SpecNone, core.SpecGnt, core.SpecReq} {
			for _, k := range []int64{1, 3, 64} {
				base := mk(2, 0.3)
				base.Seed = 42
				base.SA.SpecMode = mode
				base.Warmup, base.Measure, base.Drain = 100, 300, 3000
				name := fmt.Sprintf("%s %v k=%d", base.Topology.Name, mode, k)
				st := assertGolden(t, name, base, splitMergeEvery(k))
				if st[0].Loans < st[0].Stepped/(4*k) {
					t.Errorf("%s: %d loans in %d stepped cycles, want a split every %d", name, st[0].Loans, st[0].Stepped, 2*k)
				}
			}
		}
	}
}

// TestParallelSplitGolden covers the network that follows a lender: built
// with one shard, it splits in two at whatever cycle it is first lent a
// helper — wheel, wake index and free lists handed over mid-run — is recalled,
// merges, borrows again, and still reproduces the reference bit for bit.
// Validate checks the handed-over wake index against the dormant/quiescent
// predicates from the first cycle after each split and merge, and every leap
// after them.
func TestParallelSplitGolden(t *testing.T) {
	// Wavefront allocators carry idle-variant priority state, replayed from
	// the lastStep bookkeeping that split hands over.
	meshWavefront := func(c int, rate float64) Config {
		cfg := meshConfig(c, rate)
		cfg.VA.Arch, cfg.SA.Arch = alloc.Wavefront, alloc.Wavefront
		return cfg
	}
	for _, mk := range []func(int, float64) Config{meshConfig, meshWavefront, fbflyConfig} {
		for _, rate := range []float64{0.05, 0.3} {
			for _, at := range []int64{1, 97, 350} {
				base := mk(2, rate)
				base.Seed = 42
				base.Warmup, base.Measure, base.Drain = 100, 300, 3000
				lender := &testLender{recallEvery: 20}
				var n *Network
				st := assertGolden(t, fmt.Sprintf("%s rate %g split at %d", base.Topology.Name, rate, at), base, func(net *Network) {
					n = net
					n.BorrowHelpers(lender)
					n.modeHook = func(now int64) bool { return now >= at && now/7%2 == 0 }
				})
				if st[0].Loans < 2 || st[0].Loans != int64(lender.lent) || n.Shards() != 1 {
					t.Errorf("%s rate %g: %d loans (%d lent), %d shards after Run; want a second loan after the recall, merged",
						base.Topology.Name, rate, st[0].Loans, lender.lent, n.Shards())
				}
			}
		}
	}
}

// TestParallelSwitchHappens keeps TestParallelSwitchGolden honest: under its
// k = 64 hook the network splits and merges every 64 cycles, so about half of
// the stepped cycles run on two goroutines, and it ends the run merged.
func TestParallelSwitchHappens(t *testing.T) {
	cfg := meshConfig(2, 0.3)
	cfg.Warmup, cfg.Measure, cfg.Drain = 100, 1000, 3000
	n := New(cfg)
	splitMergeEvery(64)(n)
	n.Run()
	st := n.ParallelStats()
	if st.Concurrent < st.Stepped/3 || st.Concurrent > 2*st.Stepped/3 {
		t.Fatalf("%d of %d cycles concurrent, want about half", st.Concurrent, st.Stepped)
	}
	if st.Loans < st.Stepped/256 || n.Shards() != 1 {
		t.Fatalf("%d loans in %d stepped cycles, %d shards after Run; want a split every 128 cycles, merged", st.Loans, st.Stepped, n.Shards())
	}
}

// TestParallelHelperParksAndWakes keeps the park/wake path tested: a
// hand-stepped network that holds its helper and pauses for longer than
// parkAfter between two cycles in a row finds the helper parked, wakes it for
// the next cycle, and scores that as a mid-stretch wake (scoreLate).
func TestParallelHelperParksAndWakes(t *testing.T) {
	n := New(meshConfig(2, 0.3))
	splitLent(n)
	defer n.Close()
	for i := 0; i < 50; i++ {
		n.stepCycle()
	}
	h := n.helper
	// The helper may park before the count could be read here, so wait on
	// its flag: with no new cycle coming, a helper that has set it goes on
	// to count the park and block, before the next cycle can be stepped.
	for deadline := time.Now().Add(10 * time.Second); !h.parked.Load(); time.Sleep(parkAfter) {
		if time.Now().After(deadline) {
			t.Fatal("a helper with no cycle to run for 10 s never parked")
		}
	}
	before := n.late
	n.stepCycle()
	st := n.ParallelStats()
	if st.Parks < 1 || st.Wakes < 1 || st.Wakes > st.Parks {
		t.Fatalf("%d parks, %d wakes; want at least one of each, no wake without a park", st.Parks, st.Wakes)
	}
	if n.late != before+lateLimit/4 || n.helper != h {
		t.Fatalf("lateness score %d → %d after a mid-stretch wake, want +%d with the helper kept", before, n.late, lateLimit/4)
	}
}

// TestParallelBreakEvenRule pins the measured rule itself, no hook: a knee
// run that can borrow splits and goes concurrent, a low-load run never does —
// it borrows no goroutine and stays one shard — and both agree with the
// network that has no lender, which never leaves its own goroutine. Both end
// the run on one shard: every loan's split has its merge. How much
// of the knee run stays concurrent depends on the host (a helper without a
// CPU of its own is given back), so the share is checked with the lateness
// rule out of the way: the load criterion alone calls nearly every knee cycle
// heavy.
func TestParallelBreakEvenRule(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, tc := range []struct {
		rate       float64
		concurrent bool
	}{{0.3, true}, {0.02, false}} {
		cfg := meshConfig(1, tc.rate)
		alone := New(cfg)
		want := alone.Run()
		if st := alone.ParallelStats(); st.Concurrent != 0 || alone.Shards() != 1 {
			t.Fatalf("rate %g: a network with no lender ran %d cycles concurrently on %d shards", tc.rate, st.Concurrent, alone.Shards())
		}
		lender := &testLender{}
		n := New(cfg)
		n.BorrowHelpers(lender)
		got := n.Run()
		st := n.ParallelStats()
		if got != want {
			t.Fatalf("rate %g: the borrowing network diverged from the lone one:\n%+v\n%+v", tc.rate, want, got)
		}
		if tc.concurrent != (st.Concurrent > 0) || tc.concurrent != (st.Loans > 0) || st.Loans != int64(lender.lent) || n.Shards() != 1 {
			t.Fatalf("rate %g: %d of %d cycles concurrent, %d loans (%d lent), %d shards after Run",
				tc.rate, st.Concurrent, st.Stepped, st.Loans, lender.lent, n.Shards())
		}
		settleGoroutines(t, fmt.Sprintf("rate %g after Run", tc.rate), base)
	}
	n := New(meshConfig(1, 0.3))
	n.BorrowHelpers(&testLender{})
	n.modeHook = func(int64) bool { return n.heavy() }
	n.Run()
	if st := n.ParallelStats(); st.Concurrent < st.Stepped*9/10 {
		t.Fatalf("knee: the load criterion calls %d of %d cycles heavy, want nearly all", st.Concurrent, st.Stepped)
	}
}

// TestParallelLightRunStartsNoHelper checks the other half of the rule at the
// goroutine level: stepping a low-load network that could borrow by hand
// never asks its lender for a helper.
func TestParallelLightRunStartsNoHelper(t *testing.T) {
	lender := &testLender{}
	n := New(meshConfig(1, 0.02))
	n.BorrowHelpers(lender)
	defer n.Close()
	for i := 0; i < 3000; i++ {
		n.stepCycle()
		if n.helper != nil || lender.lent != 0 || n.Shards() != 1 {
			t.Fatalf("cycle %d: a low-load network borrowed a helper (%d loans, %d shards)", i, lender.lent, n.Shards())
		}
	}
}

// TestShardsUnderOneProc runs two shards, every cycle concurrent, on a single
// P: the spinning sides yield, the stepping goroutine takes the phase the
// helper does not get to, and the run finishes with the serial result.
func TestShardsUnderOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := meshConfig(2, 0.3)
	cfg.Warmup, cfg.Measure, cfg.Drain = 100, 300, 3000
	want := New(cfg).Run()
	n := New(cfg)
	splitLent(n)
	done := make(chan Result, 1)
	go func() { done <- n.Run() }()
	select {
	case got := <-done:
		if got != want {
			t.Fatalf("GOMAXPROCS=1, split and concurrent, diverged:\n%+v\n%+v", want, got)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("GOMAXPROCS=1, split and concurrent, did not finish")
	}
	if st := n.ParallelStats(); st.Concurrent != st.Stepped {
		t.Fatalf("%d of %d cycles concurrent, want all", st.Concurrent, st.Stepped)
	}
}

// TestParallelGivesUpLateHelpers runs a knee network that borrows by the
// rule, no hook, on a single P, where a helper is only ever scheduled when the
// stepping goroutine is preempted: the network takes the helper's phases
// itself, gives the helper back after lateLimit of them and steps one shard
// until it asks again, instead of paying for a helper that does not run.
// Every such return is counted, and each one is a loan that ended.
func TestParallelGivesUpLateHelpers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := meshConfig(1, 0.3)
	want := New(cfg).Run()
	n := New(cfg)
	l := &testLender{}
	n.BorrowHelpers(l)
	got := n.Run()
	if got != want {
		t.Fatalf("GOMAXPROCS=1, borrowing, diverged:\n%+v\n%+v", want, got)
	}
	st := n.ParallelStats()
	if st.Concurrent == 0 || st.Concurrent > st.Stepped/2 || st.Taken < st.Concurrent/2 {
		t.Fatalf("%d of %d cycles concurrent, %d phases taken over; want a few tries, mostly taken over", st.Concurrent, st.Stepped, st.Taken)
	}
	if st.LateReturns == 0 || st.LateReturns > st.Loans || st.Loans != int64(l.lent) {
		t.Fatalf("%d helpers given back late out of %d loans (%d lent); want at least one, at most one per loan", st.LateReturns, st.Loans, l.lent)
	}
}

// gateLender lends a helper that starts only once the lender wants it back,
// at the recallAt-th asking: the helper of such a loan never claims a phase.
type gateLender struct {
	recallAt, asked int
	gate            chan struct{}
}

func (l *gateLender) Lend(fn func()) bool {
	go func() { <-l.gate; fn() }()
	return true
}

func (l *gateLender) Wanted() bool {
	if l.asked++; l.asked == l.recallAt {
		close(l.gate)
		return true
	}
	return false
}

// TestParallelCountsUnstartedHelpers: a loan that ends before its helper
// claims a phase counts in Unstarted, and the stepping goroutine took every
// concurrent cycle of it; the run still matches one shard.
func TestParallelCountsUnstartedHelpers(t *testing.T) {
	cfg := meshConfig(2, 0.3)
	cfg.Warmup, cfg.Measure, cfg.Drain = 100, 300, 3000
	want := New(cfg).Run()
	n := New(cfg)
	n.BorrowHelpers(&gateLender{recallAt: 6, gate: make(chan struct{})})
	n.modeHook = func(now int64) bool { return now < 8 }
	if got := n.Run(); got != want {
		t.Fatalf("diverged from one shard:\n%+v\n%+v", want, got)
	}
	st := n.ParallelStats()
	if st.Loans != 1 || st.Unstarted != 1 || st.Concurrent == 0 || st.Taken != st.Concurrent {
		t.Fatalf("%d loans, %d unstarted, %d of %d concurrent cycles taken over; want one loan, unstarted, all taken", st.Loans, st.Unstarted, st.Taken, st.Concurrent)
	}
}

// TestParallelGoroutinesReleased counts goroutines: a network's helper is
// gone after Run, after Close on a hand-stepped network, and after a
// cancelled RunCtx.
func TestParallelGoroutinesReleased(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := meshConfig(2, 0.3)
	cfg.Warmup, cfg.Measure, cfg.Drain = 100, 300, 3000

	n := New(cfg)
	splitLent(n)
	n.Run()
	settleGoroutines(t, "after Run", base)

	n = New(cfg)
	splitLent(n)
	for i := 0; i < 200; i++ {
		n.stepCycle()
	}
	if got := runtime.NumGoroutine(); got != base+1 {
		t.Fatalf("hand-stepped, split and concurrent: %d goroutines, want %d + 1 helper", got, base)
	}
	n.Close()
	n.Close() // idempotent
	settleGoroutines(t, "after Close", base)
	if n.Shards() != 1 {
		t.Fatalf("after Close: %d shards, want the network merged", n.Shards())
	}
	n.stepCycle() // and stepping on borrows again
	if n.Shards() != 2 || n.ParallelStats().Loans != 2 {
		t.Fatalf("stepped after Close: %d shards after %d loans, want a second split", n.Shards(), n.ParallelStats().Loans)
	}
	n.Close()
	settleGoroutines(t, "after the second Close", base)

	long := cfg
	long.Measure = 50_000_000
	n = New(long)
	splitLent(n)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Result, 1)
	go func() { done <- n.RunCtx(ctx) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if res := <-done; !res.Aborted {
		t.Fatalf("cancelled run not aborted: %+v", res)
	}
	settleGoroutines(t, "after an aborted RunCtx", base)
}

// TestShardWorkerPanicPropagates proves a panic inside the helper's phase
// (Validate tripping, flow-control bugs) reaches the stepping goroutine, with
// the helper's stack, instead of crashing the process from the helper — and
// that the helper is released afterwards.
func TestShardWorkerPanicPropagates(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		// On one P the stepping goroutine takes every phase itself.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	base := runtime.NumGoroutine()
	// The stepping goroutine claims a phase its helper is late for, and a
	// panic in a phase it runs itself is not what this test is about: try
	// until the helper got there first.
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); {
		// One helper: an idle P picks it up at once, whatever else is queued.
		n := New(meshConfig(1, 0.2))
		splitLent(n)
		for i := 0; i < 300; i++ {
			n.stepCycle()
		}
		// Plant a malformed event in the helper's shard's wheel: delivering a
		// flit to an out-of-range VC panics inside that shard's phase 1.
		last := n.shards[1]
		slot := (n.now + 1) % n.wheelSize
		last.wheel[slot] = append(last.wheel[slot], event{
			kind: evFlitToRouter, router: int32(last.r0), port: 0, vc: math.MaxInt16,
			flit: router.Flit{Pkt: &router.Packet{Size: 1}, Head: true, Tail: true},
		})
		msg := func() (msg string) {
			defer n.Close()
			defer func() { msg = fmt.Sprint(recover()) }()
			for i := 0; i < 10; i++ {
				n.stepCycle()
			}
			return ""
		}()
		if msg == "<nil>" {
			t.Fatal("corrupted shard did not panic on the stepping goroutine")
		}
		settleGoroutines(t, "after a propagated panic", base)
		if strings.Contains(msg, "shard worker panicked") {
			if !strings.Contains(msg, "stepGuarded") {
				t.Fatalf("re-raised panic lacks the helper's stack:\n%s", msg)
			}
			return
		}
	}
	t.Fatalf("no helper ever claimed the corrupted phase (GOMAXPROCS %d)", runtime.GOMAXPROCS(0))
}
