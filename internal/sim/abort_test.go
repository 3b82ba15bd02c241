package sim

import (
	"context"
	"testing"
	"time"
)

// TestRunCtxBackgroundMatchesRun pins that threading a never-cancelled
// context through the run loop is invisible: the result is bit-identical to
// the plain Run path for the same configuration and seed.
func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	cfg := meshConfig(1, 0.2)
	plain := New(cfg).Run()
	ctxed := New(cfg).RunCtx(context.Background())
	if plain != ctxed {
		t.Fatalf("RunCtx(Background) diverged from Run:\n%+v\nvs\n%+v", plain, ctxed)
	}
	if plain.Aborted {
		t.Fatalf("uncancelled run reported Aborted")
	}
}

// TestRunCtxPreCancelledAbortsWithinInterval pins the worker-release
// latency contract: a context that is already cancelled when the run starts
// is observed within one abort-check interval, i.e. at most
// AbortCheckInterval cycles are simulated before RunCtx returns.
func TestRunCtxPreCancelledAbortsWithinInterval(t *testing.T) {
	cfg := meshConfig(1, 0.3)
	cfg.Measure = 10_000_000 // far beyond what an unaborted run would tolerate
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := New(cfg).RunCtx(ctx)
	if !res.Aborted {
		t.Fatalf("pre-cancelled run did not report Aborted: %+v", res)
	}
	if res.Cycles > AbortCheckInterval {
		t.Fatalf("abort took %d cycles, want <= %d (one check interval)", res.Cycles, AbortCheckInterval)
	}
}

// TestRunCtxCancelStopsLongRun cancels a run that would otherwise simulate
// tens of millions of cycles and requires it to return promptly with the
// Aborted flag set, on one shard and split with a lent helper.
func TestRunCtxCancelStopsLongRun(t *testing.T) {
	for _, split := range []bool{false, true} {
		cfg := meshConfig(1, 0.3)
		cfg.Measure = 50_000_000
		n := New(cfg)
		if split {
			splitLent(n)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan Result, 1)
		start := time.Now()
		go func() { done <- n.RunCtx(ctx) }()
		time.Sleep(30 * time.Millisecond)
		cancel()
		select {
		case res := <-done:
			if !res.Aborted {
				t.Fatalf("split=%v: cancelled run did not report Aborted: %+v", split, res)
			}
			if res.Cycles <= 0 {
				t.Fatalf("split=%v: run aborted before doing any work", split)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("split=%v: cancelled run still going after 30s (started %v ago)", split, time.Since(start))
		}
	}
}
