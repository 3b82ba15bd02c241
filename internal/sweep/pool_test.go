package sweep

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolBoundsConcurrency pins that at most `workers` tasks execute
// simultaneously while every submitted task still completes.
func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var cur, peak, total atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Run(context.Background(), func(ctx context.Context) {
				c := cur.Add(1)
				for {
					old := peak.Load()
					if c <= old || peak.CompareAndSwap(old, c) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				cur.Add(-1)
				total.Add(1)
			})
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > 2 {
		t.Fatalf("observed %d concurrent tasks, pool width 2", got)
	}
	if got := total.Load(); got != 16 {
		t.Fatalf("%d tasks ran, want 16", got)
	}
}

// TestPoolSkipsCancelledQueuedTask pins that a task whose context dies
// while queued never runs.
func TestPoolSkipsCancelledQueuedTask(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	block := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Run(context.Background(), func(ctx context.Context) { <-block })
	}()
	time.Sleep(10 * time.Millisecond) // the single worker is now occupied
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := p.Run(ctx, func(ctx context.Context) { ran = true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("queued-then-cancelled Run: %v", err)
	}
	if ran {
		t.Fatal("cancelled task executed")
	}
	close(block)
	wg.Wait()
}

func TestPoolClose(t *testing.T) {
	p := NewPool(2)
	var ran atomic.Int64
	if err := p.Run(context.Background(), func(ctx context.Context) { ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	if err := p.Run(context.Background(), func(ctx context.Context) {}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Run after Close: %v", err)
	}
	if ran.Load() != 1 {
		t.Fatal("task before Close did not run")
	}
}

// TestPoolSurvivesPanickingTask pins that a task that panics fails its own
// Run with an error carrying the panic value, while the worker that ran it
// keeps serving later tasks and the counters still add up.
func TestPoolSurvivesPanickingTask(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(1) // one worker, so the later Runs need the one that panicked
	err := p.Run(context.Background(), func(ctx context.Context) { panic("bad unit") })
	if err == nil || !strings.Contains(err.Error(), "bad unit") {
		t.Fatalf("Run of a panicking task: %v, want an error carrying the panic value", err)
	}
	for i := 0; i < 3; i++ {
		if err := p.Run(context.Background(), func(ctx context.Context) {}); err != nil {
			t.Fatalf("Run %d after the panic: %v", i, err)
		}
	}
	if done, skipped := p.Stats(); done != 4 || skipped != 0 {
		t.Fatalf("Stats = (%d, %d), want (4, 0)", done, skipped)
	}
	if now, lent, recalled := p.LendStats(); now != 0 || lent != 0 || recalled != 0 {
		t.Fatalf("LendStats = (%d, %d, %d), want zeros", now, lent, recalled)
	}
	if n := p.Running(); n != 0 {
		t.Fatalf("Running = %d after every Run returned", n)
	}
	p.Close()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the pool", runtime.NumGoroutine(), base)
		}
	}
}
