package experiments_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/curve"
	"repro/internal/experiments"
	"repro/internal/sweep"
)

// hugeScale sizes a unit so that, uncancelled, it would run for a very long
// time.
var hugeScale = experiments.SimScale{Warmup: 500, Measure: 50_000_000, Drain: 1000, Seed: 42, Workers: 2}

// cancelStopsEarly runs a figure driver on a real sweep server, cancels it
// after it has started, and requires it to return ctx's error promptly: the
// in-flight simulations abort at their next abort check and the unstarted
// units never start.
func cancelStopsEarly(t *testing.T, run func(context.Context, sweep.Evaluator) error) {
	t.Helper()
	srv, err := sweep.NewServer(sweep.Options{Workers: hugeScale.Workers})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, srv) }()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled figure returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled figure did not return within 30s")
	}
}

// TestFig13CtxCancelStopsEarly cancels a Fig. 13 curve sweep whose
// uncancelled runtime would be enormous.
func TestFig13CtxCancelStopsEarly(t *testing.T) {
	pt, err := experiments.PointByName("mesh", 1)
	if err != nil {
		t.Fatal(err)
	}
	cancelStopsEarly(t, func(ctx context.Context, eval sweep.Evaluator) error {
		_, err := curve.Fig13(ctx, eval, pt, []float64{0.2, 0.25, 0.3}, hugeScale)
		return err
	})
}

// TestPatternSweepCtxCancelStopsEarly does the same through the pattern
// sweep.
func TestPatternSweepCtxCancelStopsEarly(t *testing.T) {
	pt, err := experiments.PointByName("mesh", 1)
	if err != nil {
		t.Fatal(err)
	}
	cancelStopsEarly(t, func(ctx context.Context, eval sweep.Evaluator) error {
		_, err := curve.PatternSweep(ctx, eval, pt, 0.3, hugeScale, []string{"uniform", "transpose", "tornado"})
		return err
	})
}
