package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Pool is the bounded scheduler for cache-miss units: a fixed set of
// persistent workers executes submitted tasks, so an arbitrary number of
// concurrent requests degrades into an orderly queue instead of a fork
// bomb of simulations. Tasks carry a context; a task whose context is
// cancelled while still queued is skipped entirely, and a running task is
// expected to observe its context itself (simulations poll it every
// sim.AbortCheckInterval cycles), so abandoned work frees its worker
// quickly.
//
// A worker with no task to run can be lent to a running simulation as a
// helper goroutine for its second shard (Pool is a sim.Lender). The contract:
// Lend hands over a worker only if one is parked on the task channel at that
// instant, so lending never takes a worker a task could have had; a Run that
// finds no idle worker raises Wanted for as long as it waits, the borrower
// polls that before every cycle it steps, and the worker is back on the task
// channel within one simulated cycle — tens of microseconds on the paper's
// networks, under a millisecond on any the schema admits. A lent worker is
// running no task: it is in none of running/done/skipped.
type Pool struct {
	tasks chan *poolTask
	quit  chan struct{} // closed by Close; tasks never is, so a late Run cannot panic
	wg    sync.WaitGroup

	closed  atomic.Bool
	running atomic.Int64
	done    atomic.Int64
	skipped atomic.Int64

	waiting  atomic.Int64 // Run callers blocked for want of an idle worker
	lentNow  atomic.Int64 // workers out on loan
	lent     atomic.Int64 // loans made
	recalled atomic.Int64 // times a Run had to wait while a worker was on loan
}

// poolTask is a task (ctx, fn, done, ran, err) or, with lend set, a loan.
type poolTask struct {
	ctx  context.Context
	fn   func(context.Context)
	done chan struct{}
	ran  bool
	err  error // set when fn panicked

	lend func()
}

// ErrPoolClosed is returned by Run after Close.
var ErrPoolClosed = errors.New("sweep: pool closed")

// NewPool starts a pool of `workers` goroutines (minimum 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{tasks: make(chan *poolTask), quit: make(chan struct{})}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		var t *poolTask
		select {
		case t = <-p.tasks:
		case <-p.quit:
			return
		}
		switch {
		case t.lend != nil:
			t.lend()
			p.lentNow.Add(-1)
			continue
		case t.ctx.Err() == nil:
			p.running.Add(1)
			t.exec()
			p.running.Add(-1)
			t.ran = true
			p.done.Add(1)
		default:
			p.skipped.Add(1)
		}
		close(t.done)
	}
}

// exec runs fn, turning a panic into t.err: one bad unit fails its own Run,
// and the worker and the process live on.
func (t *poolTask) exec() {
	defer func() {
		if r := recover(); r != nil {
			t.err = fmt.Errorf("sweep: task panicked: %v", r)
		}
	}()
	t.fn(t.ctx)
}

// Run blocks until a worker has executed fn (returning nil, or an error
// carrying the panic value if fn panicked), or until ctx fires first — while
// queued (the task is abandoned, fn never runs) or while a worker was picking
// it up (fn may have been skipped); both return ctx.Err(). fn's own handling
// of mid-run cancellation is fn's business: Run reports only whether fn was
// invoked. A Run that loses the race with Close returns ErrPoolClosed, fn not
// invoked.
func (p *Pool) Run(ctx context.Context, fn func(context.Context)) error {
	if p.closed.Load() {
		return ErrPoolClosed
	}
	t := &poolTask{ctx: ctx, fn: fn, done: make(chan struct{})}
	select {
	case p.tasks <- t: // an idle worker took it
	default:
		if err := p.queue(ctx, t); err != nil {
			return err
		}
	}
	<-t.done
	if !t.ran {
		return ctx.Err()
	}
	return t.err
}

// queue waits for a worker to take t, calling lent ones back meanwhile.
func (p *Pool) queue(ctx context.Context, t *poolTask) error {
	p.waiting.Add(1)
	defer p.waiting.Add(-1)
	if p.lentNow.Load() > 0 {
		p.recalled.Add(1)
	}
	select {
	case p.tasks <- t:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-p.quit:
		return ErrPoolClosed
	}
}

// Lend implements sim.Lender: fn runs on a worker that is waiting for a task
// at this instant, if there is one. The send succeeds only against a worker
// parked in its receive, so "idle" is exact.
func (p *Pool) Lend(fn func()) bool {
	select {
	case p.tasks <- &poolTask{lend: fn}:
		p.lentNow.Add(1)
		p.lent.Add(1)
		return true
	default:
		return false
	}
}

// Wanted implements sim.Lender: a Run is waiting for a worker, or the pool is
// closing and wants them all.
func (p *Pool) Wanted() bool { return p.waiting.Load() > 0 || p.closed.Load() }

// Running reports how many workers are executing a task right now.
func (p *Pool) Running() int64 { return p.running.Load() }

// Stats reports lifetime task counts (completed, skipped-before-start).
func (p *Pool) Stats() (done, skipped int64) { return p.done.Load(), p.skipped.Load() }

// LendStats reports how many workers are out on loan, how many loans were
// made, and how often a task had to wait while one was out.
func (p *Pool) LendStats() (now, lent, recalled int64) {
	return p.lentNow.Load(), p.lent.Load(), p.recalled.Load()
}

// Close stops accepting work, calls lent workers back and waits for the
// workers to finish what they are running. Idempotent.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	close(p.quit)
	p.wg.Wait()
}
