package cluster

// This file implements the persistent work-stealing worker pool behind
// morsel-driven parallel execution: a fixed set of worker goroutines, one
// bounded deque per worker, and task rounds (batches) submitted
// partition-major so the morsels of one hot partition land in one deque —
// an idle worker then literally steals them from the head while the owner
// pops from the tail. The pool is session-scoped: it outlives individual
// task rounds (no goroutine churn per stage) and may be shared by
// concurrent queries, whose batches simply interleave in the deques.
//
// The pool knows nothing about datasets, morsels, or metrics — it executes
// opaque func() error tasks and reports per-task observations (worker id,
// whether the task was stolen, busy time) through a callback. Context wires
// those observations into Metrics. It is the engine's Runner; the makespan
// model (Simulator) is the only other one.

import (
	"sync"
	"sync/atomic"
	"time"
)

// Task is one unit of work submitted to a WorkerPool round: Run does the
// work; Home names the worker whose deque the task is enqueued on (taken
// modulo the pool size). Submitting the morsels of one partition with a
// common Home keeps them clustered on one deque, which is what makes a
// steal observable as "another worker helped with this partition".
type Task struct {
	Home int
	Run  func() error
}

// Observe receives one completed task's execution record: the worker that
// ran it, whether it was stolen (ran on a worker other than its home), and
// the busy time it consumed. Called concurrently from pool workers.
type Observe func(worker int, stolen bool, busy time.Duration)

// Runner executes one round of tasks for a Context. Every task runs once
// unless the round aborts — on the first task error, or when canceled
// (polled before each task, may be nil) reports true, which fails the round
// with ErrCanceled. observe (may be nil) receives each executed task's
// record. elapsed is the round's duration: wall time on the pool, modelled
// time on a Simulator.
type Runner interface {
	RunBatch(tasks []Task, canceled func() bool, observe Observe) (elapsed time.Duration, err error)
}

// WorkerPool is a fixed-size pool of worker goroutines with per-worker
// deques and work stealing. Create with NewWorkerPool, submit rounds with
// RunBatch, release with Close. Close must not race with an in-flight
// RunBatch.
type WorkerPool struct {
	workers []*poolWorker
	wg      sync.WaitGroup

	mu     sync.Mutex
	cond   *sync.Cond
	seq    uint64 // bumped on every submission; parks key their wait on it
	closed bool
}

// poolWorker is one worker's deque. The owner pops from the tail (LIFO:
// cache-warm, most recently split work first); thieves steal from the head
// (FIFO: the oldest, largest-remaining work).
type poolWorker struct {
	mu    sync.Mutex
	deque []*poolTask
}

// poolTask is a submitted task bound to its round.
type poolTask struct {
	batch *taskBatch
	home  int
	run   func() error
}

// taskBatch is the shared state of one RunBatch round: the countdown to
// completion, the abort flag raised on first failure, and the first error.
type taskBatch struct {
	pending  atomic.Int64
	abort    atomic.Bool
	done     chan struct{}
	canceled func() bool
	observe  Observe

	mu  sync.Mutex
	err error
}

func (b *taskBatch) fail(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
	b.abort.Store(true)
}

// NewWorkerPool starts a pool of n workers (minimum 1).
func NewWorkerPool(n int) *WorkerPool {
	if n < 1 {
		n = 1
	}
	p := &WorkerPool{workers: make([]*poolWorker, n)}
	p.cond = sync.NewCond(&p.mu)
	for i := range p.workers {
		p.workers[i] = &poolWorker{}
	}
	for i := range p.workers {
		p.wg.Add(1)
		go p.worker(i)
	}
	return p
}

// Size returns the worker count.
func (p *WorkerPool) Size() int { return len(p.workers) }

// Close shuts the workers down and waits for them to exit. It must only be
// called with no RunBatch in flight; pending deques are abandoned.
func (p *WorkerPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// RunBatch submits one round of tasks and blocks until every task has
// completed or been skipped. On the first task error the round aborts:
// remaining tasks are drained without running (so the round still
// terminates promptly) and the first error is returned. canceled, when
// non-nil, is polled before each task; a true result aborts the round with
// ErrCanceled. observe, when non-nil, receives each executed task's record.
// elapsed is the round's wall time.
func (p *WorkerPool) RunBatch(tasks []Task, canceled func() bool, observe Observe) (time.Duration, error) {
	if len(tasks) == 0 {
		return 0, nil
	}
	start := time.Now()
	b := &taskBatch{done: make(chan struct{}), canceled: canceled, observe: observe}
	b.pending.Store(int64(len(tasks)))
	n := len(p.workers)
	for i := range tasks {
		home := tasks[i].Home % n
		if home < 0 {
			home = 0
		}
		t := &poolTask{batch: b, home: home, run: tasks[i].Run}
		w := p.workers[home]
		w.mu.Lock()
		w.deque = append(w.deque, t)
		w.mu.Unlock()
	}
	p.mu.Lock()
	p.seq++
	p.cond.Broadcast()
	p.mu.Unlock()
	<-b.done
	b.mu.Lock()
	err := b.err
	b.mu.Unlock()
	return time.Since(start), err
}

// worker is the per-goroutine scheduling loop: drain the own deque from the
// tail, then try to steal one task from another worker's head, and park on
// the pool condition only when both come up empty. The submission sequence
// number is read before draining, so a submission racing with the drain
// bumps it and the park falls through instead of missing the wakeup.
func (p *WorkerPool) worker(id int) {
	defer p.wg.Done()
	own := p.workers[id]
	for {
		p.mu.Lock()
		seq := p.seq
		p.mu.Unlock()
		worked := false
		for {
			t := own.popTail()
			if t == nil {
				break
			}
			t.execute(id)
			worked = true
		}
		for off := 1; off < len(p.workers); off++ {
			victim := p.workers[(id+off)%len(p.workers)]
			if t := victim.stealHead(); t != nil {
				t.execute(id)
				worked = true
				break
			}
		}
		if worked {
			continue
		}
		p.mu.Lock()
		for p.seq == seq && !p.closed {
			p.cond.Wait()
		}
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return
		}
	}
}

func (w *poolWorker) popTail() *poolTask {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.deque)
	if n == 0 {
		return nil
	}
	t := w.deque[n-1]
	w.deque[n-1] = nil
	w.deque = w.deque[:n-1]
	return t
}

func (w *poolWorker) stealHead() *poolTask {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.deque) == 0 {
		return nil
	}
	t := w.deque[0]
	w.deque[0] = nil
	w.deque = w.deque[1:]
	return t
}

// execute runs (or, on an aborted round, skips) one task and counts it off
// the round. The completing decrement closes the round's done channel.
func (t *poolTask) execute(workerID int) {
	b := t.batch
	switch {
	case b.abort.Load():
		// Round already failed or canceled: drain without running.
	case b.canceled != nil && b.canceled():
		b.fail(ErrCanceled)
	default:
		start := time.Now()
		err := t.run()
		busy := time.Since(start)
		if b.observe != nil {
			b.observe(workerID, workerID != t.home, busy)
		}
		if err != nil {
			b.fail(err)
		}
	}
	if b.pending.Add(-1) == 0 {
		close(b.done)
	}
}
