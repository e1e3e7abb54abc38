package skysql

// This file is the session's serving tier: the knobs and machinery that
// make one Session safe and well-behaved under many concurrent queries —
// admission control (a bounded semaphore with queue-or-reject semantics),
// the global memory governor (one live-bytes pool stretched across every
// query in flight), and the stats surfaces the skysqld server exposes.
// Single-query sessions pay nothing: without the options, runCtx takes
// the exact pre-serving path.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrAdmission is returned by Collect when the session's admission
// controller rejects the query: every WithMaxConcurrentQueries slot is
// busy and the admission queue (WithAdmissionQueue) is full — or the
// caller's context expired while the query was queued. The skysqld server
// maps it to HTTP 429. Rejection is immediate and stateless; retrying
// later is always safe.
var ErrAdmission = errors.New("skysql: query rejected by admission control")

// WithMaxConcurrentQueries bounds the number of queries the session
// executes at once. The n+1st concurrent Collect is rejected with
// ErrAdmission — or, when WithAdmissionQueue grants queue slots, parked
// until a running query finishes. 0 (the default) means unbounded: every
// query is admitted immediately, the pre-serving behaviour.
func WithMaxConcurrentQueries(n int) Option {
	return func(s *Session) {
		if n > 0 {
			s.maxConcurrent = n
		}
	}
}

// WithAdmissionQueue grants n queue slots behind the
// WithMaxConcurrentQueries semaphore: a query arriving with every
// execution slot busy parks in the queue (FIFO by slot handoff) instead
// of being rejected, and is rejected only when the queue itself is full
// or its context expires while waiting. 0 (the default) is pure
// queue-or-429 semantics: reject immediately when saturated. No effect
// without WithMaxConcurrentQueries.
func WithAdmissionQueue(n int) Option {
	return func(s *Session) {
		if n > 0 {
			s.queueDepth = n
		}
	}
}

// WithGlobalMemoryBudget caps the live materialized bytes summed across
// every query in flight, extending the per-query WithMemoryBudget
// degradation ladder to a shared pool: when the pool crosses the same
// soft thresholds (50% spill, 60% drop sidecars, 80% collapse fan-out),
// each running query degrades itself at its next cooperative checkpoint,
// so concurrent queries shrink together before any one of them fails
// with ErrMemoryBudget. bytes <= 0 creates a metering-only pool: live
// bytes and in-flight counts are tracked (the skysqld /stats surface)
// but nothing degrades.
func WithGlobalMemoryBudget(bytes int64) Option {
	return func(s *Session) {
		s.governed = true
		s.globalBudget = bytes
	}
}

// admission is the session's query admission controller: a semaphore of
// execution slots with a bounded waiting room behind it.
type admission struct {
	slots      chan struct{}
	queueDepth int

	waiters  atomic.Int64
	inFlight atomic.Int64
	admitted atomic.Int64
	queued   atomic.Int64
	rejected atomic.Int64
}

func newAdmission(maxConcurrent, queueDepth int) *admission {
	return &admission{slots: make(chan struct{}, maxConcurrent), queueDepth: queueDepth}
}

// acquire claims an execution slot, queueing when allowed. The returned
// error is nil (slot held; the caller must release) or wraps
// ErrAdmission.
func (a *admission) acquire(ctx context.Context) error {
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		a.inFlight.Add(1)
		return nil
	default:
	}
	// Saturated. The waiter count is reserved before parking so that the
	// queue bound holds under concurrent arrivals: more than queueDepth
	// simultaneous waiters is impossible, not merely unlikely.
	if a.queueDepth <= 0 || a.waiters.Add(1) > int64(a.queueDepth) {
		if a.queueDepth > 0 {
			a.waiters.Add(-1)
		}
		a.rejected.Add(1)
		return fmt.Errorf("%w: %d queries running, queue full", ErrAdmission, cap(a.slots))
	}
	a.queued.Add(1)
	defer a.waiters.Add(-1)
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		a.inFlight.Add(1)
		return nil
	case <-ctx.Done():
		a.rejected.Add(1)
		return fmt.Errorf("%w: context expired while queued: %w", ErrAdmission, ctx.Err())
	}
}

// release returns the slot claimed by a successful acquire.
func (a *admission) release() {
	a.inFlight.Add(-1)
	<-a.slots
}

// AdmissionStats is a point-in-time snapshot of the session's admission
// controller. Admitted/Queued/Rejected are cumulative; InFlight and
// Waiting are instantaneous.
type AdmissionStats struct {
	MaxConcurrent int   // execution-slot bound (0 = admission disabled)
	QueueDepth    int   // waiting-room bound behind the slots
	InFlight      int64 // queries currently holding a slot
	Waiting       int64 // queries currently parked in the queue
	Admitted      int64 // total queries granted a slot
	Queued        int64 // total queries that waited before admission
	Rejected      int64 // total queries turned away (429s)
}

// AdmissionStats returns the admission controller's counters; the zero
// value when WithMaxConcurrentQueries was not set.
func (s *Session) AdmissionStats() AdmissionStats {
	if s.admission == nil {
		return AdmissionStats{}
	}
	a := s.admission
	return AdmissionStats{
		MaxConcurrent: cap(a.slots),
		QueueDepth:    a.queueDepth,
		InFlight:      a.inFlight.Load(),
		Waiting:       a.waiters.Load(),
		Admitted:      a.admitted.Load(),
		Queued:        a.queued.Load(),
		Rejected:      a.rejected.Load(),
	}
}

// GovernorStats is a point-in-time snapshot of the session's global
// memory governor (WithGlobalMemoryBudget).
type GovernorStats struct {
	Budget      int64 // global byte budget (0 = metering-only)
	LiveBytes   int64 // bytes live across every query in flight
	InFlight    int64 // queries currently attached to the pool
	Escalations int64 // degradation steps taken under global pressure
}

// GovernorStats returns the global memory governor's counters; the zero
// value when WithGlobalMemoryBudget was not set.
func (s *Session) GovernorStats() GovernorStats {
	if s.governor == nil {
		return GovernorStats{}
	}
	return GovernorStats{
		Budget:      s.governor.Budget(),
		LiveBytes:   s.governor.LiveBytes(),
		InFlight:    s.governor.InFlight(),
		Escalations: s.governor.Escalations(),
	}
}

// PoolSize returns the size the session's work-stealing worker pool has
// (or would have, when not yet created): min(NumCPU, executors).
func (s *Session) PoolSize() int {
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	if s.pool != nil {
		return s.pool.Size()
	}
	return s.poolSize()
}
