package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skysql/internal/chaos"
	"skysql/internal/skyline"
	"skysql/internal/types"
)

func evenParts(n, parts int) *Dataset {
	d := &Dataset{}
	for _, b := range evenChunkBounds(n, parts) {
		part := make([]types.Row, 0, b[1]-b[0])
		for v := b[0]; v < b[1]; v++ {
			part = append(part, rows(int64(v))...)
		}
		d.Parts = append(d.Parts, part)
	}
	return d
}

// TestTransientClassification pins the wrapper/classifier pair.
func TestTransientClassification(t *testing.T) {
	base := errors.New("disk hiccup")
	if !IsTransient(Transient(base)) {
		t.Error("Transient(err) not classified transient")
	}
	if IsTransient(base) {
		t.Error("bare error classified transient")
	}
	if IsTransient(nil) || Transient(nil) != nil {
		t.Error("nil error mishandled")
	}
	wrapped := fmt.Errorf("stage context: %w", Transient(base))
	if !IsTransient(wrapped) {
		t.Error("transient not detected through wrapping")
	}
	if !errors.Is(Transient(base), base) {
		t.Error("Transient breaks errors.Is to the base error")
	}
}

// TestRetryRecoversTransientFaults runs a map round whose tasks fail
// transiently on their first attempts and checks the round succeeds with
// the retries counted.
func TestRetryRecoversTransientFaults(t *testing.T) {
	ctx := NewContext(4)
	ctx.MaxTaskRetries = 3
	ctx.RetryBackoff = time.Microsecond
	var attempts [4]atomic.Int64
	in := NewDataset(rows(1), rows(2), rows(3), rows(4))
	out, err := ctx.MapPartitions(in, func(i int, part []types.Row) ([]types.Row, error) {
		if attempts[i].Add(1) <= 2 {
			return nil, Transient(fmt.Errorf("flaky partition %d", i))
		}
		return part, nil
	})
	if err != nil {
		t.Fatalf("MapPartitions: %v", err)
	}
	if out.NumRows() != 4 {
		t.Fatalf("lost rows: %d", out.NumRows())
	}
	if got := ctx.Metrics.Count(TaskRetries); got != 8 {
		t.Errorf("TaskRetries = %d, want 8 (2 per partition)", got)
	}
	if got := ctx.Metrics.Count(TasksFailed); got != 0 {
		t.Errorf("TasksFailed = %d, want 0", got)
	}
}

// TestRetryExhaustionWrapsTaskError checks a task that never recovers
// surfaces a TaskError naming its coordinates — not a bare error, and not
// ErrCanceled.
func TestRetryExhaustionWrapsTaskError(t *testing.T) {
	ctx := NewContext(2)
	ctx.MaxTaskRetries = 2
	ctx.RetryBackoff = time.Microsecond
	boom := errors.New("boom")
	_, err := ctx.MapPartitions(NewDataset(rows(1), rows(2)), func(i int, part []types.Row) ([]types.Row, error) {
		if i == 1 {
			return nil, Transient(boom)
		}
		return part, nil
	})
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("error %v is not a TaskError", err)
	}
	if te.Partition != 1 || te.Attempts != 3 || te.Stage != 1 {
		t.Errorf("TaskError coordinates = %+v, want stage 1 partition 1 attempts 3", te)
	}
	if !errors.Is(err, boom) {
		t.Errorf("TaskError does not unwrap to the cause: %v", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Errorf("permanent task failure surfaced as ErrCanceled")
	}
	if got := ctx.Metrics.Count(TasksFailed); got != 1 {
		t.Errorf("TasksFailed = %d, want 1", got)
	}
}

// TestNonTransientFailsImmediately checks plain errors never retry even
// with budget available.
func TestNonTransientFailsImmediately(t *testing.T) {
	ctx := NewContext(2)
	ctx.MaxTaskRetries = 5
	var calls atomic.Int64
	boom := errors.New("type mismatch")
	_, err := ctx.MapPartitions(NewDataset(rows(1)), func(i int, part []types.Row) ([]types.Row, error) {
		calls.Add(1)
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the cause", err)
	}
	if calls.Load() != 1 {
		t.Errorf("non-transient error ran %d attempts, want 1", calls.Load())
	}
	if ctx.Metrics.Count(TaskRetries) != 0 {
		t.Errorf("non-transient error counted retries")
	}
}

// TestInjectedFaultsRetriedDeterministically wires a real injector at a
// high fault rate and checks (a) the round still succeeds, (b) the fault
// and retry counters are bit-identical across repeated runs — on a
// transient pool and on a shared one.
func TestInjectedFaultsRetriedDeterministically(t *testing.T) {
	run := func(pool bool) (int64, int64, error) {
		ctx := NewContext(4)
		ctx.Injector = chaos.New(chaos.Config{Seed: 11, FaultRate: 0.3})
		ctx.MaxTaskRetries = 10
		ctx.RetryBackoff = time.Microsecond
		if pool {
			p := NewWorkerPool(4)
			defer p.Close()
			ctx.Runner = p
		}
		in := evenParts(64, 8)
		out, err := ctx.MapPartitions(in, func(i int, part []types.Row) ([]types.Row, error) {
			return part, nil
		})
		if err == nil && out.NumRows() != 64 {
			err = fmt.Errorf("lost rows: %d", out.NumRows())
		}
		return ctx.Metrics.Count(InjectedFaults), ctx.Metrics.Count(TaskRetries), err
	}
	f0, r0, err := run(false)
	if err != nil {
		t.Fatalf("transient-pool run: %v", err)
	}
	if f0 == 0 || r0 != f0 {
		t.Fatalf("expected faults with matching retries, got faults=%d retries=%d", f0, r0)
	}
	for i := 0; i < 3; i++ {
		f, r, err := run(i%2 == 1)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if f != f0 || r != r0 {
			t.Errorf("run %d: counters (%d, %d) differ from (%d, %d) — injection not deterministic", i, f, r, f0, r0)
		}
	}
}

// TestFreeClampSymmetry pins the satellite fix: an unmatched Free must not
// drive the live counter negative and corrupt later peak baselines, while
// matched Alloc/Free pairs stay exactly symmetric.
func TestFreeClampSymmetry(t *testing.T) {
	m := &Metrics{}
	m.Alloc(100)
	m.Free(100)
	if got := m.LiveBytes(); got != 0 {
		t.Errorf("symmetric alloc/free left LiveBytes = %d", got)
	}
	m.Free(50) // unmatched
	if got := m.LiveBytes(); got != 0 {
		t.Errorf("unmatched Free drove LiveBytes to %d", got)
	}
	m.Alloc(70)
	if got := m.LiveBytes(); got != 70 {
		t.Errorf("LiveBytes after clamped free then alloc = %d, want 70", got)
	}
	if got := m.PeakBytes(); got != 100 {
		t.Errorf("PeakBytes = %d, want 100 (the true high-water mark)", got)
	}
}

// TestMemoryGovernorLadder walks the budget thresholds: 60% drops
// sidecars, 80% collapses fan-out, and only an excess with both steps
// already taken fails with ErrMemoryBudget.
func TestMemoryGovernorLadder(t *testing.T) {
	ctx := NewContext(4)
	ctx.MemoryBudget = 1000
	if err := ctx.CheckBudget(); err != nil || ctx.SidecarsDropped() {
		t.Fatalf("governor acted with no pressure: err=%v dropped=%v", err, ctx.SidecarsDropped())
	}
	ctx.Metrics.Alloc(700) // 70% > 60% threshold
	if err := ctx.CheckBudget(); err != nil {
		t.Fatalf("soft threshold failed the query: %v", err)
	}
	if !ctx.SidecarsDropped() || ctx.fanoutCollapsed() {
		t.Fatalf("70%% live: want level 1, got dropped=%v collapsed=%v", ctx.SidecarsDropped(), ctx.fanoutCollapsed())
	}
	ctx.Metrics.Alloc(200) // 90% > 80% threshold
	if err := ctx.CheckBudget(); err != nil {
		t.Fatalf("second soft threshold failed the query: %v", err)
	}
	if !ctx.fanoutCollapsed() {
		t.Fatal("90% live: fan-out not collapsed")
	}
	if got := ctx.Metrics.Count(DegradationSteps); got != 2 {
		t.Errorf("DegradationSteps = %d, want 2", got)
	}
	ctx.Metrics.Alloc(200) // 110%: over budget, fully degraded
	err := ctx.CheckBudget()
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("over-budget fully-degraded check returned %v, want ErrMemoryBudget", err)
	}
	if steps := ctx.Metrics.Degradations(); len(steps) != 2 {
		t.Errorf("degradation log = %v, want the two escalation steps", steps)
	}
}

// TestMemoryGovernorDisabled pins that a zero budget never degrades.
func TestMemoryGovernorDisabled(t *testing.T) {
	ctx := NewContext(2)
	ctx.Metrics.Alloc(1 << 40)
	if err := ctx.CheckBudget(); err != nil || ctx.SidecarsDropped() {
		t.Errorf("unbudgeted context degraded: err=%v dropped=%v", err, ctx.SidecarsDropped())
	}
}

// TestCancelWithCause checks CancelWith records the first cause and every
// checkpoint returns it.
func TestCancelWithCause(t *testing.T) {
	ctx := NewContext(2)
	deadline := fmt.Errorf("deadline exceeded: %w", ErrCanceled)
	ctx.CancelWith(deadline)
	ctx.CancelWith(errors.New("too late")) // first cause wins
	if err := ctx.CheckCanceled(); !errors.Is(err, deadline) {
		t.Errorf("CheckCanceled = %v, want the recorded cause", err)
	}
	if err := ctx.CheckCanceled(); !errors.Is(err, ErrCanceled) {
		t.Errorf("cause does not satisfy errors.Is(_, ErrCanceled): %v", err)
	}
}

// TestPoolCancelLatency bounds cancel-to-stop latency on the real
// worker-pool path (TestSimulatedCancel covers the Simulator). Workers re-check cancellation before every
// morsel, so a cancel mid-round must stop the round in far less time than
// draining all remaining slow morsels would take.
func TestPoolCancelLatency(t *testing.T) {
	pool := NewWorkerPool(2)
	defer pool.Close()
	ctx := NewContext(2)
	ctx.Runner = pool
	ctx.MorselParallel = true
	ctx.MorselTargetRows = 1

	// 64 single-row morsels of 5ms on 2 workers: draining the round takes
	// ~160ms, so a prompt cancel is clearly distinguishable from a drain.
	const perTask = 5 * time.Millisecond
	var executed atomic.Int64
	var once sync.Once
	firstStarted := make(chan struct{})
	in := evenParts(64, 1)
	done := make(chan error, 1)
	go func() {
		_, err := ctx.MapPartitionsSplittable(in, func(i int, part []types.Row, b *skyline.Batch) ([]types.Row, *skyline.Batch, error) {
			once.Do(func() { close(firstStarted) })
			executed.Add(1)
			time.Sleep(perTask)
			return part, b, nil
		})
		done <- err
	}()
	<-firstStarted
	cancelAt := time.Now()
	ctx.Cancel()
	select {
	case err := <-done:
		latency := time.Since(cancelAt)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("canceled round returned %v", err)
		}
		// In-flight morsels (one per worker) may finish; everything still
		// queued must be abandoned. 80ms bounds the latency at half the
		// drain time with plenty of scheduler slack.
		if latency > 80*time.Millisecond {
			t.Errorf("cancel-to-stop latency %v, want < 80ms (full drain ≈ 160ms)", latency)
		}
		if n := executed.Load(); n > 8 {
			t.Errorf("%d morsels ran after cancel; workers are not re-checking between morsels", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("round never stopped after cancel")
	}
}

// TestPanicContainedAtTaskBoundary pins panic containment: a task body that
// panics fails its round with a TaskError carrying the panic value and
// stack — attempted once, never retried — instead of killing the process;
// the pool that ran it serves the next round, and the allocation spike the
// panicking attempt held is released, so the governor's live bytes return
// to zero.
func TestPanicContainedAtTaskBoundary(t *testing.T) {
	pool := NewWorkerPool(2)
	defer pool.Close()
	gov := NewGovernor(0)
	ctx := NewContext(2)
	ctx.Runner = pool
	ctx.Global = gov
	ctx.Metrics.AttachGovernor(gov)
	defer ctx.Metrics.DetachGovernor()
	ctx.Injector = chaos.New(chaos.Config{Seed: 1, AllocSpikeRate: 1, AllocSpikeBytes: 1 << 16})
	ctx.MaxTaskRetries = 3
	var attempts atomic.Int64
	in := NewDataset(rows(1), rows(2), rows(3), rows(4))
	_, err := ctx.MapPartitions(in, func(i int, part []types.Row) ([]types.Row, error) {
		if i == 2 {
			attempts.Add(1)
			panic("boom in partition 2")
		}
		return part, nil
	})
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("error %v is not a TaskError", err)
	}
	if te.Partition != 2 || te.Attempts != 1 || attempts.Load() != 1 {
		t.Errorf("TaskError = %+v after %d attempts, want partition 2 failed on its only attempt", te, attempts.Load())
	}
	var pe *taskPanic
	if !errors.As(err, &pe) || pe.value != "boom in partition 2" {
		t.Fatalf("error %v does not carry the panic value", err)
	}
	if !strings.Contains(string(pe.stack), "TestPanicContainedAtTaskBoundary") {
		t.Errorf("panic stack does not name the panicking function:\n%s", pe.stack)
	}
	if got := ctx.Metrics.Count(TasksFailed); got != 1 {
		t.Errorf("TasksFailed = %d, want 1", got)
	}
	out, err := ctx.MapPartitions(in, func(i int, part []types.Row) ([]types.Row, error) { return part, nil })
	if err != nil || out.NumRows() != 4 {
		t.Fatalf("round after the panic: rows=%v err=%v", out, err)
	}
	if live := gov.LiveBytes(); live != 0 {
		t.Errorf("governor live bytes = %d after both rounds, want 0", live)
	}
}
