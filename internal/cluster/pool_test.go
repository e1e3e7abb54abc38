package cluster

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skysql/internal/cost"
	"skysql/internal/skyline"
	"skysql/internal/types"
)

func TestWorkerPoolRunsAllTasks(t *testing.T) {
	p := NewWorkerPool(4)
	defer p.Close()
	const n = 100
	var done atomic.Int64
	tasks := make([]Task, n)
	for i := range tasks {
		home := i % 4
		tasks[i] = Task{Home: home, Run: func() error {
			done.Add(1)
			return nil
		}}
	}
	if _, err := p.RunBatch(tasks, nil, nil); err != nil {
		t.Fatal(err)
	}
	if done.Load() != n {
		t.Errorf("executed %d tasks, want %d", done.Load(), n)
	}
}

func TestWorkerPoolReusableAcrossRounds(t *testing.T) {
	p := NewWorkerPool(2)
	defer p.Close()
	for round := 0; round < 10; round++ {
		var done atomic.Int64
		tasks := make([]Task, 8)
		for i := range tasks {
			tasks[i] = Task{Home: i, Run: func() error { done.Add(1); return nil }}
		}
		if _, err := p.RunBatch(tasks, nil, nil); err != nil {
			t.Fatal(err)
		}
		if done.Load() != 8 {
			t.Fatalf("round %d: executed %d tasks, want 8", round, done.Load())
		}
	}
}

func TestWorkerPoolPropagatesError(t *testing.T) {
	p := NewWorkerPool(2)
	defer p.Close()
	boom := errors.New("boom")
	tasks := make([]Task, 20)
	for i := range tasks {
		i := i
		tasks[i] = Task{Home: i, Run: func() error {
			if i == 3 {
				return boom
			}
			return nil
		}}
	}
	if _, err := p.RunBatch(tasks, nil, nil); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestWorkerPoolErrorAbortsRemainingTasks(t *testing.T) {
	p := NewWorkerPool(1) // one worker: strictly sequential execution
	defer p.Close()
	boom := errors.New("boom")
	var executed atomic.Int64
	tasks := make([]Task, 50)
	for i := range tasks {
		// Whichever task the worker happens to execute first fails (the
		// deque is popped LIFO, so it is not necessarily index 0); every
		// later task must then be skipped by the batch abort.
		tasks[i] = Task{Home: 0, Run: func() error {
			if executed.Add(1) == 1 {
				return boom
			}
			return nil
		}}
	}
	if _, err := p.RunBatch(tasks, nil, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := executed.Load(); n != 1 {
		t.Errorf("%d tasks ran despite the first one failing; abort did not take effect", n)
	}
}

func TestWorkerPoolCancellation(t *testing.T) {
	p := NewWorkerPool(2)
	defer p.Close()
	tasks := make([]Task, 10)
	for i := range tasks {
		tasks[i] = Task{Home: i, Run: func() error { return nil }}
	}
	canceled := func() bool { return true }
	if _, err := p.RunBatch(tasks, canceled, nil); !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
}

func TestWorkerPoolObserveReportsSteals(t *testing.T) {
	p := NewWorkerPool(4)
	defer p.Close()
	// All tasks homed on worker 0 with real work: the other three workers
	// have empty deques and must steal to participate.
	var steals, busyCalls atomic.Int64
	tasks := make([]Task, 64)
	for i := range tasks {
		tasks[i] = Task{Home: 0, Run: func() error {
			time.Sleep(200 * time.Microsecond)
			return nil
		}}
	}
	observe := func(worker int, stolen bool, d time.Duration) {
		busyCalls.Add(1)
		if stolen {
			steals.Add(1)
		}
	}
	if _, err := p.RunBatch(tasks, nil, observe); err != nil {
		t.Fatal(err)
	}
	if busyCalls.Load() != 64 {
		t.Errorf("observe called %d times, want 64", busyCalls.Load())
	}
	if steals.Load() == 0 {
		t.Error("no steals observed on a single-home batch with 4 workers")
	}
}

// TestGoroutineRoundStopsAfterError pins the fail-fast behaviour of a
// context without a Runner, whose rounds run on a transient pool: workers
// check the round's abort flag before every task, so one failed partition
// stops the round instead of letting the other workers drain all remaining
// tasks.
func TestGoroutineRoundStopsAfterError(t *testing.T) {
	ctx := NewContext(2)
	parts := make([][]types.Row, 100)
	for i := range parts {
		parts[i] = rows(int64(i))
	}
	d := &Dataset{Parts: parts}
	boom := errors.New("boom")
	var executed atomic.Int64
	_, err := ctx.MapPartitions(d, func(i int, part []types.Row) ([]types.Row, error) {
		// Whichever partition runs first fails (owners pop their deques
		// LIFO, so it is not necessarily partition 0).
		if executed.Add(1) == 1 {
			return nil, boom
		}
		time.Sleep(2 * time.Millisecond)
		return part, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := executed.Load(); n > 10 {
		t.Errorf("%d partitions ran despite the first one failing; round did not fail fast", n)
	}
}

// TestSimulatedMorselMakespan pins the Simulator's honesty contract for
// morsel rounds: the modelled stage duration is the greedy makespan over
// the measured per-morsel durations — not the serial sum — so modelled
// morsel speedups use exactly the same makespan model as whole-partition
// rounds, and the Simulator's Adjustment goes negative by the parallelism
// the model credits.
func TestSimulatedMorselMakespan(t *testing.T) {
	ctx, sim := simContext(4, 0)
	ctx.MorselParallel = true
	ctx.MorselTargetRows = 512
	part := make([]types.Row, 4096)
	for i := range part {
		part[i] = types.Row{types.Int(int64(i))}
	}
	d := &Dataset{Parts: [][]types.Row{part}}
	out, err := ctx.MapPartitionsSplittable(d, func(i int, rows []types.Row, b *skyline.Batch) ([]types.Row, *skyline.Batch, error) {
		time.Sleep(time.Millisecond) // measurable, evenly-sized morsel work
		return rows, nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 4096 {
		t.Fatalf("NumRows = %d, want 4096", out.NumRows())
	}
	if got := ctx.Metrics.Count(Morsels); got != 8 {
		t.Fatalf("morsels executed = %d, want 8 (4096 rows / 512 target)", got)
	}
	st := ctx.Metrics.StageTimes()
	if len(st) != 1 || st[0].Tasks != 8 {
		t.Fatalf("stage times = %+v, want one stage of 8 tasks", st)
	}
	// 8 morsels of ~1ms on 4 simulated workers: makespan ~2ms, serial ~8ms.
	// The adjustment (sim - real) must credit at least half the serial time;
	// a serial-sum regression would make it ~0.
	if adj := sim.Adjustment(); adj > -2*time.Millisecond {
		t.Errorf("Adjustment = %v, want <= -2ms (makespan model, not serial sum)", adj)
	}
	if ap := ctx.Metrics.AchievedParallelism(); ap < 2 {
		t.Errorf("achieved parallelism = %.2f, want >= 2 on 4 simulated workers", ap)
	}
}

// morselSplits runs one splittable MapRanges round over partitions of the
// given sizes and returns each partition's morsel ranges in row order.
func morselSplits(t *testing.T, ctx *Context, sizes []int) [][][2]int {
	t.Helper()
	var mu sync.Mutex
	got := make([][][2]int, len(sizes))
	_, err := ctx.MapRanges(sizes, func(p, lo, hi int) ([]types.Row, *skyline.Batch, error) {
		mu.Lock()
		got[p] = append(got[p], [2]int{lo, hi})
		mu.Unlock()
		return nil, nil, nil
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	for p, bounds := range got {
		sort.Slice(bounds, func(i, j int) bool { return bounds[i][0] < bounds[j][0] })
		next := 0
		for _, b := range bounds {
			if b[0] != next || b[1] <= b[0] {
				t.Fatalf("partition %d: morsels %v do not tile [0, %d)", p, bounds, sizes[p])
			}
			next = b[1]
		}
		if next != sizes[p] {
			t.Fatalf("partition %d: morsels %v end at %d, want %d", p, bounds, next, sizes[p])
		}
	}
	return got
}

// TestMorselBudgetIsPerStage pins the morsel budget to the task round, not
// to each partition: cost.MorselTarget's "about four morsels per executor"
// is taken once over the round's total rows, and every partition at least
// twice that target is split by it.
func TestMorselBudgetIsPerStage(t *testing.T) {
	newCtx := func() *Context {
		ctx := NewContext(4)
		ctx.MorselParallel = true
		return ctx
	}
	counts := func(splits [][][2]int) []int {
		out := make([]int, len(splits))
		for p, b := range splits {
			out[p] = len(b)
		}
		return out
	}

	// Four equal partitions: 16 morsels for the stage (4 per executor), not
	// 16 per partition.
	ctx := newCtx()
	splits := morselSplits(t, ctx, []int{1 << 16, 1 << 16, 1 << 16, 1 << 16})
	if got := ctx.Metrics.Count(Morsels); got != 16 {
		t.Errorf("4 × 65 536 rows at 4 executors: %d morsels, want 16", got)
	}
	for p, n := range counts(splits) {
		if n != 4 {
			t.Errorf("partition %d split into %d morsels, want 4", p, n)
		}
	}

	// One partition: the round's total is the partition, so it splits
	// exactly as the per-partition rule did.
	ctx = newCtx()
	splits = morselSplits(t, ctx, []int{1 << 16})
	want := evenChunkBounds(1<<16, (1<<16)/cost.MorselTarget(1<<16, 4))
	if len(splits[0]) != len(want) || len(want) != 16 {
		t.Fatalf("one partition: morsels %v, want %v", splits[0], want)
	}
	for i := range want {
		if splits[0][i] != want[i] {
			t.Fatalf("one partition: morsel %d is %v, want %v", i, splits[0][i], want[i])
		}
	}

	// Skewed: only the partition of at least twice the stage target splits.
	ctx = newCtx()
	sizes := []int{100000, 5000, 5000, 5000}
	target := cost.MorselTarget(115000, 4)
	splits = morselSplits(t, ctx, sizes)
	got := counts(splits)
	if wantBig := (100000 + target - 1) / target; got[0] != wantBig || got[1] != 1 || got[2] != 1 || got[3] != 1 {
		t.Errorf("skewed round split into %v morsels, want [%d 1 1 1]", got, wantBig)
	}

	// MorselTargetRows still overrides the stage target.
	ctx = newCtx()
	ctx.MorselTargetRows = 8192
	morselSplits(t, ctx, []int{1 << 16, 1 << 16, 1 << 16, 1 << 16})
	if got := ctx.Metrics.Count(Morsels); got != 32 {
		t.Errorf("MorselTargetRows = 8192: %d morsels, want 32", got)
	}
}

// TestMorselStealingOnSkewedPartitions runs a real pool over a skewed
// layout — one hot partition among trivial ones — and asserts the morsel
// runtime actually rebalances: the hot partition splits into morsels, idle
// workers steal them, and the output matches serial execution exactly.
//
// The steal is made certain, not likely: the first hot morsel to start
// holds its worker until a second hot morsel has started. Every hot morsel
// is homed on one worker's deque, so whichever worker holds the first, the
// second can only start on another worker — a steal — and without one the
// round fails after 10 s.
func TestMorselStealingOnSkewedPartitions(t *testing.T) {
	hot := make([]types.Row, 4096)
	for i := range hot {
		hot[i] = types.Row{types.Int(int64(i))}
	}
	parts := [][]types.Row{hot, rows(1), rows(2), rows(3)}
	fn := func(i int, part []types.Row, b *skyline.Batch) ([]types.Row, *skyline.Batch, error) {
		out := make([]types.Row, len(part))
		for j, r := range part {
			out[j] = types.Row{types.Int(r[0].AsInt() * 2)}
		}
		return out, nil, nil
	}
	var hotStarted atomic.Int32
	secondStarted := make(chan struct{})
	gated := func(i int, part []types.Row, b *skyline.Batch) ([]types.Row, *skyline.Batch, error) {
		if i == 0 {
			switch hotStarted.Add(1) {
			case 1:
				select {
				case <-secondStarted:
				case <-time.After(10 * time.Second):
					return nil, nil, errors.New("no second hot morsel started within 10 s: nothing was stolen")
				}
			case 2:
				close(secondStarted)
			}
		}
		return fn(i, part, b)
	}

	serialCtx := NewContext(1)
	want, err := serialCtx.MapPartitionsSplittable(&Dataset{Parts: parts}, fn)
	if err != nil {
		t.Fatal(err)
	}

	pool := NewWorkerPool(4)
	defer pool.Close()
	ctx := NewContext(4)
	ctx.Runner = pool
	ctx.MorselParallel = true
	ctx.MorselTargetRows = 256
	got, err := ctx.MapPartitionsSplittable(&Dataset{Parts: parts}, gated)
	if err != nil {
		t.Fatal(err)
	}

	if ctx.Metrics.Count(Morsels) <= int64(len(parts)) {
		t.Errorf("morsels executed = %d, want > %d (hot partition must split)",
			ctx.Metrics.Count(Morsels), len(parts))
	}
	if ctx.Metrics.Count(Steals) == 0 {
		t.Error("steals = 0: idle workers never rebalanced the hot partition's morsels")
	}
	wr, gr := want.Gather(), got.Gather()
	if len(wr) != len(gr) {
		t.Fatalf("row count: serial %d, morsel-parallel %d", len(wr), len(gr))
	}
	for i := range wr {
		if wr[i][0].AsInt() != gr[i][0].AsInt() {
			t.Fatalf("row %d: serial %v, morsel-parallel %v", i, wr[i][0], gr[i][0])
		}
	}
}
