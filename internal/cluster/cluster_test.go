package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"skysql/internal/types"
)

func rows(vals ...int64) []types.Row {
	out := make([]types.Row, len(vals))
	for i, v := range vals {
		out[i] = types.Row{types.Int(v)}
	}
	return out
}

func TestDatasetBasics(t *testing.T) {
	d := NewDataset(rows(1, 2), rows(3))
	if d.NumRows() != 3 {
		t.Errorf("NumRows = %d", d.NumRows())
	}
	if g := d.Gather(); len(g) != 3 {
		t.Errorf("Gather = %d rows", len(g))
	}
	if d.MemSize() <= 0 {
		t.Error("MemSize must be positive")
	}
}

func TestMapPartitionsParallelAndOrdered(t *testing.T) {
	ctx := NewContext(4)
	d := NewDataset(rows(1), rows(2), rows(3), rows(4), rows(5))
	out, err := ctx.MapPartitions(d, func(i int, part []types.Row) ([]types.Row, error) {
		v := part[0][0].AsInt()
		return rows(v * 10), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{10, 20, 30, 40, 50} {
		if out.Parts[i][0][0].AsInt() != want {
			t.Errorf("partition %d = %v, want %d", i, out.Parts[i][0][0], want)
		}
	}
}

func TestMapPartitionsError(t *testing.T) {
	ctx := NewContext(2)
	d := NewDataset(rows(1), rows(2))
	boom := errors.New("boom")
	_, err := ctx.MapPartitions(d, func(i int, part []types.Row) ([]types.Row, error) {
		if i == 1 {
			return nil, boom
		}
		return part, nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestMapPartitionsEmpty(t *testing.T) {
	ctx := NewContext(2)
	out, err := ctx.MapPartitions(&Dataset{}, func(i int, p []types.Row) ([]types.Row, error) { return p, nil })
	if err != nil || out.NumRows() != 0 {
		t.Errorf("empty map = %v, %v", out, err)
	}
}

func TestExchangeAllTuples(t *testing.T) {
	ctx := NewContext(3)
	d := NewDataset(rows(1, 2), rows(3))
	out, err := ctx.Exchange(d, AllTuples, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Parts) != 1 || len(out.Parts[0]) != 3 {
		t.Errorf("AllTuples = %d parts, %d rows", len(out.Parts), out.NumRows())
	}
	if ctx.Metrics.Count(RowsShuffled) != 3 {
		t.Errorf("shuffled = %d, want 3", ctx.Metrics.Count(RowsShuffled))
	}
}

func TestExchangeUnspecified(t *testing.T) {
	ctx := NewContext(3)
	d := NewDataset(rows(1, 2, 3, 4, 5, 6, 7))
	out, err := ctx.Exchange(d, Unspecified, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Parts) != 3 {
		t.Fatalf("parts = %d, want 3", len(out.Parts))
	}
	if out.NumRows() != 7 {
		t.Errorf("rows lost: %d", out.NumRows())
	}
	for _, p := range out.Parts {
		if len(p) == 0 {
			t.Error("empty partition produced")
		}
	}
}

func TestExchangeUnspecifiedFewRows(t *testing.T) {
	ctx := NewContext(10)
	out, err := ctx.Exchange(NewDataset(rows(1, 2)), Unspecified, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Parts) > 2 {
		t.Errorf("more partitions than rows: %d", len(out.Parts))
	}
}

func TestExchangeNullBitmap(t *testing.T) {
	ctx := NewContext(4)
	data := []types.Row{
		{types.Int(1), types.Null},
		{types.Int(2), types.Int(5)},
		{types.Int(3), types.Null},
		{types.Null, types.Int(6)},
	}
	key := func(r types.Row) (types.Row, error) { return r, nil }
	out, err := ctx.Exchange(NewDataset(data), NullBitmap, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Parts) != 3 {
		t.Fatalf("bitmap partitions = %d, want 3", len(out.Parts))
	}
	if out.NumRows() != 4 {
		t.Errorf("rows lost: %d", out.NumRows())
	}
}

func TestExchangeNullBitmapRequiresKey(t *testing.T) {
	ctx := NewContext(1)
	if _, err := ctx.Exchange(NewDataset(rows(1)), NullBitmap, nil); err == nil {
		t.Error("missing key must error")
	}
	if _, err := ctx.Exchange(NewDataset(rows(1)), Hash, nil); err == nil {
		t.Error("missing hash key must error")
	}
}

func TestExchangeHash(t *testing.T) {
	ctx := NewContext(4)
	d := NewDataset(rows(1, 2, 3, 4, 5, 6, 7, 8, 1, 2))
	key := func(r types.Row) (types.Row, error) { return r, nil }
	out, err := ctx.Exchange(d, Hash, key)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 10 {
		t.Fatalf("rows lost: %d", out.NumRows())
	}
	// Same key must land in the same partition.
	find := func(v int64) int {
		for i, p := range out.Parts {
			for _, r := range p {
				if r[0].AsInt() == v {
					return i
				}
			}
		}
		return -1
	}
	if find(1) == -1 {
		t.Fatal("value 1 lost")
	}
	// Both 1s and both 2s co-located (they appear twice each).
	for _, p := range out.Parts {
		count1, count2 := 0, 0
		for _, r := range p {
			if r[0].AsInt() == 1 {
				count1++
			}
			if r[0].AsInt() == 2 {
				count2++
			}
		}
		if count1 == 1 || count2 == 1 {
			t.Error("equal keys split across partitions")
		}
	}
}

func TestMetricsPeak(t *testing.T) {
	m := &Metrics{}
	m.Alloc(100)
	m.Alloc(50)
	m.Free(100)
	m.Alloc(10)
	if m.PeakBytes() != 150 {
		t.Errorf("peak = %d, want 150", m.PeakBytes())
	}
	var nilM *Metrics
	nilM.Alloc(1)
	nilM.Free(1)
	if nilM.PeakBytes() != 0 || nilM.Count(RowsShuffled) != 0 {
		t.Error("nil metrics must read zero")
	}
}

func TestNewContextMinimumOneExecutor(t *testing.T) {
	if NewContext(0).Executors != 1 {
		t.Error("executor floor must be 1")
	}
}

func TestMakespan(t *testing.T) {
	d := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	tests := []struct {
		tasks []time.Duration
		k     int
		want  time.Duration
	}{
		{[]time.Duration{d(10), d(10), d(10), d(10)}, 1, d(40)},
		{[]time.Duration{d(10), d(10), d(10), d(10)}, 2, d(20)},
		{[]time.Duration{d(10), d(10), d(10), d(10)}, 4, d(10)},
		{[]time.Duration{d(10), d(10), d(10), d(10)}, 8, d(10)}, // k > tasks
		{[]time.Duration{d(30), d(10), d(10)}, 2, d(30)},        // straggler dominates
		{nil, 3, 0},
		{[]time.Duration{d(5)}, 0, d(5)}, // k floor of 1
	}
	for _, tt := range tests {
		if got, _ := makespan(tt.tasks, tt.k); got != tt.want {
			t.Errorf("makespan(%v, %d) = %v, want %v", tt.tasks, tt.k, got, tt.want)
		}
	}
}

// simContext returns a context whose rounds run on a Simulator of the
// context's executor count.
func simContext(executors int, overhead time.Duration) (*Context, *Simulator) {
	ctx := NewContext(executors)
	sim := &Simulator{Executors: executors, TaskOverhead: overhead}
	ctx.Runner = sim
	return ctx, sim
}

func TestSimulatedMapPartitions(t *testing.T) {
	ctx, sim := simContext(4, 0)
	d := NewDataset(rows(1), rows(2), rows(3), rows(4))
	out, err := ctx.MapPartitions(d, func(i int, part []types.Row) ([]types.Row, error) {
		time.Sleep(2 * time.Millisecond)
		return part, nil
	})
	if err != nil || out.NumRows() != 4 {
		t.Fatalf("simulated map: %v %v", out, err)
	}
	// 4 tasks of ~2ms on 4 workers → makespan ~2ms; serial real ~8ms;
	// adjustment must be negative (simulation is faster than serial).
	if sim.Adjustment() >= 0 {
		t.Errorf("Adjustment = %v, want negative", sim.Adjustment())
	}
	// With 1 executor the adjustment must be ~TaskOverhead only.
	ctx1, sim1 := simContext(1, 0)
	if _, err := ctx1.MapPartitions(d, func(i int, part []types.Row) ([]types.Row, error) {
		return part, nil
	}); err != nil {
		t.Fatal(err)
	}
	if sim1.Adjustment() < 0 {
		t.Errorf("1-executor Adjustment = %v, want >= 0", sim1.Adjustment())
	}
}

func TestSimulatedCancel(t *testing.T) {
	ctx, _ := simContext(2, 0)
	ctx.Cancel()
	_, err := ctx.MapPartitions(NewDataset(rows(1)), func(i int, p []types.Row) ([]types.Row, error) {
		return p, nil
	})
	if err == nil {
		t.Error("canceled simulated map must error")
	}
}

func TestStagesExecutedCountsTaskRounds(t *testing.T) {
	ctx := NewContext(2)
	d := NewDataset(rows(1), rows(2))
	identity := func(i int, p []types.Row) ([]types.Row, error) { return p, nil }
	if _, err := ctx.MapPartitions(d, identity); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.MapPartitions(d, identity); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Metrics.Count(Stages); got != 2 {
		t.Errorf("stages = %d, want 2", got)
	}
	// Empty datasets schedule no tasks and count no stage.
	if _, err := ctx.MapPartitions(&Dataset{}, identity); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Metrics.Count(Stages); got != 2 {
		t.Errorf("stages after empty round = %d, want 2", got)
	}
	var nilM *Metrics
	nilM.Add(Stages, 1)
	if nilM.Count(Stages) != 0 {
		t.Error("nil metrics must report 0 stages")
	}
}

func TestStageTimesRecorded(t *testing.T) {
	ctx := NewContext(2)
	ds := NewDataset([]types.Row{{types.Int(1)}}, []types.Row{{types.Int(2)}})
	if _, err := ctx.MapPartitions(ds, func(_ int, p []types.Row) ([]types.Row, error) {
		return p, nil
	}); err != nil {
		t.Fatal(err)
	}
	times := ctx.Metrics.StageTimes()
	if len(times) != 1 {
		t.Fatalf("stage times = %d, want 1", len(times))
	}
	if times[0].Tasks != 2 {
		t.Errorf("tasks = %d, want 2", times[0].Tasks)
	}
	if s := ctx.Metrics.Report(); !strings.Contains(s, "stage  1:    2 task(s)") {
		t.Errorf("Report must render the stage breakdown:\n%s", s)
	}
	var nilM *Metrics
	nilM.AddStageTime(1, time.Second) // must not panic
	if nilM.StageTimes() != nil {
		t.Error("nil metrics must read as empty")
	}
}

func TestStageTimesSimulatedUseMakespan(t *testing.T) {
	ctx, _ := simContext(2, time.Millisecond)
	ds := NewDataset([]types.Row{{types.Int(1)}}, []types.Row{{types.Int(2)}}, []types.Row{{types.Int(3)}})
	if _, err := ctx.MapPartitions(ds, func(_ int, p []types.Row) ([]types.Row, error) {
		return p, nil
	}); err != nil {
		t.Fatal(err)
	}
	times := ctx.Metrics.StageTimes()
	if len(times) != 1 || times[0].Tasks != 3 {
		t.Fatalf("stage times = %v", times)
	}
	// 3 tasks of ~1ms overhead on 2 workers: makespan ≈ 2ms ≥ 2×overhead.
	if times[0].Elapsed < 2*time.Millisecond {
		t.Errorf("simulated makespan = %v, want ≥ 2ms", times[0].Elapsed)
	}
}
