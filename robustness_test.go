package skysql_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"skysql"
	"skysql/internal/catalog"
	"skysql/internal/chaos"
	"skysql/internal/cluster"
	"skysql/internal/core"
	"skysql/internal/datagen"
	"skysql/internal/physical"
)

// wideSession builds a session over a table large enough that queries
// schedule real multi-task rounds on the session's worker pool.
func wideSession(t testing.TB, opts ...skysql.Option) *skysql.Session {
	sess := skysql.NewSession(opts...)
	t.Cleanup(sess.Close)
	if err := sess.CreateTable("wide", wideSchema(), wideRows()); err != nil {
		t.Fatal(err)
	}
	return sess
}

func wideSchema() *skysql.Schema {
	return skysql.NewSchema(
		skysql.Field{Name: "a", Type: skysql.KindInt},
		skysql.Field{Name: "b", Type: skysql.KindInt},
		skysql.Field{Name: "c", Type: skysql.KindInt},
	)
}

func wideRows() []skysql.Row {
	r := rand.New(rand.NewSource(17))
	rows := make([]skysql.Row, 600)
	for i := range rows {
		rows[i] = skysql.Row{
			skysql.Int(int64(r.Intn(40))),
			skysql.Int(int64(r.Intn(40))),
			skysql.Int(int64(r.Intn(5))),
		}
	}
	return rows
}

const wideSkyline = "SELECT a, b FROM wide WHERE c < 4 SKYLINE OF a MIN, b MAX"

// TestFaultInjectionBitIdentical is the public-API chaos contract: a
// session with deterministic fault injection at rate 0.3 must return
// exactly the rows of a fault-free session, with the injected faults and
// retries visible in the metrics — and repeat runs must reproduce the
// counters bit-for-bit.
func TestFaultInjectionBitIdentical(t *testing.T) {
	clean := wideSession(t)
	want, err := clean.Query(wideSkyline)
	if err != nil {
		t.Fatal(err)
	}

	// Seed 2 deterministically injects faults for this plan's task keys;
	// most seeds draw none over so few (stage, partition) tuples, and the
	// reproducibility assertion below needs non-zero counters to mean
	// anything.
	cfg := skysql.FaultInjection{
		Seed:            2,
		FaultRate:       0.3,
		StragglerRate:   0.05,
		StragglerDelay:  50 * time.Microsecond,
		AllocSpikeRate:  0.05,
		AllocSpikeBytes: 1 << 16,
	}
	var faults, retries int64
	for run := 0; run < 3; run++ {
		chaotic := wideSession(t, skysql.WithFaultInjection(cfg), skysql.WithTaskRetries(12))
		df, err := chaotic.SQL(wideSkyline)
		if err != nil {
			t.Fatal(err)
		}
		got, err := df.Collect()
		if err != nil {
			t.Fatalf("run %d: chaotic collect: %v", run, err)
		}
		if fmt.Sprint(rowsToStrings(got)) != fmt.Sprint(rowsToStrings(want)) {
			t.Fatalf("run %d: chaotic rows differ:\n got %v\nwant %v", run, got, want)
		}
		m := df.Metrics()
		if run == 0 {
			faults, retries = m.Count(skysql.InjectedFaults), m.Count(skysql.TaskRetries)
			if faults == 0 {
				t.Fatal("injector fired no faults at rate 0.3")
			}
		} else if m.Count(skysql.InjectedFaults) != faults || m.Count(skysql.TaskRetries) != retries {
			t.Errorf("run %d: counters (%d, %d) != run 0 (%d, %d) — chaos not reproducible",
				run, m.Count(skysql.InjectedFaults), m.Count(skysql.TaskRetries), faults, retries)
		}
	}
}

// TestFaultInjectionSimulated repeats the contract on the makespan model
// (cluster.Simulator), where rounds run serially — the injector must behave
// identically, and the rows must match a fault-free session's.
func TestFaultInjectionSimulated(t *testing.T) {
	want, err := wideSession(t).Query(wideSkyline)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := catalog.NewTable("wide", wideSchema(), wideRows())
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	cat.Register(tab)
	eng := core.NewEngine(cat)
	compiled, err := eng.CompileSQL(wideSkyline, physical.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := cluster.NewContext(4)
	ctx.Runner = &cluster.Simulator{Executors: 4}
	ctx.AdaptiveExchange = true
	ctx.MorselParallel = true
	ctx.Injector = chaos.New(chaos.Config{Seed: 2, FaultRate: 0.3})
	ctx.MaxTaskRetries = 12
	res, err := eng.RunCtx(compiled, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rowsToStrings(res.Rows)) != fmt.Sprint(rowsToStrings(want)) {
		t.Fatalf("simulated chaotic rows differ:\n got %v\nwant %v", res.Rows, want)
	}
	if ctx.Metrics.Count(skysql.InjectedFaults) == 0 {
		t.Error("injector fired no faults at rate 0.3")
	}
}

// TestRetryExhaustionSurfacesTaskError pins the error-propagation
// satellite: at fault rate 1 every attempt of some task fails, and the
// error out of Collect must be a TaskError naming the failed work unit —
// not a bare ErrCanceled.
func TestRetryExhaustionSurfacesTaskError(t *testing.T) {
	sess := wideSession(t,
		skysql.WithFaultInjection(skysql.FaultInjection{Seed: 1, FaultRate: 1}),
		skysql.WithTaskRetries(2))
	_, err := sess.Query(wideSkyline)
	if err == nil {
		t.Fatal("rate-1 injection with a budget of 2 retries must fail")
	}
	var te *skysql.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("error %v does not carry a TaskError", err)
	}
	if te.Attempts != 3 || te.Stage < 1 {
		t.Errorf("TaskError = %+v, want 3 attempts on a real stage", te)
	}
	if errors.Is(err, skysql.ErrCanceled) {
		t.Errorf("permanent task failure surfaced as cancellation: %v", err)
	}
}

// TestQueryTimeout checks WithQueryTimeout cancels a running query and the
// error wraps both sentinels.
func TestQueryTimeout(t *testing.T) {
	sess := wideSession(t, skysql.WithQueryTimeout(200*time.Microsecond),
		// Stragglers stretch every task so the deadline reliably lands
		// mid-run without a huge dataset.
		skysql.WithFaultInjection(skysql.FaultInjection{Seed: 2, StragglerRate: 1, StragglerDelay: 5 * time.Millisecond}))
	_, err := sess.Query("SELECT a, b FROM wide SKYLINE OF a MIN, b MAX")
	if err == nil {
		t.Fatal("query outlived a 200µs deadline with 5ms stragglers")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout error %v does not wrap context.DeadlineExceeded", err)
	}
	if !errors.Is(err, skysql.ErrCanceled) {
		t.Errorf("timeout error %v does not wrap ErrCanceled", err)
	}
}

// TestCollectContext checks per-call contexts: a canceled context fails
// immediately, an unconstrained one collects normally.
func TestCollectContext(t *testing.T) {
	sess := wideSession(t)
	df, err := sess.SQL(wideSkyline)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := df.CollectContext(canceled); !errors.Is(err, context.Canceled) || !errors.Is(err, skysql.ErrCanceled) {
		t.Errorf("pre-canceled collect returned %v, want both cancellation sentinels", err)
	}
	rows, err := df.CollectContext(context.Background())
	if err != nil {
		t.Fatalf("plain CollectContext: %v", err)
	}
	if len(rows) == 0 {
		t.Error("empty skyline")
	}
}

// TestMemoryBudgetDegradesGracefully sizes a budget between the soft
// thresholds and the observed peak: the query must still succeed with
// identical rows, sidecars dropped and the degradation steps on record.
func TestMemoryBudgetDegradesGracefully(t *testing.T) {
	free := wideSession(t)
	df, err := free.SQL(wideSkyline)
	if err != nil {
		t.Fatal(err)
	}
	want, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	peak := df.Metrics().PeakBytes()
	if peak == 0 {
		t.Fatal("unbudgeted run recorded no peak bytes")
	}

	sess := wideSession(t, skysql.WithMemoryBudget(peak+peak/4))
	bdf, err := sess.SQL(wideSkyline)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bdf.Collect()
	if err != nil {
		t.Fatalf("budgeted collect: %v", err)
	}
	if fmt.Sprint(rowsToStrings(got)) != fmt.Sprint(rowsToStrings(want)) {
		t.Fatalf("degraded rows differ:\n got %v\nwant %v", got, want)
	}
	m := bdf.Metrics()
	if m.Count(skysql.DegradationSteps) == 0 {
		t.Error("budget near the peak never degraded — tighten the test budget")
	}
	if m.PeakBytes() > peak+peak/4 {
		t.Errorf("degraded run peaked at %d bytes over its %d budget", m.PeakBytes(), peak+peak/4)
	}

	// The session-wide governor at exactly a serial run's unbudgeted peak:
	// 20 000 anti-correlated rows on one executor with morsels off, so the
	// checkpoints see the same live bytes every run. They pass the first
	// rung of the global ladder but not the second, so the query takes
	// exactly one step, drop-sidecars, and answers the same rows.
	tab := datagen.Synthetic(datagen.AntiCorrelated, 20000, 4, datagen.Config{Seed: 1, Complete: true})
	const anti = "SELECT * FROM t SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN"
	serial := func(globalBudget int64) ([]skysql.Row, *skysql.Metrics) {
		sess := skysql.NewSession(skysql.WithExecutors(1), skysql.WithoutMorselParallelism(),
			skysql.WithGlobalMemoryBudget(globalBudget))
		t.Cleanup(sess.Close)
		if err := sess.CreateTable("t", tab.Schema, tab.Rows); err != nil {
			t.Fatal(err)
		}
		df, err := sess.SQL(anti)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := df.Collect()
		if err != nil {
			t.Fatalf("global budget %d: %v", globalBudget, err)
		}
		return rows, df.Metrics()
	}
	ref, rm := serial(0)
	gov, gm := serial(rm.PeakBytes())
	if fmt.Sprint(rowsToStrings(gov)) != fmt.Sprint(rowsToStrings(ref)) {
		t.Errorf("governed rows differ from the unbudgeted run (%d vs %d rows)", len(gov), len(ref))
	}
	if steps := gm.Degradations(); len(steps) != 1 || !strings.HasPrefix(steps[0], "drop-sidecars") {
		t.Errorf("global budget at the peak took steps %q, want exactly one drop-sidecars", steps)
	}
}

// TestMemoryBudgetExceededFails pins the hard limit: a budget far below
// any feasible footprint fails with ErrMemoryBudget after degrading.
func TestMemoryBudgetExceededFails(t *testing.T) {
	sess := wideSession(t, skysql.WithMemoryBudget(64))
	_, err := sess.Query(wideSkyline)
	if !errors.Is(err, skysql.ErrMemoryBudget) {
		t.Fatalf("64-byte budget returned %v, want ErrMemoryBudget", err)
	}
}
