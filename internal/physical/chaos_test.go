package physical

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"skysql/internal/chaos"
	"skysql/internal/cluster"
	"skysql/internal/expr"
	"skysql/internal/plan"
	"skysql/internal/types"
)

// chaosCtx builds an execution context with deterministic fault injection
// at the given rate and a retry budget deep enough that permanent failure
// is (deterministically) impossible at the swept rates. The seed varies
// per sweep cell: decisions are pure functions of (seed, stage, task,
// attempt) and every plan here reuses the same few small key tuples, so a
// shared seed would make all cells draw the same verdicts instead of
// sampling the key space.
func chaosCtx(executors int, seed int64, rate float64) *cluster.Context {
	ctx := cluster.NewContext(executors)
	ctx.Injector = chaos.New(chaos.Config{
		Seed:            seed,
		FaultRate:       rate,
		StragglerRate:   0.05,
		StragglerDelay:  50 * time.Microsecond,
		AllocSpikeRate:  0.05,
		AllocSpikeBytes: 1 << 16,
	})
	ctx.MaxTaskRetries = 12
	ctx.RetryBackoff = time.Microsecond
	return ctx
}

// TestChaosContractAllStrategies is the fault-tolerance contract of the
// runtime: with deterministic fault injection at rates up to 0.3 — plus
// straggler delays and allocation spikes — a retried run must be
// row-for-row identical to the fault-free run of the same plan, across
// every SkylineStrategy × kernel ablation. Re-execution is lineage-safe
// because tasks are pure per-partition closures; this test is what makes
// that claim load-bearing.
func TestChaosContractAllStrategies(t *testing.T) {
	ablations := []struct {
		name string
		opts Options
	}{
		{"full", Options{}},
		{"boxed-kernel", Options{DisableColumnarKernel: true}},
	}

	r := rand.New(rand.NewSource(41))
	nRows := 160
	data := make([][]int64, nRows)
	for i := range data {
		data[i] = []int64{int64(r.Intn(15)), int64(r.Intn(15)), int64(r.Intn(4))}
	}
	tab := intTable(t, "chaostab", []string{"a", "b", "c"}, data)
	tab.Schema.Fields[0].Nullable = true
	for i := 0; i < nRows; i += 7 {
		tab.Rows[i][0] = types.Null
	}
	scan := plan.NewScan(tab, "chaostab")
	dims := []*expr.SkylineDimension{
		expr.NewSkylineDimension(expr.NewBoundRef(0, "a", types.KindInt, true), expr.SkyMin),
		expr.NewSkylineDimension(expr.NewBoundRef(1, "b", types.KindInt, false), expr.SkyMax),
		expr.NewSkylineDimension(expr.NewBoundRef(2, "c", types.KindInt, false), expr.SkyDiff),
	}
	sky := plan.NewSkylineOperator(false, false, dims, scan)

	faultsAtRate := map[float64]int64{}
	seed := int64(0)
	for _, st := range allStrategies {
		for _, ab := range ablations {
			opts := ab.opts
			opts.Strategy = st
			op, err := Plan(sky, opts)
			if err != nil {
				t.Fatalf("%v/%s: plan: %v", st, ab.name, err)
			}
			clean, err := Execute(op, cluster.NewContext(4))
			if err != nil {
				t.Fatalf("%v/%s: fault-free execute: %v", st, ab.name, err)
			}
			for _, rate := range []float64{0.15, 0.3} {
				seed++
				label := fmt.Sprintf("%v/%s/rate=%.2f", st, ab.name, rate)
				ctx := chaosCtx(4, seed, rate)
				got, err := Execute(op, ctx)
				if err != nil {
					t.Fatalf("%s: chaos execute: %v", label, err)
				}
				assertSameRows(t, label, clean, got)
				faultsAtRate[rate] += ctx.Metrics.InjectedFaults()
				if ctx.Metrics.TaskRetries() < ctx.Metrics.InjectedFaults() {
					t.Errorf("%s: %d faults but only %d retries", label,
						ctx.Metrics.InjectedFaults(), ctx.Metrics.TaskRetries())
				}
				if ctx.Metrics.TasksFailed() != 0 {
					t.Errorf("%s: %d tasks failed permanently under a 12-retry budget", label,
						ctx.Metrics.TasksFailed())
				}
			}
		}
	}
	// A single small plan can escape injection (few tasks, 0.85^n odds);
	// the sweep as a whole must not, or the contract tested nothing.
	for rate, faults := range faultsAtRate {
		if faults == 0 {
			t.Errorf("rate %.2f: zero faults injected across the whole sweep", rate)
		}
	}
}

// TestChaosContractMorselParallel repeats the contract at rate 0.3 with
// morsel-granular splitting on the real work-stealing pool — the path
// where retry, work stealing, and cancellation re-checks interleave.
func TestChaosContractMorselParallel(t *testing.T) {
	strategies := []SkylineStrategy{
		SkylineAuto, SkylineDistributedComplete, SkylineNonDistributedComplete,
		SkylineGridComplete, SkylineZorderComplete,
	}
	r := rand.New(rand.NewSource(43))
	nRows := 400
	data := make([][]int64, nRows)
	for i := range data {
		data[i] = []int64{int64(r.Intn(30)), int64(r.Intn(30))}
	}
	tab := intTable(t, "chaosmorsel", []string{"a", "b"}, data)
	scan := plan.NewScan(tab, "chaosmorsel")
	dims := []*expr.SkylineDimension{
		expr.NewSkylineDimension(expr.NewBoundRef(0, "a", types.KindInt, false), expr.SkyMin),
		expr.NewSkylineDimension(expr.NewBoundRef(1, "b", types.KindInt, false), expr.SkyMax),
	}
	sky := plan.NewSkylineOperator(false, false, dims, scan)

	pool := cluster.NewWorkerPool(4)
	defer pool.Close()
	for _, st := range strategies {
		op, err := Plan(sky, Options{Strategy: st})
		if err != nil {
			t.Fatalf("%v: plan: %v", st, err)
		}
		clean, err := Execute(op, cluster.NewContext(4))
		if err != nil {
			t.Fatalf("%v: fault-free execute: %v", st, err)
		}
		ctx := chaosCtx(4, 7, 0.3)
		ctx.Runner = pool
		ctx.MorselParallel = true
		ctx.MorselTargetRows = 64
		got, err := Execute(op, ctx)
		if err != nil {
			t.Fatalf("%v: chaos morsel execute: %v", st, err)
		}
		assertSameRows(t, fmt.Sprintf("%v/morsel", st), clean, got)
		if ctx.Metrics.InjectedFaults() == 0 {
			t.Errorf("%v: no faults injected on the morsel path", st)
		}
	}
}

// TestChaosMemoryDegradationBitIdentical checks the governor's graceful
// path: a budget tight enough to drop sidecars and collapse fan-out — but
// not to fail — must leave results row-for-row identical to the
// unbudgeted run, with the degradation steps on record.
func TestChaosMemoryDegradationBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	nRows := 300
	data := make([][]int64, nRows)
	for i := range data {
		data[i] = []int64{int64(r.Intn(25)), int64(r.Intn(25))}
	}
	tab := intTable(t, "chaosbudget", []string{"a", "b"}, data)
	scan := plan.NewScan(tab, "chaosbudget")
	dims := []*expr.SkylineDimension{
		expr.NewSkylineDimension(expr.NewBoundRef(0, "a", types.KindInt, false), expr.SkyMin),
		expr.NewSkylineDimension(expr.NewBoundRef(1, "b", types.KindInt, false), expr.SkyMin),
	}
	sky := plan.NewSkylineOperator(false, false, dims, scan)
	op, err := Plan(sky, Options{Strategy: SkylineDistributedComplete})
	if err != nil {
		t.Fatal(err)
	}
	free, err := Execute(op, cluster.NewContext(4))
	if err != nil {
		t.Fatal(err)
	}

	probe := cluster.NewContext(4)
	if _, err := Execute(op, probe); err != nil {
		t.Fatal(err)
	}
	peak := probe.Metrics.PeakBytes()
	if peak == 0 {
		t.Fatal("probe run recorded no peak bytes")
	}

	ctx := cluster.NewContext(4)
	// A budget just above the observed peak: the 60%/80% soft thresholds
	// trip (degrading the plan) but the hard limit never does.
	ctx.MemoryBudget = peak + peak/4
	got, err := Execute(op, ctx)
	if err != nil {
		t.Fatalf("budgeted execute: %v", err)
	}
	assertSameRows(t, "memory-degraded", free, got)
	if ctx.Metrics.DegradationSteps() == 0 {
		t.Error("budget never degraded — the test exercised nothing; tighten the budget")
	}
	if !ctx.SidecarsDropped() {
		t.Error("degradation did not drop sidecars")
	}
}
