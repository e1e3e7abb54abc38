package physical

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"skysql/internal/cluster"
	"skysql/internal/expr"
	"skysql/internal/plan"
	"skysql/internal/types"
)

// columnarSkylinePlan builds the logical plan of a two-dimension skyline
// over a fresh random numeric table.
func columnarSkylinePlan(t *testing.T, name string, nRows int) *plan.SkylineOperator {
	t.Helper()
	r := rand.New(rand.NewSource(31))
	data := make([][]int64, nRows)
	for i := range data {
		data[i] = []int64{int64(r.Intn(40)), int64(r.Intn(40))}
	}
	tab := intTable(t, name, []string{"a", "b"}, data)
	dims := []*expr.SkylineDimension{
		expr.NewSkylineDimension(expr.NewBoundRef(0, "a", types.KindInt, false), expr.SkyMin),
		expr.NewSkylineDimension(expr.NewBoundRef(1, "b", types.KindInt, false), expr.SkyMax),
	}
	return plan.NewSkylineOperator(false, false, dims, plan.NewScan(tab, name))
}

// TestLocalGlobalSkylineDecodesOncePerPartition is the decode-freeness
// regression of the columnar data plane: on a local→global skyline plan
// with the kernel enabled, every input partition is decoded exactly once
// (by the local skyline, or by the partitioning exchange for the §7
// schemes) and the AllTuples gather plus the global pass reuse the batch
// sidecars — BatchesDecoded equals the input partition count, where the
// sidecar-less kernel of PR 2 paid one more decode at the global hop.
func TestLocalGlobalSkylineDecodesOncePerPartition(t *testing.T) {
	const executors = 4
	const nRows = 120 // splitEven gives exactly `executors` input partitions
	strategies := []SkylineStrategy{
		SkylineDistributedComplete, SkylineGridComplete,
		SkylineAngleComplete, SkylineZorderComplete,
	}
	for _, st := range strategies {
		sky := columnarSkylinePlan(t, fmt.Sprintf("dec_%v", st), nRows)
		op, err := Plan(sky, Options{Strategy: st})
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		ctx := cluster.NewContext(executors)
		rows, err := Execute(op, ctx)
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if len(rows) == 0 {
			t.Fatalf("%v: empty skyline", st)
		}
		if got := ctx.Metrics.BatchesDecoded(); got != executors {
			t.Errorf("%v: BatchesDecoded = %d, want %d (one per input partition)", st, got, executors)
		}

		// The sidecar-disabled plan must stay bit-identical.
		boxedOp, err := Plan(sky, Options{Strategy: st, DisableColumnarKernel: true})
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		bctx := cluster.NewContext(executors)
		boxed, err := Execute(boxedOp, bctx)
		if err != nil {
			t.Fatalf("%v boxed: %v", st, err)
		}
		assertSameRows(t, fmt.Sprintf("sidecar on/off %v", st), boxed, rows)
		if got := bctx.Metrics.BatchesDecoded(); got != 0 {
			t.Errorf("%v: boxed path decoded %d batches, want 0", st, got)
		}
	}
}

// TestAdaptiveExchangeResultsUnchanged pins that adaptive post-exchange
// partitioning changes only the task layout, never the skyline: the result
// multiset matches the static plan for every strategy, partition counts
// collapse below the executor count, and the decisions are recorded.
func TestAdaptiveExchangeResultsUnchanged(t *testing.T) {
	const executors = 6
	const nRows = 90
	strategies := []SkylineStrategy{
		SkylineDistributedComplete, SkylineGridComplete,
		SkylineAngleComplete, SkylineZorderComplete,
	}
	for _, st := range strategies {
		sky := columnarSkylinePlan(t, fmt.Sprintf("ada_%v", st), nRows)
		op, err := Plan(sky, Options{Strategy: st})
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		static := cluster.NewContext(executors)
		staticRows, err := Execute(op, static)
		if err != nil {
			t.Fatalf("%v static: %v", st, err)
		}
		adaptive := cluster.NewContext(executors)
		adaptive.TargetRowsPerPartition = 30 // 90 rows -> 3 partitions, not 6
		adaptiveRows, err := Execute(op, adaptive)
		if err != nil {
			t.Fatalf("%v adaptive: %v", st, err)
		}
		if got, want := sortedRowStrings(adaptiveRows), sortedRowStrings(staticRows); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%v: adaptive result differs:\n%v\nvs\n%v", st, got, want)
		}
		var decisions []cluster.CostDecision
		for _, d := range adaptive.Metrics.CostDecisions() {
			if d.Site == "exchange-target" {
				decisions = append(decisions, d)
			}
		}
		if len(decisions) == 0 {
			t.Fatalf("%v: no adaptive decisions recorded", st)
		}
		for _, d := range decisions {
			if d.Choice != "explicit" || d.Detail != "target=30, partitions=3/6" {
				t.Errorf("%v: decision %v, want 6 collapsed to 3", st, d)
			}
		}
		for _, d := range static.Metrics.CostDecisions() {
			if d.Site == "exchange-target" {
				t.Errorf("%v: static run recorded %v", st, d)
			}
		}
	}
}

func sortedRowStrings(rows []types.Row) []string {
	out := rowStrings(rows)
	sort.Strings(out)
	return out
}

// TestAdaptiveExchangeExactOrderDistributedComplete pins the stronger
// guarantee of the default plan: under splitEven partitioning the BNL
// emission order is the table order restricted to skyline rows, so the
// adaptive plan is row-for-row identical, not just set-equal.
func TestAdaptiveExchangeExactOrderDistributedComplete(t *testing.T) {
	sky := columnarSkylinePlan(t, "ada_exact", 100)
	op, err := Plan(sky, Options{Strategy: SkylineDistributedComplete})
	if err != nil {
		t.Fatal(err)
	}
	static := cluster.NewContext(5)
	staticRows, err := Execute(op, static)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := cluster.NewContext(5)
	adaptive.TargetRowsPerPartition = 50
	adaptiveRows, err := Execute(op, adaptive)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "adaptive exact order", staticRows, adaptiveRows)
}
