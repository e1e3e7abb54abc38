package physical

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"skysql/internal/catalog"
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

		// The kernel-off plan must stay bit-identical. Its skyline
		// operators decode nothing; a partitioned exchange is not switched
		// by the kernel option and still decodes each input partition once.
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
		wantBoxed := int64(0)
		if st != SkylineDistributedComplete {
			wantBoxed = executors
		}
		if got := bctx.Metrics.BatchesDecoded(); got != wantBoxed {
			t.Errorf("%v: boxed path decoded %d batches, want %d", st, got, wantBoxed)
		}
	}
}

// TestBoxedKeySourceReachable: a key the batch cannot hold — a NaN
// DOUBLE, a BIGINT beyond 2⁵³ — sends a Grid/Angle/Zorder exchange to the
// boxed key source (the kernel option no longer does), the choice is
// recorded, and the answer equals the kernel-off plan's.
func TestBoxedKeySourceReachable(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind types.Kind
		bad  types.Value
	}{
		{"nan", types.KindFloat, types.Float(math.NaN())},
		{"bigint", types.KindInt, types.Int(1<<53 + 1)},
	} {
		r := rand.New(rand.NewSource(37))
		rows := make([]types.Row, 120)
		for i := range rows {
			a := types.Value(types.Int(int64(r.Intn(40))))
			if tc.kind == types.KindFloat {
				a = types.Float(float64(r.Intn(40)))
			}
			rows[i] = types.Row{a, types.Int(int64(r.Intn(40)))}
		}
		rows[57][0] = tc.bad
		schema := types.NewSchema(types.Field{Name: "a", Type: tc.kind}, types.Field{Name: "b", Type: types.KindInt})
		tab, err := catalog.NewTable("keys_"+tc.name, schema, rows)
		if err != nil {
			t.Fatal(err)
		}
		dims := []*expr.SkylineDimension{
			expr.NewSkylineDimension(expr.NewBoundRef(0, "a", tc.kind, false), expr.SkyMin),
			expr.NewSkylineDimension(expr.NewBoundRef(1, "b", types.KindInt, false), expr.SkyMax),
		}
		sky := plan.NewSkylineOperator(false, false, dims, plan.NewScan(tab, tab.Name))
		for _, st := range []SkylineStrategy{SkylineGridComplete, SkylineAngleComplete, SkylineZorderComplete} {
			label := fmt.Sprintf("%s %v", tc.name, st)
			ctx := cluster.NewContext(4)
			got, err := Execute(Plan2(t, sky, Options{Strategy: st}), ctx)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var bucketing []cluster.CostDecision
			for _, d := range ctx.Metrics.CostDecisions() {
				if d.Site == "exchange-bucketing" {
					bucketing = append(bucketing, d)
				}
			}
			if len(bucketing) != 1 || bucketing[0].Choice != "boxed" {
				t.Errorf("%s: bucketing decisions = %v, want one boxed", label, bucketing)
			}
			want, err := Execute(Plan2(t, sky, Options{Strategy: st, DisableColumnarKernel: true}), cluster.NewContext(4))
			if err != nil {
				t.Fatalf("%s kernel off: %v", label, err)
			}
			if len(got) == 0 {
				t.Fatalf("%s: empty skyline", label)
			}
			assertSameRows(t, label, want, got)
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
