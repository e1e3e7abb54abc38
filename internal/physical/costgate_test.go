package physical

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"skysql/internal/cluster"
	"skysql/internal/expr"
	"skysql/internal/plan"
	"skysql/internal/types"
)

// costGatePlanFixture builds the filtered skyline plan the gate contract
// tests sweep: scan → c <= cut → SKYLINE OF a MIN, b MAX over random data
// in [0, 20), so cut sweeps the estimated filter selectivity.
func costGatePlanFixture(t *testing.T, name string, nullable bool, cut int64) plan.Node {
	t.Helper()
	r := rand.New(rand.NewSource(41))
	nRows := 160
	data := make([][]int64, nRows)
	for i := range data {
		data[i] = []int64{int64(r.Intn(20)), int64(r.Intn(20)), int64(r.Intn(20))}
	}
	tab := intTable(t, name, []string{"a", "b", "c"}, data)
	if nullable {
		tab.Schema.Fields[0].Nullable = true
		for i := 0; i < nRows; i += 7 {
			tab.Rows[i][0] = types.Null
		}
	}
	scan := plan.NewScan(tab, name)
	filter := plan.NewFilter(
		expr.NewBinary(expr.OpLeq, expr.NewBoundRef(2, "c", types.KindInt, false), expr.NewLiteral(types.Int(cut))), scan)
	dims := []*expr.SkylineDimension{
		expr.NewSkylineDimension(expr.NewBoundRef(0, "a", types.KindInt, nullable), expr.SkyMin),
		expr.NewSkylineDimension(expr.NewBoundRef(1, "b", types.KindInt, false), expr.SkyMax),
	}
	return plan.NewSkylineOperator(false, false, dims, filter)
}

// TestCostGateBitIdentityAblation is the gate's contract: for every
// SkylineStrategy × kernel ablation, and at both a selective and a
// non-selective filter cut (so the gate actually takes both branches
// somewhere in the sweep), the cost-gated plan must be
// row-for-row identical to the plan run without decode-at-scan
// (DecodeAtScan=false), which never decodes at the source.
func TestCostGateBitIdentityAblation(t *testing.T) {
	for _, nullable := range []bool{false, true} {
		name := "gatecomplete"
		if nullable {
			name = "gateincomplete"
		}
		for ci, cut := range []int64{4, 15} {
			sky := costGatePlanFixture(t, fmt.Sprintf("%s%d", name, ci), nullable, cut)
			for _, st := range allStrategies {
				for _, noKernel := range []bool{false, true} {
					label := fmt.Sprintf("%s/cut=%d/%v/kernel=%v", name, cut, st, !noKernel)
					opts := Options{Strategy: st, DisableColumnarKernel: noKernel}
					op, err := Plan(sky, opts)
					if err != nil {
						t.Fatalf("%s: plan: %v", label, err)
					}
					nctx := cluster.NewContext(4)
					nctx.DecodeAtScan = false
					gated, err := Execute(op, cluster.NewContext(4))
					if err != nil {
						t.Fatalf("%s: gated execute: %v", label, err)
					}
					never, err := Execute(Plan2(t, sky, opts), nctx)
					if err != nil {
						t.Fatalf("%s: no-decode-at-scan execute: %v", label, err)
					}
					assertSameRows(t, label, never, gated)
				}
			}
		}
	}
}

// Plan2 re-plans the logical tree (plans capture per-scan sketch caches,
// so each context gets its own operator tree, as the engine does).
func Plan2(t *testing.T, n plan.Node, opts Options) Operator {
	t.Helper()
	op, err := Plan(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// TestCostGateDecisions pins the gate's two choices and their observable
// counters: a selective filter defers the decode (no vectorized passes,
// decode still once per post-filter partition), a non-selective filter
// keeps decode-at-scan (vectorized passes, same decode count), and both
// record their decision; a context without decode-at-scan never consults
// the gate and records none.
func TestCostGateDecisions(t *testing.T) {
	for _, tc := range []struct {
		cut        int64
		wantChoice string
		wantVec    bool
	}{
		{4, "defer", false},
		{15, "decode", true},
	} {
		sky := costGatePlanFixture(t, fmt.Sprintf("gated%d", tc.cut), false, tc.cut)
		op, err := Plan(sky, Options{Strategy: SkylineDistributedComplete})
		if err != nil {
			t.Fatal(err)
		}
		ctx := cluster.NewContext(4)
		if _, err := Execute(op, ctx); err != nil {
			t.Fatal(err)
		}
		var decode []cluster.CostDecision
		for _, d := range ctx.Metrics.CostDecisions() {
			if d.Site == "decode-at-scan" {
				decode = append(decode, d)
			}
		}
		if len(decode) != 1 {
			t.Fatalf("cut=%d: want one decode-at-scan decision, got %v", tc.cut, ctx.Metrics.CostDecisions())
		}
		d := decode[0]
		if d.Choice != tc.wantChoice {
			t.Errorf("cut=%d: choice = %q, want %q (%s)", tc.cut, d.Choice, tc.wantChoice, d.String())
		}
		if d.Rows != 160 || d.Selectivity <= 0 || d.Selectivity > 1 {
			t.Errorf("cut=%d: implausible decision %+v", tc.cut, d)
		}
		if gotVec := ctx.Metrics.Count(cluster.VectorizedBatches) > 0; gotVec != tc.wantVec {
			t.Errorf("cut=%d: vectorized batches = %d, want >0: %v",
				tc.cut, ctx.Metrics.Count(cluster.VectorizedBatches), tc.wantVec)
		}
		if ctx.Metrics.BatchesDecoded() == 0 {
			t.Errorf("cut=%d: skyline must still decode once per partition", tc.cut)
		}
		if !strings.Contains(d.String(), "decode-at-scan") {
			t.Errorf("decision String() = %q", d.String())
		}

		// No decode-at-scan: the gate is never consulted, the filter runs
		// boxed and the skyline decodes the survivors.
		off := cluster.NewContext(4)
		off.DecodeAtScan = false
		if _, err := Execute(Plan2(t, sky, Options{Strategy: SkylineDistributedComplete}), off); err != nil {
			t.Fatal(err)
		}
		for _, d := range off.Metrics.CostDecisions() {
			if d.Site == "decode-at-scan" {
				t.Errorf("cut=%d: run without decode-at-scan recorded %v", tc.cut, d)
			}
		}
		if got := off.Metrics.Count(cluster.VectorizedBatches); got != 0 {
			t.Errorf("cut=%d: run without decode-at-scan vectorized %d passes", tc.cut, got)
		}
	}
}

// TestExchangeSinkDecode pins the third cost-model lever: a filter below a
// Grid/Angle/Zorder exchange no longer forces the boxed path — the stage
// decodes at the scan for the exchange's dimensions, the filter runs
// vectorized, the exchange buckets on the sidecar (recorded as a columnar
// bucketing decision), and the whole plan still decodes exactly once per
// input partition with rows identical to the boxed plan.
func TestExchangeSinkDecode(t *testing.T) {
	for _, st := range []SkylineStrategy{SkylineGridComplete, SkylineAngleComplete, SkylineZorderComplete} {
		// cut=15 keeps ~4/5 of the rows: the gate keeps decode-at-scan.
		sky := costGatePlanFixture(t, fmt.Sprintf("sink%v", st), false, 15)
		op, err := Plan(sky, Options{Strategy: st})
		if err != nil {
			t.Fatal(err)
		}
		ctx := cluster.NewContext(4)
		rows, err := Execute(op, ctx)
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if ctx.Metrics.Count(cluster.VectorizedBatches) == 0 {
			t.Errorf("%v: filter below the partitioned exchange must vectorize", st)
		}
		if got := ctx.Metrics.BatchesDecoded(); got != 4 {
			t.Errorf("%v: batches decoded = %d, want one per input partition (4)", st, got)
		}
		var bucketing []cluster.CostDecision
		for _, d := range ctx.Metrics.CostDecisions() {
			if d.Site == "exchange-bucketing" {
				bucketing = append(bucketing, d)
			}
		}
		if len(bucketing) != 1 || bucketing[0].Choice != "columnar" {
			t.Errorf("%v: bucketing decisions = %v, want one columnar", st, bucketing)
		}

		boxedOp, err := Plan(sky, Options{Strategy: st, DisableColumnarKernel: true})
		if err != nil {
			t.Fatal(err)
		}
		boxed, err := Execute(boxedOp, cluster.NewContext(4))
		if err != nil {
			t.Fatalf("%v boxed: %v", st, err)
		}
		assertSameRows(t, st.String(), boxed, rows)
	}
}

// TestAdaptiveDefaultResultIdentity pins cost-chosen adaptive exchanges
// against the static partitioning: identical row sets for every strategy
// (and identical sequences on the order-preserving default plan), with
// each partition choice recorded as an exchange-target cost decision.
func TestAdaptiveDefaultResultIdentity(t *testing.T) {
	strategies := []SkylineStrategy{
		SkylineDistributedComplete, SkylineNonDistributedComplete,
		SkylineGridComplete, SkylineAngleComplete, SkylineZorderComplete,
	}
	for _, st := range strategies {
		sky := costGatePlanFixture(t, fmt.Sprintf("aqe%v", st), false, 15)
		sctx, actx := cluster.NewContext(4), cluster.NewContext(4)
		actx.AdaptiveExchange = true
		static, err := Execute(Plan2(t, sky, Options{Strategy: st}), sctx)
		if err != nil {
			t.Fatalf("%v static: %v", st, err)
		}
		adaptive, err := Execute(Plan2(t, sky, Options{Strategy: st}), actx)
		if err != nil {
			t.Fatalf("%v adaptive: %v", st, err)
		}
		if st == SkylineDistributedComplete || st == SkylineNonDistributedComplete {
			// Contiguous rebalancing preserves the gathered row order, so
			// the result sequence is identical, not just the set.
			assertSameRows(t, st.String(), static, adaptive)
		} else {
			ss, as := rowStrings(static), rowStrings(adaptive)
			sort.Strings(ss)
			sort.Strings(as)
			if strings.Join(ss, "|") != strings.Join(as, "|") {
				t.Errorf("%v: adaptive row set differs from static", st)
			}
		}
		for _, d := range sctx.Metrics.CostDecisions() {
			if d.Site == "exchange-target" {
				t.Errorf("%v: static run recorded %v", st, d)
			}
		}
		var targets []cluster.CostDecision
		for _, d := range actx.Metrics.CostDecisions() {
			if d.Site == "exchange-target" {
				targets = append(targets, d)
			}
		}
		if len(targets) == 0 {
			t.Fatalf("%v: adaptive run recorded no decisions", st)
		}
		// 160 rows under the 2048-row floor: every exchange collapses to 1.
		for _, d := range targets {
			if d.Choice != "adaptive" || !strings.HasSuffix(d.Detail, "partitions=1/4") {
				t.Errorf("%v: decision %v, want tiny input collapsed 4 -> 1", st, d)
			}
		}
	}
}

// TestNestedLoopJoinFusedTail pins the StageSource path of the nested-loop
// join: narrow operators above it run inside the probe's task round,
// saving a round, with identical results — the same contract
// HashJoinExec.ExecuteFused already carries.
func TestNestedLoopJoinFusedTail(t *testing.T) {
	left := intTable(t, "nlleft", []string{"a", "b"}, [][]int64{{1, 9}, {2, 3}, {3, 5}, {4, 7}})
	right := intTable(t, "nlright", []string{"x"}, [][]int64{{2}, {3}, {5}})
	joined := types.NewSchema(
		types.Field{Name: "a"}, types.Field{Name: "b"}, types.Field{Name: "x"},
	)
	src := func() Operator {
		return NewNestedLoopJoinExec(plan.InnerJoin,
			scanOf(t, left), scanOf(t, right),
			expr.NewBinary(expr.OpLt, ref(0), expr.NewBoundRef(2, "x", types.KindInt, false)),
			joined)
	}
	if fused := assertFusedTail(t, "nested-loop tail", src, 1, 4, 2); len(fused) == 0 {
		t.Fatal("fixture must produce rows")
	}
}
