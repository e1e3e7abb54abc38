package physical

import (
	"fmt"
	"math/rand"
	"testing"

	"skysql/internal/cluster"
	"skysql/internal/expr"
	"skysql/internal/plan"
	"skysql/internal/skyline"
	"skysql/internal/types"
)

// filteredSkylinePlan builds scan → filter (numeric predicate) → skyline,
// the acceptance-criterion shape of the vectorized data plane.
func filteredSkylinePlan(t *testing.T, name string, nRows int, cut int64) *plan.SkylineOperator {
	t.Helper()
	r := rand.New(rand.NewSource(59))
	data := make([][]int64, nRows)
	for i := range data {
		data[i] = []int64{int64(r.Intn(40)), int64(r.Intn(40)), int64(r.Intn(40))}
	}
	tab := intTable(t, name, []string{"a", "b", "c"}, data)
	filter := plan.NewFilter(
		expr.NewBinary(expr.OpLt, expr.NewBoundRef(2, "c", types.KindInt, false), expr.NewLiteral(types.Int(cut))),
		plan.NewScan(tab, name))
	dims := []*expr.SkylineDimension{
		expr.NewSkylineDimension(expr.NewBoundRef(0, "a", types.KindInt, false), expr.SkyMin),
		expr.NewSkylineDimension(expr.NewBoundRef(1, "b", types.KindInt, false), expr.SkyMax),
	}
	return plan.NewSkylineOperator(false, false, dims, filter)
}

// TestFilteredSkylineDecodesOncePerPartitionVectorized extends the
// decode-freeness regression to filtered plans: scan → filter → local
// skyline → exchange → global skyline decodes exactly once per input
// partition (the stage decodes at the scan, the filter reduces the batch
// with a selection bitmap, the skyline and the global pass reuse it) and
// reports one vectorized pass per partition. The vector-off and kernel-off
// ablations stay row-for-row identical.
func TestFilteredSkylineDecodesOncePerPartitionVectorized(t *testing.T) {
	const executors = 4
	const nRows = 120 // splitEven gives exactly `executors` input partitions
	sky := filteredSkylinePlan(t, "vecdec", nRows, 25)

	op, err := Plan(sky, Options{Strategy: SkylineDistributedComplete})
	if err != nil {
		t.Fatal(err)
	}
	ctx := cluster.NewContext(executors)
	rows, err := Execute(op, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("empty skyline")
	}
	if got := ctx.Metrics.BatchesDecoded(); got != executors {
		t.Errorf("BatchesDecoded = %d, want %d (one per input partition, filter included)", got, executors)
	}
	if got := ctx.Metrics.VectorizedBatches(); got != executors {
		t.Errorf("VectorizedBatches = %d, want %d (one vectorized filter pass per partition)", got, executors)
	}

	// Vectorization off: same rows, zero vectorized passes, and the decode
	// moves after the filter (still once per partition).
	boxedOp, err := Plan(sky, Options{Strategy: SkylineDistributedComplete, DisableVectorizedExprs: true})
	if err != nil {
		t.Fatal(err)
	}
	bctx := cluster.NewContext(executors)
	bctx.DecodeAtScan = false
	boxed, err := Execute(boxedOp, bctx)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "vectorized on/off", boxed, rows)
	if got := bctx.Metrics.VectorizedBatches(); got != 0 {
		t.Errorf("vector-off run reported %d vectorized passes", got)
	}
	if got := bctx.Metrics.BatchesDecoded(); got != executors {
		t.Errorf("vector-off BatchesDecoded = %d, want %d", got, executors)
	}

	// Kernel off: fully boxed, still identical.
	noKernelOp, err := Plan(sky, Options{Strategy: SkylineDistributedComplete, DisableColumnarKernel: true})
	if err != nil {
		t.Fatal(err)
	}
	kctx := cluster.NewContext(executors)
	noKernel, err := Execute(noKernelOp, kctx)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "kernel on/off filtered", noKernel, rows)
	if got := kctx.Metrics.BatchesDecoded(); got != 0 {
		t.Errorf("kernel-off run decoded %d batches", got)
	}
}

// TestVectorizedContractsAllStrategies is the vectorization contract: a
// filtered + computed-dimension skyline plan must produce identical row
// sequences across every SkylineStrategy and every combination of the
// DisableColumnarKernel / DisableVectorizedExprs ablations.
func TestVectorizedContractsAllStrategies(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	nRows := 140
	data := make([][]int64, nRows)
	for i := range data {
		data[i] = []int64{int64(r.Intn(25)), int64(r.Intn(25)), int64(r.Intn(25))}
	}
	tab := intTable(t, "veccontract", []string{"a", "b", "c"}, data)
	scan := plan.NewScan(tab, "veccontract")
	filter := plan.NewFilter(
		expr.NewBinary(expr.OpAnd,
			expr.NewBinary(expr.OpLeq, expr.NewBoundRef(2, "c", types.KindInt, false), expr.NewLiteral(types.Int(20))),
			expr.NewBinary(expr.OpGt,
				expr.NewBinary(expr.OpAdd, expr.NewBoundRef(0, "a", types.KindInt, false), expr.NewBoundRef(1, "b", types.KindInt, false)),
				expr.NewLiteral(types.Int(4)))),
		scan)
	// Computed dimension: the skyline minimizes a+2*b, evaluated by a
	// projection between the filter and the skyline.
	proj := plan.NewProject([]expr.Expr{
		expr.NewBoundRef(0, "a", types.KindInt, false),
		expr.NewBoundRef(1, "b", types.KindInt, false),
		expr.NewAlias(expr.NewBinary(expr.OpAdd,
			expr.NewBoundRef(0, "a", types.KindInt, false),
			expr.NewBinary(expr.OpMul, expr.NewLiteral(types.Int(2)), expr.NewBoundRef(1, "b", types.KindInt, false))), "score"),
	}, filter)
	dims := []*expr.SkylineDimension{
		expr.NewSkylineDimension(expr.NewBoundRef(2, "score", types.KindInt, false), expr.SkyMin),
		expr.NewSkylineDimension(expr.NewBoundRef(0, "a", types.KindInt, false), expr.SkyMax),
	}
	sky := plan.NewSkylineOperator(false, false, dims, proj)

	for _, st := range allStrategies {
		var want []types.Row
		for _, noKernel := range []bool{false, true} {
			for _, noVector := range []bool{false, true} {
				label := fmt.Sprintf("%v/kernel=%v/vector=%v", st, !noKernel, !noVector)
				op, err := Plan(sky, Options{
					Strategy:               st,
					DisableColumnarKernel:  noKernel,
					DisableVectorizedExprs: noVector,
				})
				if err != nil {
					t.Fatalf("%s: plan: %v", label, err)
				}
				ctx := cluster.NewContext(4)
				ctx.DecodeAtScan = !noVector && !noKernel
				rows, err := Execute(op, ctx)
				if err != nil {
					t.Fatalf("%s: execute: %v", label, err)
				}
				if want == nil {
					want = rows
					if len(want) == 0 {
						t.Fatalf("%s: empty skyline", label)
					}
					continue
				}
				assertSameRows(t, label, want, rows)
			}
		}
	}
}

// TestProjectComputedDimensionKeepsSidecar pins the computed-column path: a
// fused filter → project(a, b, a+b) → skyline chain decodes once per
// partition at the scan, the projection carries the batch across the row
// transform, and the skyline reuses it — with a vectorized pass per
// partition from both the filter and the projection.
func TestProjectComputedDimensionKeepsSidecar(t *testing.T) {
	const executors = 3
	r := rand.New(rand.NewSource(67))
	data := make([][]int64, 90)
	for i := range data {
		data[i] = []int64{int64(r.Intn(30)), int64(r.Intn(30))}
	}
	tab := intTable(t, "vecproj", []string{"a", "b"}, data)
	filter := plan.NewFilter(
		expr.NewBinary(expr.OpGeq, expr.NewBoundRef(0, "a", types.KindInt, false), expr.NewLiteral(types.Int(2))),
		plan.NewScan(tab, "vecproj"))
	proj := plan.NewProject([]expr.Expr{
		expr.NewBoundRef(0, "a", types.KindInt, false),
		expr.NewAlias(expr.NewBinary(expr.OpAdd,
			expr.NewBoundRef(0, "a", types.KindInt, false),
			expr.NewBoundRef(1, "b", types.KindInt, false)), "s"),
	}, filter)
	dims := []*expr.SkylineDimension{
		expr.NewSkylineDimension(expr.NewBoundRef(1, "s", types.KindInt, false), expr.SkyMin),
		expr.NewSkylineDimension(expr.NewBoundRef(0, "a", types.KindInt, false), expr.SkyMin),
	}
	sky := plan.NewSkylineOperator(false, false, dims, proj)

	op, err := Plan(sky, Options{Strategy: SkylineDistributedComplete})
	if err != nil {
		t.Fatal(err)
	}
	ctx := cluster.NewContext(executors)
	rows, err := Execute(op, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("empty skyline")
	}
	if got := ctx.Metrics.BatchesDecoded(); got != executors {
		t.Errorf("BatchesDecoded = %d, want %d (computed dimension decoded at scan)", got, executors)
	}
	// Filter and projection each report one vectorized pass per partition.
	if got := ctx.Metrics.VectorizedBatches(); got != 2*executors {
		t.Errorf("VectorizedBatches = %d, want %d", got, 2*executors)
	}

	boxedOp, err := Plan(sky, Options{Strategy: SkylineDistributedComplete, DisableColumnarKernel: true, DisableVectorizedExprs: true})
	if err != nil {
		t.Fatal(err)
	}
	bctx := cluster.NewContext(executors)
	bctx.DecodeAtScan = false
	boxed, err := Execute(boxedOp, bctx)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "computed dimension boxed/vectorized", boxed, rows)
}

// TestExtremumFilterVectorizedPasses pins the vectorized extremum path: a
// partition arriving with a columnar sidecar evaluates the extremum
// expression over the decoded columns (one vectorized pass per partition
// and per distributed pass), with results identical to the boxed run.
func TestExtremumFilterVectorizedPasses(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	data := make([][]int64, 80)
	for i := range data {
		data[i] = []int64{int64(r.Intn(12)), int64(r.Intn(12))}
	}
	tab := intTable(t, "vecext", []string{"a", "b"}, data)
	// A local skyline below the extremum produces the sidecar the extremum
	// passes consume (stacked single-dimension skyline shape).
	chain := func(noVector bool) Operator {
		local := &LocalSkylineExec{
			Dims: []BoundDim{
				{E: expr.NewBoundRef(0, "a", types.KindInt, false), Dir: skyline.Min},
				{E: expr.NewBoundRef(1, "b", types.KindInt, false), Dir: skyline.Max},
			},
			Child: scanOf(t, tab),
		}
		return &ExtremumFilterExec{E: expr.NewBoundRef(0, "a", types.KindInt, false), DisableVector: noVector, Child: local}
	}
	vctx := cluster.NewContext(3)
	vec, err := Execute(chain(false), vctx)
	if err != nil {
		t.Fatal(err)
	}
	bctx := cluster.NewContext(3)
	boxed, err := Execute(chain(true), bctx)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "extremum vectorized/boxed", boxed, vec)
	if len(vec) == 0 {
		t.Fatal("extremum filter returned no rows")
	}
	if got := vctx.Metrics.VectorizedBatches(); got == 0 {
		t.Error("extremum pass 1 never ran vectorized despite sidecar input")
	}
	if got := bctx.Metrics.VectorizedBatches(); got != 0 {
		t.Errorf("boxed extremum reported %d vectorized passes", got)
	}
}

// TestHashJoinFusedTail pins the StageSource path of the hash join: narrow
// operators above a HashJoinExec run inside the probe's task round, saving
// a round, with identical results.
func TestHashJoinFusedTail(t *testing.T) {
	left := intTable(t, "hjl", []string{"k", "v"}, [][]int64{{1, 10}, {2, 20}, {3, 30}, {2, 25}})
	right := intTable(t, "hjr", []string{"k", "w"}, [][]int64{{2, 200}, {3, 300}, {4, 400}})
	fourCol := types.NewSchema(
		types.Field{Name: "k", Type: types.KindInt}, types.Field{Name: "v", Type: types.KindInt},
		types.Field{Name: "k", Type: types.KindInt}, types.Field{Name: "w", Type: types.KindInt},
	)
	src := func() Operator {
		return NewHashJoinExec(plan.InnerJoin, scanOf(t, left), scanOf(t, right),
			[]expr.Expr{ref(0)}, []expr.Expr{ref(0)}, nil, fourCol)
	}
	if fused := assertFusedTail(t, "hash join tail", src, 1, 15, 2); len(fused) != 3 {
		t.Fatalf("rows = %v", rowStrings(fused))
	}
}

// TestSidecarMemoryAccounting pins the peak-bytes parity audit: datasets
// carrying columnar sidecars charge the decoded buffers, so a narrow op
// slicing its sidecar (LocalLimitExec) books the batch alongside the rows.
func TestSidecarMemoryAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	data := make([][]int64, 200)
	for i := range data {
		data[i] = []int64{int64(r.Intn(50)), int64(r.Intn(50))}
	}
	tab := intTable(t, "memacct", []string{"a", "b"}, data)
	chain := func(noKernel bool) Operator {
		local := &LocalSkylineExec{
			Dims: []BoundDim{
				{E: expr.NewBoundRef(0, "a", types.KindInt, false), Dir: skyline.Min},
				{E: expr.NewBoundRef(1, "b", types.KindInt, false), Dir: skyline.Min},
			},
			DisableKernel: noKernel,
			Child:         scanOf(t, tab),
		}
		return &LocalLimitExec{N: 3, Child: local}
	}
	kctx := cluster.NewContext(2)
	if _, err := Execute(chain(false), kctx); err != nil {
		t.Fatal(err)
	}
	bctx := cluster.NewContext(2)
	if _, err := Execute(chain(true), bctx); err != nil {
		t.Fatal(err)
	}
	if kctx.Metrics.PeakBytes() <= bctx.Metrics.PeakBytes() {
		t.Errorf("sidecar-carrying run must charge the decoded buffers: kernel peak %d, boxed peak %d",
			kctx.Metrics.PeakBytes(), bctx.Metrics.PeakBytes())
	}
}
