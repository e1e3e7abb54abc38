package physical

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"skysql/internal/catalog"
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
// reports one vectorized pass per partition. The boxed-filter run (no
// decode at the scan) and the kernel-off run stay row-for-row identical.
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

	// No decode at the scan: no sidecar reaches the filter, so it runs the
	// boxed evaluator — same rows, zero vectorized passes, and the decode
	// moves after the filter (still once per partition).
	bctx := cluster.NewContext(executors)
	bctx.DecodeAtScan = false
	boxed, err := Execute(Plan2(t, sky, Options{Strategy: SkylineDistributedComplete}), bctx)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "decode at scan on/off", boxed, rows)
	if got := bctx.Metrics.VectorizedBatches(); got != 0 {
		t.Errorf("boxed-filter run reported %d vectorized passes", got)
	}
	if got := bctx.Metrics.BatchesDecoded(); got != executors {
		t.Errorf("boxed-filter BatchesDecoded = %d, want %d", got, executors)
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
// sequences across every SkylineStrategy, with the kernel on and off, and
// whether the stage decodes at the scan (the vectorized engine serves the
// filter and the projection) or not (no sidecar reaches them, so they run
// the boxed evaluator). Beside the fixed plan, seeded random predicates
// and computed dimensions over NULL, NaN, ±Inf, −0 and ±2⁵³ values hold
// the two evaluators to each other.
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
	plans := []*plan.SkylineOperator{plan.NewSkylineOperator(false, false, dims, proj)}
	for seed := int64(1); seed <= 160; seed++ {
		plans = append(plans, randomVectorPlan(t, seed))
	}

	vectorized := int64(0)
	for pi, sky := range plans {
		desc := fmt.Sprintf("plan %d", pi)
		if pi > 0 {
			desc += "\n" + plan.Format(sky)
		}
		for _, st := range allStrategies {
			var want []types.Row
			for _, noKernel := range []bool{false, true} {
				for _, decode := range []bool{true, false} {
					label := fmt.Sprintf("%v/kernel=%v/decode-at-scan=%v: %s", st, !noKernel, decode, desc)
					op, err := Plan(sky, Options{Strategy: st, DisableColumnarKernel: noKernel})
					if err != nil {
						t.Fatalf("%s: plan: %v", label, err)
					}
					ctx := cluster.NewContext(4)
					ctx.DecodeAtScan = decode
					rows, err := Execute(op, ctx)
					if err != nil {
						t.Fatalf("%s: execute: %v", label, err)
					}
					if pi > 0 && decode && !noKernel {
						vectorized += ctx.Metrics.VectorizedBatches()
					}
					if want == nil {
						want = rows
						if len(want) == 0 && pi == 0 {
							t.Fatalf("%s: empty skyline", label)
						}
						continue
					}
					assertSameRows(t, label, want, rows)
				}
			}
		}
	}
	// The random plans must exercise the engine, or they compared the boxed
	// evaluator with itself.
	if vectorized == 0 {
		t.Error("no random plan ran a vectorized pass")
	}
}

// randomVectorPlan builds scan → filter(random predicate) →
// project(a, b, c, random numeric expression) → skyline(score MIN, c MAX),
// COMPLETE on even seeds, over a seeded table whose nullable columns hold
// the values the boxed and vectorized evaluators most easily disagree on:
// NULL, NaN, ±Inf, −0, ±2⁵³, and (rarely) 2⁶²−1, which the engine refuses
// per batch.
func randomVectorPlan(t *testing.T, seed int64) *plan.SkylineOperator {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	const bigExact = types.MaxExactFloatInt
	ints := []types.Value{types.Null, types.Int(bigExact), types.Int(-bigExact), types.Int(0), types.Int(-1)}
	floats := []types.Value{types.Null, types.Float(math.NaN()), types.Float(math.Inf(1)), types.Float(math.Inf(-1)),
		types.Float(math.Copysign(0, -1)), types.Float(float64(bigExact)), types.Float(-float64(bigExact))}
	schema := types.NewSchema(
		types.Field{Name: "a", Type: types.KindInt, Nullable: true},
		types.Field{Name: "b", Type: types.KindFloat, Nullable: true},
		types.Field{Name: "c", Type: types.KindInt},
	)
	rows := make([]types.Row, 40+r.Intn(40))
	for i := range rows {
		a := types.Value(types.Int(int64(r.Intn(9) - 3)))
		switch k := r.Intn(40); {
		case k == 0:
			a = types.Int(1<<62 - 1)
		case k < 8:
			a = ints[r.Intn(len(ints))]
		}
		b := types.Value(types.Float(float64(r.Intn(13)-4) / 2))
		if r.Intn(4) == 0 {
			b = floats[r.Intn(len(floats))]
		}
		rows[i] = types.Row{a, b, types.Int(int64(r.Intn(10)))}
	}
	name := fmt.Sprintf("vecrand%d", seed)
	tab, err := catalog.NewTable(name, schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	g := vectorExprGen{r: r}
	filter := plan.NewFilter(g.predicate(2), plan.NewScan(tab, name))
	score := g.numeric(2)
	proj := plan.NewProject([]expr.Expr{
		g.ref(0), g.ref(1), g.ref(2), expr.NewAlias(score, "score"),
	}, filter)
	dims := []*expr.SkylineDimension{
		expr.NewSkylineDimension(expr.NewBoundRef(3, "score", score.DataType(), true), expr.SkyMin),
		expr.NewSkylineDimension(expr.NewBoundRef(2, "c", types.KindInt, false), expr.SkyMax),
	}
	return plan.NewSkylineOperator(false, seed%2 == 0, dims, proj)
}

// vectorExprGen draws random expressions over randomVectorPlan's columns
// from the operators the vectorized engine serves.
type vectorExprGen struct{ r *rand.Rand }

func (g vectorExprGen) ref(i int) expr.Expr {
	switch i {
	case 0:
		return expr.NewBoundRef(0, "a", types.KindInt, true)
	case 1:
		return expr.NewBoundRef(1, "b", types.KindFloat, true)
	}
	return expr.NewBoundRef(2, "c", types.KindInt, false)
}

func (g vectorExprGen) literal() expr.Expr {
	lits := []types.Value{types.Null, types.Float(math.NaN()), types.Float(math.Inf(1)), types.Float(math.Inf(-1)),
		types.Float(math.Copysign(0, -1)), types.Int(types.MaxExactFloatInt), types.Int(-types.MaxExactFloatInt),
		types.Float(0.5), types.Int(0), types.Int(2), types.Int(-3)}
	return expr.NewLiteral(lits[g.r.Intn(len(lits))])
}

// numeric draws a column, a literal, + − * / or a unary minus; at depth 0
// only a column or a literal.
func (g vectorExprGen) numeric(depth int) expr.Expr {
	k := g.r.Intn(5)
	if depth == 0 {
		k %= 2
	}
	switch k {
	case 0:
		return g.ref(g.r.Intn(3))
	case 1:
		return g.literal()
	case 4:
		return expr.NewNegate(g.numeric(depth - 1))
	}
	ops := []expr.BinaryOp{expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpDiv}
	return expr.NewBinary(ops[g.r.Intn(len(ops))], g.numeric(depth-1), g.numeric(depth-1))
}

// predicate draws a comparison, AND, OR, NOT or IS [NOT] NULL; at depth 0
// only a comparison.
func (g vectorExprGen) predicate(depth int) expr.Expr {
	k := g.r.Intn(6)
	if depth == 0 {
		k = 0
	}
	switch k {
	case 1:
		return expr.NewNot(g.predicate(depth - 1))
	case 2:
		return expr.NewIsNull(g.numeric(depth-1), g.r.Intn(2) == 0)
	case 3:
		return expr.NewBinary(expr.OpAnd, g.predicate(depth-1), g.predicate(depth-1))
	case 4:
		return expr.NewBinary(expr.OpOr, g.predicate(depth-1), g.predicate(depth-1))
	}
	ops := []expr.BinaryOp{expr.OpEq, expr.OpNeq, expr.OpLt, expr.OpLeq, expr.OpGt, expr.OpGeq}
	return expr.NewBinary(ops[g.r.Intn(len(ops))], g.numeric(depth), g.numeric(depth))
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

	// No decode at the scan: the filter and the projection evaluate boxed.
	bctx := cluster.NewContext(executors)
	bctx.DecodeAtScan = false
	boxed, err := Execute(Plan2(t, sky, Options{Strategy: SkylineDistributedComplete}), bctx)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "computed dimension boxed/vectorized", boxed, rows)
	if got := bctx.Metrics.VectorizedBatches(); got != 0 {
		t.Errorf("boxed run reported %d vectorized passes", got)
	}
}

// TestExtremumFilterVectorizedPasses pins the vectorized extremum path: a
// partition arriving with a columnar sidecar evaluates the extremum
// expression over the decoded columns (one vectorized pass per partition
// and per distributed pass), with results identical to the boxed run of
// the kernel-off chain, whose local skyline hands up no sidecar.
func TestExtremumFilterVectorizedPasses(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	data := make([][]int64, 80)
	for i := range data {
		data[i] = []int64{int64(r.Intn(12)), int64(r.Intn(12))}
	}
	tab := intTable(t, "vecext", []string{"a", "b"}, data)
	// A local skyline below the extremum produces the sidecar the extremum
	// passes consume (stacked single-dimension skyline shape).
	chain := func(noKernel bool) Operator {
		local := &LocalSkylineExec{
			Dims: []BoundDim{
				{E: expr.NewBoundRef(0, "a", types.KindInt, false), Dir: skyline.Min},
				{E: expr.NewBoundRef(1, "b", types.KindInt, false), Dir: skyline.Max},
			},
			DisableKernel: noKernel,
			Child:         scanOf(t, tab),
		}
		return &ExtremumFilterExec{E: expr.NewBoundRef(0, "a", types.KindInt, false), DisableKernel: noKernel, Child: local}
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
