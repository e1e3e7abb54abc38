package physical

import (
	"fmt"
	"math/rand"
	"testing"

	"skysql/internal/catalog"
	"skysql/internal/cluster"
	"skysql/internal/expr"
	"skysql/internal/plan"
	"skysql/internal/skyline"
	"skysql/internal/types"
)

// TestOperatorInterfaceContracts sweeps every physical operator: String
// must be non-empty, Schema callable, Children consistent, and Execute
// must run on a fresh context.
func TestOperatorInterfaceContracts(t *testing.T) {
	tab := intTable(t, "t", []string{"a", "b"}, [][]int64{{1, 2}, {3, 4}, {2, 1}})
	scan := scanOf(t, tab)
	refA := expr.NewBoundRef(0, "a", types.KindInt, false)
	refB := expr.NewBoundRef(1, "b", types.KindInt, false)
	dims := []BoundDim{{E: refA, Dir: skyline.Min}, {E: refB, Dir: skyline.Max}}
	twoCol := types.NewSchema(types.Field{Name: "a"}, types.Field{Name: "b"})
	fourCol := types.NewSchema(
		types.Field{Name: "a"}, types.Field{Name: "b"},
		types.Field{Name: "a"}, types.Field{Name: "b"},
	)

	ops := []Operator{
		scan,
		&OneRowExec{},
		&FilterExec{Cond: expr.NewBinary(expr.OpGt, refA, expr.NewLiteral(types.Int(0))), Child: scan},
		NewProjectExec([]expr.Expr{refA}, types.NewSchema(types.Field{Name: "a"}), scan),
		&LimitExec{N: 1, Child: scan},
		&SortExec{Orders: []SortKey{{E: refA, Desc: true}}, Child: scan},
		&DistinctExec{Child: scan},
		&ExchangeExec{Dist: cluster.AllTuples, Child: scan},
		&ExchangeExec{Dist: cluster.NullBitmap, Keys: []expr.Expr{refA}, Child: scan},
		&ExchangeExec{Dist: cluster.Grid, Keys: []expr.Expr{refA, refB}, Minimize: []bool{true, true}, Child: scan},
		NewAggregateExec([]expr.Expr{refA}, []expr.Expr{refA, expr.NewCountStar()},
			types.NewSchema(types.Field{Name: "a"}, types.Field{Name: "n"}), scan),
		NewHashJoinExec(plan.InnerJoin, scan, scanOf(t, tab), []expr.Expr{refA}, []expr.Expr{refA}, nil, fourCol),
		NewNestedLoopJoinExec(plan.CrossJoin, scan, scanOf(t, tab), nil, fourCol),
		&ExtremumFilterExec{E: refA, Child: scan},
		&LocalSkylineExec{Dims: dims, Child: scan},
		&LocalSkylineExec{Dims: dims, Incomplete: true, Child: scan},
		&LocalLimitExec{N: 1, Child: scan},
		&PipelineExec{Ops: []NarrowOperator{&FilterExec{Cond: expr.NewBinary(expr.OpGt, refA, expr.NewLiteral(types.Int(0))), Child: scan}}, Source: scan},
		&GlobalSkylineExec{Dims: dims, Child: scan},
		&GlobalSkylineExec{Dims: dims, Incomplete: true, Child: scan},
	}
	_ = twoCol
	for _, op := range ops {
		if op.String() == "" {
			t.Errorf("%T: empty String()", op)
		}
		if op.Schema() == nil {
			t.Errorf("%T: nil Schema()", op)
		}
		for _, c := range op.Children() {
			if c == nil {
				t.Errorf("%T: nil child", op)
			}
		}
		ds, err := op.Execute(cluster.NewContext(2))
		if err != nil {
			t.Errorf("%T: Execute: %v", op, err)
			continue
		}
		if ds == nil {
			t.Errorf("%T: nil dataset", op)
		}
	}
}

// allStrategies is every SkylineStrategy, the axis of the contract
// matrices.
var allStrategies = []SkylineStrategy{
	SkylineAuto, SkylineDistributedComplete, SkylineNonDistributedComplete,
	SkylineDistributedIncomplete, SkylineGridComplete, SkylineAngleComplete,
	SkylineZorderComplete,
}

// TestStrategyStrings pins the display names used in EXPLAIN output.
func TestStrategyStrings(t *testing.T) {
	want := map[SkylineStrategy]string{
		SkylineAuto:                   "auto",
		SkylineDistributedComplete:    "distributed complete",
		SkylineNonDistributedComplete: "non-distributed complete",
		SkylineDistributedIncomplete:  "distributed incomplete",
		SkylineGridComplete:           "grid complete",
		SkylineAngleComplete:          "angle complete",
		SkylineZorderComplete:         "zorder complete",
	}
	for st, name := range want {
		if st.String() != name {
			t.Errorf("strategy %d = %q, want %q", st, st.String(), name)
		}
	}
	if got := SkylineStrategy(99).String(); got != "SkylineStrategy(99)" {
		t.Errorf("unknown strategy String = %q", got)
	}
}

// ---- Stage-fusion contracts ----

func rowStrings(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

// execBoth runs the same operator tree unfused and through the stage
// compiler, returning both row sequences and both contexts.
func execBoth(t *testing.T, op Operator, executors int) (unfused, fused []types.Row, uctx, fctx *cluster.Context) {
	t.Helper()
	uctx = cluster.NewContext(executors)
	var err error
	unfused, err = Execute(op, uctx)
	if err != nil {
		t.Fatalf("unfused execute: %v", err)
	}
	fctx = cluster.NewContext(executors)
	fusedOp := CompileStages(op)
	fused, err = Execute(fusedOp, fctx)
	if err != nil {
		t.Fatalf("fused execute: %v", err)
	}
	return unfused, fused, uctx, fctx
}

func assertSameRows(t *testing.T, label string, unfused, fused []types.Row) {
	t.Helper()
	us, fs := rowStrings(unfused), rowStrings(fused)
	if len(us) != len(fs) {
		t.Fatalf("%s: row counts differ: unfused %d, fused %d", label, len(us), len(fs))
	}
	for i := range us {
		if us[i] != fs[i] {
			t.Fatalf("%s: row %d differs: unfused %s, fused %s", label, i, us[i], fs[i])
		}
	}
}

// TestFusedUnfusedEquivalenceRandomChains is the fused-vs-unfused
// equivalence contract over randomized operator chains: random
// filter/project/limit/local-skyline chains interleaved with random
// exchange distributions must produce identical row sequences whether
// executed per-operator or stage-fused, and fusion must never schedule
// more task rounds.
func TestFusedUnfusedEquivalenceRandomChains(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		nRows := 20 + r.Intn(60)
		data := make([][]int64, nRows)
		for i := range data {
			data[i] = []int64{int64(r.Intn(10)), int64(r.Intn(10)), int64(r.Intn(10))}
		}
		tab := intTable(t, fmt.Sprintf("t%d", trial), []string{"a", "b", "c"}, data)
		var op Operator = scanOf(t, tab)
		width := 3
		steps := 1 + r.Intn(5)
		desc := "scan"
		for s := 0; s < steps; s++ {
			switch r.Intn(5) {
			case 0: // filter
				col := r.Intn(width)
				op = &FilterExec{
					Cond:  expr.NewBinary(expr.OpLeq, expr.NewBoundRef(col, "x", types.KindInt, false), expr.NewLiteral(types.Int(int64(r.Intn(10))))),
					Child: op,
				}
				desc += "->filter"
			case 1: // project (random width, simple arithmetic)
				k := 1 + r.Intn(width+1)
				exprs := make([]expr.Expr, k)
				fields := make([]types.Field, k)
				for i := 0; i < k; i++ {
					col := r.Intn(width)
					ref := expr.NewBoundRef(col, "x", types.KindInt, false)
					if r.Intn(2) == 0 {
						exprs[i] = expr.NewBinary(expr.OpAdd, ref, expr.NewLiteral(types.Int(int64(r.Intn(5)))))
					} else {
						exprs[i] = ref
					}
					fields[i] = types.Field{Name: fmt.Sprintf("p%d", i), Type: types.KindInt}
				}
				op = NewProjectExec(exprs, types.NewSchema(fields...), op)
				width = k
				desc += "->project"
			case 2: // limit (exercises the LocalLimit/GlobalLimit split)
				op = &LimitExec{N: int64(1 + r.Intn(nRows)), Child: op}
				desc += "->limit"
			case 3: // local skyline over two random dims
				d1, d2 := r.Intn(width), r.Intn(width)
				op = &LocalSkylineExec{
					Dims: []BoundDim{
						{E: expr.NewBoundRef(d1, "x", types.KindInt, false), Dir: skyline.Min},
						{E: expr.NewBoundRef(d2, "y", types.KindInt, false), Dir: skyline.Max},
					},
					Child: op,
				}
				desc += "->localsky"
			case 4: // exchange under a random distribution
				dists := []cluster.Distribution{cluster.Unspecified, cluster.AllTuples, cluster.Hash}
				dist := dists[r.Intn(len(dists))]
				ex := &ExchangeExec{Dist: dist, Child: op}
				if dist == cluster.Hash {
					ex.Keys = []expr.Expr{expr.NewBoundRef(r.Intn(width), "k", types.KindInt, false)}
				}
				op = ex
				desc += "->exchange(" + dist.String() + ")"
			}
		}
		executors := 1 + r.Intn(5)
		unfused, fused, uctx, fctx := execBoth(t, op, executors)
		assertSameRows(t, fmt.Sprintf("trial %d (%s, %d executors)", trial, desc, executors), unfused, fused)
		if fctx.Metrics.StagesExecuted() > uctx.Metrics.StagesExecuted() {
			t.Errorf("trial %d (%s): fused scheduled %d rounds, unfused %d",
				trial, desc, fctx.Metrics.StagesExecuted(), uctx.Metrics.StagesExecuted())
		}
	}
}

// TestFusedUnfusedEquivalenceAllStrategies is the planner-level contract:
// for every SkylineStrategy (over complete and incomplete data, covering
// all exchange distributions the strategies emit — Unspecified, AllTuples,
// NullBitmap, Grid, Angle, Zorder) the stage-fused plan must be
// result-identical to the per-operator plan.
func TestFusedUnfusedEquivalenceAllStrategies(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, nullable := range []bool{false, true} {
		nRows := 150
		data := make([][]int64, nRows)
		for i := range data {
			data[i] = []int64{int64(r.Intn(20)), int64(r.Intn(20)), int64(r.Intn(10))}
		}
		name := "complete"
		if nullable {
			name = "incomplete"
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
			expr.NewBinary(expr.OpLeq, expr.NewBoundRef(2, "c", types.KindInt, false), expr.NewLiteral(types.Int(7))), scan)
		dims := []*expr.SkylineDimension{
			expr.NewSkylineDimension(expr.NewBoundRef(0, "a", types.KindInt, nullable), expr.SkyMin),
			expr.NewSkylineDimension(expr.NewBoundRef(1, "b", types.KindInt, false), expr.SkyMax),
		}
		sky := plan.NewSkylineOperator(false, false, dims, filter)
		for _, st := range allStrategies {
			label := fmt.Sprintf("%s/%v", name, st)
			unfusedOp, err := Plan(sky, Options{Strategy: st, DisableStageFusion: true})
			if err != nil {
				t.Fatalf("%s: plan unfused: %v", label, err)
			}
			fusedOp, err := Plan(sky, Options{Strategy: st})
			if err != nil {
				t.Fatalf("%s: plan fused: %v", label, err)
			}
			uctx, fctx := cluster.NewContext(4), cluster.NewContext(4)
			unfused, err := Execute(unfusedOp, uctx)
			if err != nil {
				t.Fatalf("%s: unfused execute: %v", label, err)
			}
			fused, err := Execute(fusedOp, fctx)
			if err != nil {
				t.Fatalf("%s: fused execute: %v", label, err)
			}
			assertSameRows(t, label, unfused, fused)
			if fctx.Metrics.StagesExecuted() > uctx.Metrics.StagesExecuted() {
				t.Errorf("%s: fused scheduled %d rounds, unfused %d",
					label, fctx.Metrics.StagesExecuted(), uctx.Metrics.StagesExecuted())
			}
		}
	}
}

// TestKernelBoxedEquivalenceAllStrategies is the columnar-kernel contract:
// for every SkylineStrategy (complete and incomplete data, distinct both
// ways) the kernel-on plan must be
// row-for-row identical to the kernel-off (boxed CompareFunc) plan.
func TestKernelBoxedEquivalenceAllStrategies(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, nullable := range []bool{false, true} {
		nRows := 160
		data := make([][]int64, nRows)
		for i := range data {
			data[i] = []int64{int64(r.Intn(15)), int64(r.Intn(15)), int64(r.Intn(4))}
		}
		name := "kcomplete"
		if nullable {
			name = "kincomplete"
		}
		tab := intTable(t, name, []string{"a", "b", "c"}, data)
		if nullable {
			tab.Schema.Fields[0].Nullable = true
			tab.Schema.Fields[1].Nullable = true
			for i := 0; i < nRows; i += 5 {
				tab.Rows[i][i%2] = types.Null
			}
		}
		scan := plan.NewScan(tab, name)
		dims := []*expr.SkylineDimension{
			expr.NewSkylineDimension(expr.NewBoundRef(0, "a", types.KindInt, nullable), expr.SkyMin),
			expr.NewSkylineDimension(expr.NewBoundRef(1, "b", types.KindInt, nullable), expr.SkyMax),
			expr.NewSkylineDimension(expr.NewBoundRef(2, "c", types.KindInt, false), expr.SkyDiff),
		}
		for _, distinct := range []bool{false, true} {
			sky := plan.NewSkylineOperator(distinct, false, dims, scan)
			for _, st := range allStrategies {
				label := fmt.Sprintf("%s/%v/distinct=%v", name, st, distinct)
				kernelOp, err := Plan(sky, Options{Strategy: st})
				if err != nil {
					t.Fatalf("%s: plan kernel: %v", label, err)
				}
				boxedOp, err := Plan(sky, Options{Strategy: st, DisableColumnarKernel: true})
				if err != nil {
					t.Fatalf("%s: plan boxed: %v", label, err)
				}
				kctx, bctx := cluster.NewContext(4), cluster.NewContext(4)
				kernel, err := Execute(kernelOp, kctx)
				if err != nil {
					t.Fatalf("%s: kernel execute: %v", label, err)
				}
				boxed, err := Execute(boxedOp, bctx)
				if err != nil {
					t.Fatalf("%s: boxed execute: %v", label, err)
				}
				assertSameRows(t, label, boxed, kernel)
				if kctx.Metrics.Sky.DominanceTests() == 0 && len(boxed) < nRows {
					t.Errorf("%s: kernel path recorded no dominance tests", label)
				}
			}
		}
	}
}

// TestKernelFallbackNonNumericDims pins the transparent fallback: a skyline
// over a string MIN dimension cannot decode into the columnar kernel and
// must still produce correct results through the boxed path, kernel enabled.
func TestKernelFallbackNonNumericDims(t *testing.T) {
	tab, err := catalog.NewTable("s", types.NewSchema(
		types.Field{Name: "name", Type: types.KindString},
		types.Field{Name: "v", Type: types.KindInt},
	), []types.Row{
		{types.Str("b"), types.Int(2)},
		{types.Str("a"), types.Int(3)},
		{types.Str("a"), types.Int(1)},
		{types.Str("c"), types.Int(9)},
	})
	if err != nil {
		t.Fatal(err)
	}
	scan := plan.NewScan(tab, "s")
	dims := []*expr.SkylineDimension{
		expr.NewSkylineDimension(expr.NewBoundRef(0, "name", types.KindString, false), expr.SkyMin),
		expr.NewSkylineDimension(expr.NewBoundRef(1, "v", types.KindInt, false), expr.SkyMin),
	}
	sky := plan.NewSkylineOperator(false, false, dims, scan)
	op, err := Plan(sky, Options{Strategy: SkylineDistributedComplete})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Execute(op, cluster.NewContext(2))
	if err != nil {
		t.Fatalf("kernel-enabled plan over string dims must fall back, got error: %v", err)
	}
	if len(rows) != 1 || rows[0][0].AsString() != "a" || rows[0][1].AsInt() != 1 {
		t.Fatalf("fallback skyline = %v, want [a 1]", rows)
	}
}

// TestFusedPipelinePeakBytesLower is the memory regression contract: a
// filter -> project -> local-skyline chain must materialize strictly less
// peak memory fused (stage-scoped charge, no intermediates) than
// per-operator, and must schedule strictly fewer task rounds.
func TestFusedPipelinePeakBytesLower(t *testing.T) {
	nRows := 400
	data := make([][]int64, nRows)
	for i := range data {
		data[i] = []int64{int64(i % 50), int64((nRows - i) % 50), int64(i), int64(i * 3)}
	}
	tab := intTable(t, "t", []string{"a", "b", "c", "d"}, data)
	chain := func() Operator {
		filter := &FilterExec{
			Cond:  expr.NewBinary(expr.OpLeq, expr.NewBoundRef(0, "a", types.KindInt, false), expr.NewLiteral(types.Int(49))),
			Child: scanOf(t, tab),
		}
		// Widening projection: intermediates are bigger than the input.
		refs := make([]expr.Expr, 6)
		fields := make([]types.Field, 6)
		for i := range refs {
			refs[i] = expr.NewBoundRef(i%4, "x", types.KindInt, false)
			fields[i] = types.Field{Name: fmt.Sprintf("p%d", i), Type: types.KindInt}
		}
		project := NewProjectExec(refs, types.NewSchema(fields...), filter)
		return &LocalSkylineExec{
			Dims: []BoundDim{
				{E: expr.NewBoundRef(0, "a", types.KindInt, false), Dir: skyline.Min},
				{E: expr.NewBoundRef(1, "b", types.KindInt, false), Dir: skyline.Min},
			},
			Child: project,
		}
	}
	unfused, fused, uctx, fctx := execBoth(t, chain(), 4)
	assertSameRows(t, "3-op chain", unfused, fused)
	if fctx.Metrics.PeakBytes() >= uctx.Metrics.PeakBytes() {
		t.Errorf("fused peak bytes %d must be strictly lower than unfused %d",
			fctx.Metrics.PeakBytes(), uctx.Metrics.PeakBytes())
	}
	if fctx.Metrics.StagesExecuted() >= uctx.Metrics.StagesExecuted() {
		t.Errorf("fused task rounds %d must be strictly fewer than unfused %d",
			fctx.Metrics.StagesExecuted(), uctx.Metrics.StagesExecuted())
	}
	if got := CountStages(CompileStages(chain())); got != 1 {
		t.Errorf("chain must compile into exactly 1 fused stage, got %d", got)
	}
}

// TestCompileStagesDoesNotMutate pins the compiler's purity: compiling
// must leave the input tree executable and unchanged.
func TestCompileStagesDoesNotMutate(t *testing.T) {
	tab := intTable(t, "t", []string{"a"}, [][]int64{{3}, {1}, {2}})
	f := &FilterExec{
		Cond:  expr.NewBinary(expr.OpGt, ref(0), expr.NewLiteral(types.Int(1))),
		Child: scanOf(t, tab),
	}
	compiled := CompileStages(f)
	if _, ok := compiled.(*PipelineExec); !ok {
		t.Fatalf("compiled root = %T, want *PipelineExec", compiled)
	}
	if _, ok := f.Child.(*ScanExec); !ok {
		t.Errorf("original tree mutated: filter child is %T", f.Child)
	}
	rows := gather(t, f, 2)
	if len(rows) != 2 {
		t.Errorf("original tree no longer executable: %v", rows)
	}
}

// TestExtremumFilterFusedTail pins the StageSource path: narrow operators
// above an ExtremumFilterExec run inside its second pass, saving a round,
// with identical results.
func TestExtremumFilterFusedTail(t *testing.T) {
	tab := intTable(t, "t", []string{"a", "b"}, [][]int64{{1, 9}, {1, 3}, {2, 5}, {1, 7}})
	chain := func() Operator {
		x := &ExtremumFilterExec{E: ref(0), Child: scanOf(t, tab)}
		return &FilterExec{
			Cond:  expr.NewBinary(expr.OpGt, expr.NewBoundRef(1, "b", types.KindInt, false), expr.NewLiteral(types.Int(4))),
			Child: x,
		}
	}
	unfused, fused, uctx, fctx := execBoth(t, chain(), 2)
	assertSameRows(t, "extremum tail", unfused, fused)
	if len(fused) != 2 {
		t.Fatalf("rows = %v", fused)
	}
	if fctx.Metrics.StagesExecuted() >= uctx.Metrics.StagesExecuted() {
		t.Errorf("fused tail must save a round: fused %d, unfused %d",
			fctx.Metrics.StagesExecuted(), uctx.Metrics.StagesExecuted())
	}
}
