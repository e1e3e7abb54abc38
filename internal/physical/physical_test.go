package physical

import (
	"sort"
	"strings"
	"testing"

	"skysql/internal/catalog"
	"skysql/internal/cluster"
	"skysql/internal/expr"
	"skysql/internal/plan"
	"skysql/internal/skyline"
	"skysql/internal/types"
)

func intTable(t *testing.T, name string, cols []string, data [][]int64) *catalog.Table {
	t.Helper()
	fields := make([]types.Field, len(cols))
	for i, c := range cols {
		fields[i] = types.Field{Name: c, Type: types.KindInt}
	}
	rows := make([]types.Row, len(data))
	for i, d := range data {
		row := make(types.Row, len(d))
		for j, v := range d {
			row[j] = types.Int(v)
		}
		rows[i] = row
	}
	tab, err := catalog.NewTable(name, types.NewSchema(fields...), rows)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func scanOf(t *testing.T, tab *catalog.Table) *ScanExec {
	t.Helper()
	return NewScanExec(tab, tab.Schema.WithQualifier(tab.Name))
}

func ref(i int) *expr.BoundRef { return expr.NewBoundRef(i, "c", types.KindInt, false) }

func gather(t *testing.T, op Operator, executors int) []types.Row {
	t.Helper()
	rows, err := Execute(op, cluster.NewContext(executors))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func sortedInts(rows []types.Row, col int) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[col].AsInt()
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func TestScanPartitionsByExecutors(t *testing.T) {
	tab := intTable(t, "t", []string{"a"}, [][]int64{{1}, {2}, {3}, {4}, {5}, {6}})
	op := scanOf(t, tab)
	ds, err := op.Execute(cluster.NewContext(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Parts) != 3 {
		t.Errorf("partitions = %d, want 3", len(ds.Parts))
	}
	if ds.NumRows() != 6 {
		t.Errorf("rows = %d", ds.NumRows())
	}
}

func TestFilterAndProject(t *testing.T) {
	tab := intTable(t, "t", []string{"a"}, [][]int64{{1}, {2}, {3}, {4}})
	f := &FilterExec{Cond: expr.NewBinary(expr.OpGt, ref(0), expr.NewLiteral(types.Int(2))), Child: scanOf(t, tab)}
	p := NewProjectExec(
		[]expr.Expr{expr.NewBinary(expr.OpMul, ref(0), expr.NewLiteral(types.Int(10)))},
		types.NewSchema(types.Field{Name: "x", Type: types.KindInt}), f)
	got := sortedInts(gather(t, p, 2), 0)
	if len(got) != 2 || got[0] != 30 || got[1] != 40 {
		t.Errorf("result = %v", got)
	}
}

func TestSortNullsFirstAscLastDesc(t *testing.T) {
	tab := intTable(t, "t", []string{"a"}, nil)
	tab.Rows = []types.Row{{types.Int(2)}, {types.Null}, {types.Int(1)}}
	tab.Schema.Fields[0].Nullable = true
	asc := &SortExec{Orders: []SortKey{{E: ref(0)}}, Child: scanOf(t, tab)}
	rows := gather(t, asc, 2)
	if !rows[0][0].IsNull() || rows[1][0].AsInt() != 1 {
		t.Errorf("ASC order = %v", rows)
	}
	desc := &SortExec{Orders: []SortKey{{E: ref(0), Desc: true}}, Child: scanOf(t, tab)}
	rows = gather(t, desc, 2)
	if rows[0][0].AsInt() != 2 || !rows[2][0].IsNull() {
		t.Errorf("DESC order = %v", rows)
	}
}

func TestLimitAndDistinct(t *testing.T) {
	tab := intTable(t, "t", []string{"a"}, [][]int64{{1}, {1}, {2}, {2}, {3}})
	d := &DistinctExec{Child: scanOf(t, tab)}
	if got := gather(t, d, 2); len(got) != 3 {
		t.Errorf("distinct = %v", got)
	}
	l := &LimitExec{N: 2, Child: scanOf(t, tab)}
	if got := gather(t, l, 2); len(got) != 2 {
		t.Errorf("limit = %v", got)
	}
}

func TestHashJoinInnerAndOuter(t *testing.T) {
	left := intTable(t, "l", []string{"id", "v"}, [][]int64{{1, 10}, {2, 20}, {3, 30}})
	right := intTable(t, "r", []string{"id", "w"}, [][]int64{{1, 100}, {1, 101}, {3, 300}})
	schema := types.NewSchema(
		types.Field{Name: "id"}, types.Field{Name: "v"},
		types.Field{Name: "id"}, types.Field{Name: "w"},
	)
	inner := NewHashJoinExec(plan.InnerJoin, scanOf(t, left), scanOf(t, right),
		[]expr.Expr{ref(0)}, []expr.Expr{ref(0)}, nil, schema)
	rows := gather(t, inner, 3)
	if len(rows) != 3 { // 1 matches twice, 3 once
		t.Fatalf("inner join rows = %v", rows)
	}
	outer := NewHashJoinExec(plan.LeftOuterJoin, scanOf(t, left), scanOf(t, right),
		[]expr.Expr{ref(0)}, []expr.Expr{ref(0)}, nil, schema)
	rows = gather(t, outer, 3)
	if len(rows) != 4 {
		t.Fatalf("left outer rows = %v", rows)
	}
	nullSeen := false
	for _, r := range rows {
		if r[0].AsInt() == 2 && r[3].IsNull() {
			nullSeen = true
		}
	}
	if !nullSeen {
		t.Error("unmatched left row not null-extended")
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	left := intTable(t, "l", []string{"id"}, nil)
	left.Rows = []types.Row{{types.Null}, {types.Int(1)}}
	right := intTable(t, "r", []string{"id"}, nil)
	right.Rows = []types.Row{{types.Null}, {types.Int(1)}}
	schema := types.NewSchema(types.Field{Name: "id"}, types.Field{Name: "id"})
	j := NewHashJoinExec(plan.InnerJoin, scanOf(t, left), scanOf(t, right),
		[]expr.Expr{ref(0)}, []expr.Expr{ref(0)}, nil, schema)
	rows := gather(t, j, 2)
	if len(rows) != 1 {
		t.Errorf("NULL = NULL must not join: %v", rows)
	}
}

func TestNestedLoopAntiJoin(t *testing.T) {
	// The reference-algorithm shape: keep left rows with no dominating
	// right row.
	left := intTable(t, "l", []string{"a"}, [][]int64{{1}, {2}, {3}})
	right := intTable(t, "r", []string{"b"}, [][]int64{{1}, {2}, {3}})
	// anti-condition: r.b < l.a (exists smaller) → survivors have no
	// smaller value → only the minimum (1).
	cond := expr.NewBinary(expr.OpLt, ref(1), ref(0))
	anti := NewNestedLoopJoinExec(plan.LeftAntiJoin, scanOf(t, left), scanOf(t, right),
		cond, types.NewSchema(types.Field{Name: "a"}))
	rows := gather(t, anti, 2)
	if len(rows) != 1 || rows[0][0].AsInt() != 1 {
		t.Errorf("anti join = %v", rows)
	}
	semi := NewNestedLoopJoinExec(plan.LeftSemiJoin, scanOf(t, left), scanOf(t, right),
		cond, types.NewSchema(types.Field{Name: "a"}))
	rows = gather(t, semi, 2)
	if len(rows) != 2 {
		t.Errorf("semi join = %v", rows)
	}
}

func TestNestedLoopCrossJoin(t *testing.T) {
	left := intTable(t, "l", []string{"a"}, [][]int64{{1}, {2}})
	right := intTable(t, "r", []string{"b"}, [][]int64{{10}, {20}, {30}})
	cross := NewNestedLoopJoinExec(plan.CrossJoin, scanOf(t, left), scanOf(t, right),
		nil, types.NewSchema(types.Field{Name: "a"}, types.Field{Name: "b"}))
	rows := gather(t, cross, 2)
	if len(rows) != 6 {
		t.Errorf("cross join = %d rows, want 6", len(rows))
	}
}

func TestExtremumFilterExec(t *testing.T) {
	tab := intTable(t, "t", []string{"a"}, [][]int64{{3}, {1}, {2}, {1}})
	x := &ExtremumFilterExec{E: ref(0), Child: scanOf(t, tab)}
	rows := gather(t, x, 2)
	if len(rows) != 2 || rows[0][0].AsInt() != 1 {
		t.Errorf("min filter = %v", rows)
	}
	xmax := &ExtremumFilterExec{E: ref(0), Max: true, Child: scanOf(t, tab)}
	rows = gather(t, xmax, 2)
	if len(rows) != 1 || rows[0][0].AsInt() != 3 {
		t.Errorf("max filter = %v", rows)
	}
}

func TestExtremumFilterSkipsNulls(t *testing.T) {
	tab := intTable(t, "t", []string{"a"}, nil)
	tab.Rows = []types.Row{{types.Null}, {types.Int(5)}}
	x := &ExtremumFilterExec{E: ref(0), Child: scanOf(t, tab)}
	rows := gather(t, x, 2)
	if len(rows) != 1 || rows[0][0].AsInt() != 5 {
		t.Errorf("null handling = %v", rows)
	}
	empty := intTable(t, "e", []string{"a"}, nil)
	empty.Rows = []types.Row{{types.Null}}
	x2 := &ExtremumFilterExec{E: ref(0), Child: scanOf(t, empty)}
	if rows := gather(t, x2, 1); len(rows) != 0 {
		t.Errorf("all-null extremum = %v", rows)
	}
}

func TestLocalGlobalSkylineExec(t *testing.T) {
	tab := intTable(t, "t", []string{"x", "y"}, [][]int64{
		{1, 5}, {2, 4}, {3, 3}, {1, 1}, {5, 5},
	})
	dims := []BoundDim{
		{E: expr.NewBoundRef(0, "x", types.KindInt, false), Dir: skyline.Min},
		{E: expr.NewBoundRef(1, "y", types.KindInt, false), Dir: skyline.Max},
	}
	local := &LocalSkylineExec{Dims: dims, Child: scanOf(t, tab)}
	gatherEx := &ExchangeExec{Dist: cluster.AllTuples, Child: local}
	global := &GlobalSkylineExec{Dims: dims, Child: gatherEx}
	rows := gather(t, global, 3)
	// skyline of (x MIN, y MAX): (1,5) dominates (2,4),(3,3),(1,1),(5,5).
	if len(rows) != 1 || rows[0][0].AsInt() != 1 || rows[0][1].AsInt() != 5 {
		t.Errorf("skyline = %v", rows)
	}
}

func TestGlobalSkylineAlgorithms(t *testing.T) {
	tab := intTable(t, "t", []string{"x", "y"}, [][]int64{
		{1, 9}, {2, 8}, {3, 7}, {9, 1}, {5, 5}, {2, 9},
	})
	dims := []BoundDim{
		{E: expr.NewBoundRef(0, "x", types.KindInt, false)},
		{E: expr.NewBoundRef(1, "y", types.KindInt, false)},
	}
	var want []int64
	for _, incomplete := range []bool{false, true} {
		g := &GlobalSkylineExec{Dims: dims, Incomplete: incomplete, Child: scanOf(t, tab)}
		got := sortedInts(gather(t, g, 2), 0)
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Errorf("incomplete=%v: %v != %v", incomplete, got, want)
		}
	}
}

func TestPlannerListing8Selection(t *testing.T) {
	mk := func(nullable bool) *plan.SkylineOperator {
		tab := intTable(t, "t", []string{"a", "b"}, [][]int64{{1, 2}})
		tab.Schema.Fields[0].Nullable = nullable
		scan := plan.NewScan(tab, "t")
		dims := []*expr.SkylineDimension{
			expr.NewSkylineDimension(expr.NewBoundRef(0, "a", types.KindInt, nullable), expr.SkyMin),
			expr.NewSkylineDimension(expr.NewBoundRef(1, "b", types.KindInt, false), expr.SkyMax),
		}
		return plan.NewSkylineOperator(false, false, dims, scan)
	}
	// Non-nullable → complete nodes.
	op, err := Plan(mk(false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Format(op), "GlobalSkylineExec(bnl)") {
		t.Errorf("complete plan wrong:\n%s", Format(op))
	}
	// Nullable → incomplete nodes with NullBitmap exchange.
	op, err = Plan(mk(true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := Format(op)
	if !strings.Contains(out, "GlobalSkylineExec(incomplete)") || !strings.Contains(out, "NullBitmap") {
		t.Errorf("incomplete plan wrong:\n%s", out)
	}
	// Nullable + COMPLETE flag → complete nodes (Listing 8 line 2).
	sky := mk(true)
	sky.Complete = true
	op, err = Plan(sky, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Format(op), "GlobalSkylineExec(bnl)") {
		t.Errorf("COMPLETE override ignored:\n%s", Format(op))
	}
}

func TestPlannerStrategies(t *testing.T) {
	tab := intTable(t, "t", []string{"a", "b"}, [][]int64{{1, 2}, {2, 1}})
	scan := plan.NewScan(tab, "t")
	dims := []*expr.SkylineDimension{
		expr.NewSkylineDimension(expr.NewBoundRef(0, "a", types.KindInt, false), expr.SkyMin),
		expr.NewSkylineDimension(expr.NewBoundRef(1, "b", types.KindInt, false), expr.SkyMin),
	}
	sky := plan.NewSkylineOperator(false, false, dims, scan)
	wants := map[SkylineStrategy]string{
		SkylineNonDistributedComplete: "GlobalSkylineExec(bnl)",
		SkylineDistributedIncomplete:  "NullBitmap",
	}
	for st, want := range wants {
		op, err := Plan(sky, Options{Strategy: st})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(Format(op), want) {
			t.Errorf("strategy %v plan missing %q:\n%s", st, want, Format(op))
		}
		if st == SkylineNonDistributedComplete && strings.Contains(Format(op), "LocalSkylineExec") {
			t.Errorf("non-distributed plan must skip the local skyline:\n%s", Format(op))
		}
		rows := gather(t, op, 2)
		if len(rows) != 2 {
			t.Errorf("strategy %v rows = %v", st, rows)
		}
	}
}

func TestExtractEquiKeys(t *testing.T) {
	// cond over combined schema (left width 2): l0 = r2 AND l1 < r3
	cond := expr.NewBinary(expr.OpAnd,
		expr.NewBinary(expr.OpEq, ref(0), ref(2)),
		expr.NewBinary(expr.OpLt, ref(1), ref(3)))
	lk, rk, residual := extractEquiKeys(cond, 2)
	if len(lk) != 1 || len(rk) != 1 {
		t.Fatalf("keys = %v / %v", lk, rk)
	}
	if rk[0].(*expr.BoundRef).Index != 0 {
		t.Errorf("right key not rebased: %v", rk[0])
	}
	if residual == nil {
		t.Error("non-equi conjunct must become residual")
	}
	// Reversed sides: r2 = l0.
	cond2 := expr.NewBinary(expr.OpEq, ref(2), ref(0))
	lk, rk, residual = extractEquiKeys(cond2, 2)
	if len(lk) != 1 || residual != nil {
		t.Errorf("reversed equi extraction failed: %v %v %v", lk, rk, residual)
	}
}

func TestAggregateExecTwoPhase(t *testing.T) {
	tab := intTable(t, "t", []string{"g", "v"}, [][]int64{
		{1, 10}, {1, 20}, {2, 5}, {2, 7}, {3, 1},
	})
	groups := []expr.Expr{ref(0)}
	outputs := []expr.Expr{
		ref(0),
		expr.NewAggregate(expr.AggSum, expr.NewBoundRef(1, "v", types.KindInt, false)),
		expr.NewCountStar(),
	}
	schema := types.NewSchema(types.Field{Name: "g"}, types.Field{Name: "s"}, types.Field{Name: "n"})
	agg := NewAggregateExec(groups, outputs, schema, scanOf(t, tab))
	rows := gather(t, agg, 3) // 3 partitions → partial + merge exercised
	if len(rows) != 3 {
		t.Fatalf("groups = %v", rows)
	}
	byG := map[int64][2]int64{}
	for _, r := range rows {
		byG[r[0].AsInt()] = [2]int64{r[1].AsInt(), r[2].AsInt()}
	}
	if byG[1] != [2]int64{30, 2} || byG[2] != [2]int64{12, 2} || byG[3] != [2]int64{1, 1} {
		t.Errorf("aggregates = %v", byG)
	}
}

func TestGridAngleStrategiesProduceCorrectSkyline(t *testing.T) {
	tab := intTable(t, "t", []string{"x", "y"}, [][]int64{
		{1, 9}, {2, 8}, {9, 1}, {5, 5}, {3, 9}, {1, 1},
	})
	scan := plan.NewScan(tab, "t")
	dims := []*expr.SkylineDimension{
		expr.NewSkylineDimension(expr.NewBoundRef(0, "x", types.KindInt, false), expr.SkyMin),
		expr.NewSkylineDimension(expr.NewBoundRef(1, "y", types.KindInt, false), expr.SkyMin),
	}
	sky := plan.NewSkylineOperator(false, false, dims, scan)
	var want []int64
	for _, st := range []SkylineStrategy{SkylineDistributedComplete, SkylineGridComplete, SkylineAngleComplete, SkylineZorderComplete} {
		op, err := Plan(sky, Options{Strategy: st})
		if err != nil {
			t.Fatal(err)
		}
		got := sortedInts(gather(t, op, 4), 0)
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Errorf("strategy %v size %d != %d", st, len(got), len(want))
		}
	}
}
