package physical

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"skysql/internal/analyzer"
	"skysql/internal/catalog"
	"skysql/internal/cluster"
	"skysql/internal/expr"
	"skysql/internal/optimizer"
	"skysql/internal/plan"
	"skysql/internal/sql"
	"skysql/internal/storage"
	"skysql/internal/types"
)

// segmentTwinPlans builds the same filtered-skyline logical plan twice:
// once over an in-memory table and once over its segment-backed twin
// (same rows, same order, segRows rows per segment). Column a ascends
// 0..nRows-1, so each segment covers a tight a-range and the filter
// a < cut provably empties every segment past the cut — the clustering a
// real ingest would apply for a range-filtered column.
func segmentTwinPlans(t *testing.T, name string, nRows, segRows int, cut int64) (mem, seg *plan.SkylineOperator) {
	t.Helper()
	r := rand.New(rand.NewSource(43))
	data := make([][]int64, nRows)
	for i := range data {
		data[i] = []int64{int64(i), int64(r.Intn(40))}
	}
	memTab := intTable(t, name, []string{"a", "b"}, data)
	store, err := storage.FromRows(memTab.Rows, memTab.Schema, "", name, segRows)
	if err != nil {
		t.Fatal(err)
	}
	segTab := catalog.NewSegmentTable(name, store)

	build := func(tab *catalog.Table) *plan.SkylineOperator {
		cond := expr.NewBinary(expr.OpLt,
			expr.NewBoundRef(0, "a", types.KindInt, false),
			expr.NewLiteral(types.Int(cut)))
		dims := []*expr.SkylineDimension{
			expr.NewSkylineDimension(expr.NewBoundRef(0, "a", types.KindInt, false), expr.SkyMin),
			expr.NewSkylineDimension(expr.NewBoundRef(1, "b", types.KindInt, false), expr.SkyMax),
		}
		return plan.NewSkylineOperator(false, false, dims,
			plan.NewFilter(cond, plan.NewScan(tab, name)))
	}
	return build(memTab), build(segTab)
}

// TestSegmentScanContractAllStrategies is the standing contract of the
// segment storage layer: a segment-backed scan — zone-map pruning
// included — must be bit-identical to the in-memory scan of the same
// rows, across every SkylineStrategy × kernel ablation,
// and the pruning must actually fire (the filter cut lies well
// inside the clustered range, so trailing segments are provably empty).
func TestSegmentScanContractAllStrategies(t *testing.T) {
	const executors = 4
	ablations := []struct {
		name string
		opts Options
	}{
		{"full", Options{}},
		{"boxed-kernel", Options{DisableColumnarKernel: true}},
	}
	for _, st := range allStrategies {
		for _, ab := range ablations {
			label := fmt.Sprintf("%v/%s", st, ab.name)
			memPlan, segPlan := segmentTwinPlans(t, fmt.Sprintf("sc_%v_%s", st, ab.name), 200, 25, 60)
			opts := ab.opts
			opts.Strategy = st

			memOp, err := Plan(memPlan, opts)
			if err != nil {
				t.Fatalf("%s: plan memory: %v", label, err)
			}
			mctx := cluster.NewContext(executors)
			memRows, err := Execute(memOp, mctx)
			if err != nil {
				t.Fatalf("%s: execute memory: %v", label, err)
			}

			segOp, err := Plan(segPlan, opts)
			if err != nil {
				t.Fatalf("%s: plan segments: %v", label, err)
			}
			sctx := cluster.NewContext(executors)
			segRows, err := Execute(segOp, sctx)
			if err != nil {
				t.Fatalf("%s: execute segments: %v", label, err)
			}

			assertSameRows(t, "memory vs segments "+label, memRows, segRows)
			if len(memRows) == 0 {
				t.Fatalf("%s: empty skyline proves nothing", label)
			}
			if got := sctx.Metrics.SegmentsPruned(); got == 0 {
				t.Errorf("%s: segment scan pruned nothing — a < 60 over 8 clustered segments must skip the tail", label)
			}
			if got := mctx.Metrics.SegmentsPruned(); got != 0 {
				t.Errorf("%s: in-memory scan reported %d pruned segments", label, got)
			}
		}
	}
}

// TestSegmentPruneCountersDeterministic pins the prune counter as a pure
// function of (data, predicate, segment size): repeat runs and Simulator
// runs of the same plan must report the same SegmentsPruned.
func TestSegmentPruneCountersDeterministic(t *testing.T) {
	const executors = 4
	_, segPlan := segmentTwinPlans(t, "det", 200, 25, 60)
	op, err := Plan(segPlan, Options{Strategy: SkylineDistributedComplete})
	if err != nil {
		t.Fatal(err)
	}
	run := func(simulate bool) (int64, []string) {
		ctx := cluster.NewContext(executors)
		if simulate {
			ctx.Runner = &cluster.Simulator{Executors: executors}
		}
		rows, err := Execute(op, ctx)
		if err != nil {
			t.Fatalf("simulate=%v: %v", simulate, err)
		}
		return ctx.Metrics.SegmentsPruned(), rowStrings(rows)
	}
	p1, r1 := run(false)
	p2, r2 := run(false)
	p3, r3 := run(true)
	if p1 == 0 {
		t.Fatal("plan pruned no segments — the determinism check would be vacuous")
	}
	if p1 != p2 || p1 != p3 {
		t.Errorf("SegmentsPruned not deterministic: live %d, repeat %d, simulate %d", p1, p2, p3)
	}
	if fmt.Sprint(r1) != fmt.Sprint(r2) || fmt.Sprint(r1) != fmt.Sprint(r3) {
		t.Error("repeat/simulate runs changed the result rows")
	}
}

// wideTwins registers the same wide table twice — in memory as "mem" and
// as segments of segRows rows as "seg" — covering what the page path must
// serve or refuse: int id, a dense float y, a nullable float x with NULL
// and ±Inf, a nullable float f with NULL, NaN and ±Inf, an int column big
// holding values beyond 2⁵³, a string s, a bool b, a column m mixing
// kinds (a boxed page) and a float column n mixing ints and floats with
// NULL and a few ints beyond 2⁵³ (a boxed page the page path reads).
func wideTwins(t *testing.T, nRows, segRows int) *catalog.Catalog {
	t.Helper()
	r := rand.New(rand.NewSource(23))
	rn := rand.New(rand.NewSource(31))
	schema := types.NewSchema(
		types.Field{Name: "id", Type: types.KindInt},
		types.Field{Name: "y", Type: types.KindFloat},
		types.Field{Name: "x", Type: types.KindFloat, Nullable: true},
		types.Field{Name: "f", Type: types.KindFloat, Nullable: true},
		types.Field{Name: "big", Type: types.KindInt},
		types.Field{Name: "s", Type: types.KindString, Nullable: true},
		types.Field{Name: "b", Type: types.KindBool},
		types.Field{Name: "m", Type: types.KindNull, Nullable: true},
		types.Field{Name: "n", Type: types.KindFloat, Nullable: true},
	)
	words := []string{"red", "green", "blue"}
	rows := make([]types.Row, nRows)
	for i := range rows {
		x := types.Value(types.Float(float64(r.Intn(50)) / 10))
		switch r.Intn(9) {
		case 0:
			x = types.Null
		case 1:
			x = types.Float(math.Inf(1 - 2*r.Intn(2)))
		}
		f := types.Value(types.Float(r.Float64()))
		switch r.Intn(8) {
		case 0:
			f = types.Null
		case 1:
			f = types.Float(math.NaN())
		case 2:
			f = types.Float(math.Inf(1 - 2*r.Intn(2)))
		}
		big := types.Int(int64(r.Intn(20)))
		if i%17 == 3 {
			big = types.Int(types.MaxExactFloatInt + int64(i))
		}
		s := types.Value(types.Str(words[r.Intn(len(words))]))
		if i%11 == 0 {
			s = types.Null
		}
		m := []types.Value{types.Int(int64(i)), types.Float(float64(i) / 4), types.Str("m"), types.Null, types.Bool(i%2 == 0)}[r.Intn(5)]
		n := []types.Value{types.Int(int64(rn.Intn(9))), types.Float(rn.Float64() * 8), types.Null}[rn.Intn(3)]
		if i%41 == 5 {
			n = types.Int(types.MaxExactFloatInt + 7)
		}
		rows[i] = types.Row{types.Int(int64(i)), types.Float(float64(r.Intn(1000)) / 100), x, f, big, s, types.Bool(r.Intn(2) == 0), m, n}
	}
	store, err := storage.FromRows(rows, schema, "", "seg", segRows)
	if err != nil {
		t.Fatal(err)
	}
	// The twin holds the segments' rows as they are. NewTable would refuse
	// n's ints beyond 2⁵³ in a DOUBLE column, which segment files written
	// outside the catalog can still carry.
	mem := &catalog.Table{Name: "mem", Schema: schema, Rows: rows}
	cat := catalog.New()
	cat.Register(mem)
	cat.Register(catalog.NewSegmentTable("seg", store))
	return cat
}

// wideQueries are the shapes the wide-table contract runs, {{T}} standing
// for the table: the page path proper; a filter the page path refuses at
// run time (big holds ints beyond 2⁵³); DIFF on a string (no page plan);
// NULL in a dimension, complete and incomplete; NaN in a dimension (the
// batch refuses it); a projection above the skyline selecting the mixed,
// string and bool columns the survivors are boxed from; a skyline with no
// filter in front of it. Then the selection-first shapes: literals on the
// left, every operator and -0; a conjunct the zone maps prove full on
// every segment beside column-vs-column; engine conjuncts (arithmetic, IS
// NOT NULL) between page-byte ones; a filter column that refuses only at
// rows still selected (big beyond 2⁵³); and a boxed page both filtered and
// gathered, refusing where its big ints are still selected.
var wideQueries = []string{
	"SELECT * FROM {{T}} WHERE id >= 40 AND f < 0.5 SKYLINE OF COMPLETE y MIN, id MAX",
	"SELECT * FROM {{T}} WHERE big > 5 SKYLINE OF COMPLETE y MIN, id MAX",
	"SELECT * FROM {{T}} WHERE id >= 10 SKYLINE OF COMPLETE s DIFF, y MIN, id MAX",
	"SELECT * FROM {{T}} WHERE id < 250 SKYLINE OF COMPLETE x MIN, y MIN",
	"SELECT * FROM {{T}} WHERE id < 250 SKYLINE OF x MIN, y MIN",
	"SELECT * FROM {{T}} WHERE y < 8 SKYLINE OF COMPLETE f MIN, y MIN",
	"SELECT m, id, s, b FROM {{T}} WHERE f > 0.1 SKYLINE OF COMPLETE y MAX, id MIN",
	"SELECT * FROM {{T}} SKYLINE OF COMPLETE y MIN, x MAX",
	"SELECT * FROM {{T}} WHERE 40 <= id AND y <> 5 AND 2.5 > x AND -0.0 <= x SKYLINE OF COMPLETE y MIN, id MAX",
	"SELECT * FROM {{T}} WHERE id > -1 AND f <= 0.9 AND y = y SKYLINE OF COMPLETE y MIN, x MAX",
	"SELECT * FROM {{T}} WHERE y + x < 6 AND id < 280 AND f IS NOT NULL AND f > 0.2 SKYLINE OF COMPLETE x MIN, y MIN",
	"SELECT * FROM {{T}} WHERE id > 100 AND big < 10 SKYLINE OF COMPLETE y MIN, id MAX",
	"SELECT * FROM {{T}} WHERE n >= 1 AND 7 > n SKYLINE OF COMPLETE n MIN, y MAX",
}

// planSQL compiles a statement the way the engine does — parse, build,
// analyze, optimize, plan — against cat.
func planSQL(t *testing.T, cat *catalog.Catalog, query string, opts Options) Operator {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	logical, err := plan.Build(stmt)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	resolved, err := analyzer.New(cat).Analyze(logical)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	op, err := Plan(optimizer.New().Optimize(resolved), opts)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	return op
}

// assertSameBits requires the same rows in the same order, every value
// identical in kind and payload — floats by bit pattern, so NaN, -0 and
// ±Inf must survive exactly.
func assertSameBits(t *testing.T, label string, want, got []types.Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("%s: row %d has %d values, want %d", label, i, len(got[i]), len(want[i]))
		}
		for c, w := range want[i] {
			g := got[i][c]
			same := w.Kind() == g.Kind()
			if same && w.Kind() == types.KindFloat {
				same = math.Float64bits(w.AsFloat()) == math.Float64bits(g.AsFloat())
			} else if same {
				same = w.String() == g.String()
			}
			if !same {
				t.Fatalf("%s: row %d column %d is %v, want %v", label, i, c, g, w)
			}
		}
	}
}

// wideContext is a context with morsel splitting forced down to a few
// rows. With the kernel off it also never decodes at the scan, the boxed
// reference the contract compares the page path against.
func wideContext(opts Options) *cluster.Context {
	ctx := cluster.NewContext(4)
	ctx.MorselParallel = true
	ctx.MorselTargetRows = 8
	ctx.DecodeAtScan = !opts.DisableColumnarKernel
	return ctx
}

// TestSegmentWideTableContract: over a table of every kind the page path
// must serve or refuse, a segment-backed scan — page path, boxed fallback
// and morsel splits alike — returns exactly the rows of the in-memory
// twin, in the same order, bit for bit, across every strategy × kernel
// ablation and two segment sizes. Every query
// also leaves exactly its result charged: no page, batch or boxed morsel
// stays on the books.
func TestSegmentWideTableContract(t *testing.T) {
	ablations := []struct {
		name string
		opts Options
	}{
		{"full", Options{}},
		{"boxed-kernel", Options{DisableColumnarKernel: true}},
	}
	for _, segRows := range []int{23, 97} {
		cat := wideTwins(t, 300, segRows)
		for qi, q := range wideQueries {
			for _, st := range allStrategies {
				for _, ab := range ablations {
					label := fmt.Sprintf("seg=%d q%d %v/%s", segRows, qi, st, ab.name)
					opts := ab.opts
					opts.Strategy = st
					memOp := planSQL(t, cat, strings.ReplaceAll(q, "{{T}}", "mem"), opts)
					segOp := planSQL(t, cat, strings.ReplaceAll(q, "{{T}}", "seg"), opts)
					want, memErr := Execute(memOp, wideContext(opts))
					ds, err := segOp.Execute(wideContext(opts))
					if memErr != nil || err != nil {
						// A strategy that cannot run the shape (Grid over a
						// DIFF dimension) must fail the same way on both.
						if memErr == nil || err == nil || memErr.Error() != err.Error() {
							t.Fatalf("%s: memory error %v, segments error %v", label, memErr, err)
						}
						continue
					}
					if len(want) == 0 {
						t.Fatalf("%s: empty skyline proves nothing", label)
					}
					assertSameBits(t, label, want, ds.Gather())
					// The stage reading the segments, run alone, leaves
					// exactly its output charged.
					sctx := wideContext(opts)
					out, err := segmentStage(segOp).Execute(sctx)
					if err != nil {
						t.Fatalf("%s: segment stage: %v", label, err)
					}
					if live, res := sctx.Metrics.LiveBytes(), out.MemSize(); live != res {
						t.Fatalf("%s: %d bytes live after the segment stage, its output holds %d", label, live, res)
					}
				}
			}
		}
	}
}

// segmentStage returns the operator that reads the segment-backed table
// in a plan: the fused stage over its scan, or the bare scan.
func segmentStage(op Operator) Operator {
	if p, ok := op.(*PipelineExec); ok {
		if s, ok := p.Source.(*ScanExec); ok && s.Table.Segments != nil {
			return p
		}
	}
	if s, ok := op.(*ScanExec); ok && s.Table.Segments != nil {
		return s
	}
	for _, c := range op.Children() {
		if st := segmentStage(c); st != nil {
			return st
		}
	}
	return nil
}

// TestSegmentPagePathChosenFromPlanAndData pins which morsels take the
// page path: the plan decides whether a stage has one (vectorizable
// filters ending in a local skyline over plain MIN/MAX columns), the data
// decides per morsel whether it serves (no big ints in a filter column,
// and for the kernel no NaN in a dimension); and where it serves it boxes
// only the rows that leave.
func TestSegmentPagePathChosenFromPlanAndData(t *testing.T) {
	cat := wideTwins(t, 300, 97)
	tab, _ := cat.Lookup("seg")
	seg := tab.Segments.Segments()[1]
	for _, tc := range []struct {
		query       string
		opts        Options
		planned     bool
		serves      bool
		boxedAtMost int
	}{
		{wideQueries[0], Options{}, true, true, 40},
		{wideQueries[1], Options{}, true, false, 0},
		{wideQueries[2], Options{}, false, false, 0},
		{wideQueries[3], Options{}, true, true, 40},
		{wideQueries[5], Options{}, true, false, 0},
		{wideQueries[7], Options{}, true, true, 40},
		// A filter the engine does not vectorize (a string comparison)
		// refuses the page path at plan time.
		{"SELECT * FROM {{T}} WHERE s = 'red' SKYLINE OF COMPLETE y MIN, id MAX", Options{}, false, false, 0},
		// Kernel off: no batch, so no decode-at-scan gate and no refusal
		// of NaN in a dimension; the boxed BNL reads its dimensions from
		// the pages and still boxes only the rows that leave.
		{wideQueries[0], Options{DisableColumnarKernel: true}, true, true, 40},
		{wideQueries[5], Options{DisableColumnarKernel: true}, true, true, 40},
		{wideQueries[7], Options{DisableColumnarKernel: true}, true, true, 40},
		// Selection first: page-byte and engine conjuncts served; a big int
		// still selected in a filter column, or on a boxed page, refuses.
		{wideQueries[8], Options{}, true, true, 40},
		{wideQueries[9], Options{}, true, true, 40},
		{wideQueries[10], Options{}, true, true, 40},
		{wideQueries[11], Options{}, true, false, 0},
		{wideQueries[12], Options{}, true, false, 0},
	} {
		q := strings.ReplaceAll(tc.query, "{{T}}", "seg")
		pipe, _ := segmentStage(planSQL(t, cat, q, tc.opts)).(*PipelineExec)
		if pipe == nil {
			t.Fatalf("%s: no fused stage over the segment scan", q)
		}
		ps := planPageScan(pipe.Ops, pipe.Sink, pipe.Source.Schema(), wideContext(tc.opts).DecodeAtScan)
		if (ps != nil) != tc.planned {
			t.Fatalf("%s %+v: page path planned = %v, want %v", q, tc.opts, ps != nil, tc.planned)
		}
		if ps == nil {
			continue
		}
		r := seg.NewReader(nil)
		rows, b, ok, err := ps.forSegment(seg).run(cluster.NewContext(4), r, 0, seg.Rows(), nil)
		r.Close()
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if ok != tc.serves {
			t.Fatalf("%s: page path served = %v, want %v", q, ok, tc.serves)
		}
		if !ok {
			continue
		}
		if len(rows) == 0 || len(rows) > tc.boxedAtMost {
			t.Fatalf("%s: boxed %d rows out of %d, want 1..%d", q, len(rows), seg.Rows(), tc.boxedAtMost)
		}
		if tc.opts.DisableColumnarKernel {
			if b != nil {
				t.Fatalf("%s: the kernel is off but a sidecar came out", q)
			}
		} else if b == nil || b.Len() != len(rows) {
			t.Fatalf("%s: no sidecar aligned with the %d rows", q, len(rows))
		}
	}
}

// TestSegmentConjunctsProvenFullAreDropped: a conjunct a segment's zone
// maps prove true for every row is not evaluated on that segment — on the
// page path or anywhere — while the conjuncts beside it still are.
func TestSegmentConjunctsProvenFullAreDropped(t *testing.T) {
	cat := wideTwins(t, 300, 97)
	tab, _ := cat.Lookup("seg")
	q := strings.ReplaceAll(wideQueries[9], "{{T}}", "seg")
	pipe := segmentStage(planSQL(t, cat, q, Options{})).(*PipelineExec)
	ps := planPageScan(pipe.Ops, pipe.Sink, pipe.Source.Schema(), true)
	if ps == nil {
		t.Fatalf("%s: no page plan", q)
	}
	count := func(filters [][]conjunct) (n, cmps int) {
		for _, conjs := range filters {
			for _, cj := range conjs {
				n++
				if cj.cmp {
					cmps++
				}
			}
		}
		return n, cmps
	}
	if n, cmps := count(ps.filters); n != 3 || cmps != 2 {
		t.Fatalf("%s: planned %d conjuncts (%d on page bytes), want 3 (2)", q, n, cmps)
	}
	for _, seg := range tab.Segments.Segments() {
		if n, _ := count(ps.forSegment(seg).live); n != 2 {
			t.Errorf("segment of %d rows: %d conjuncts left, want 2 (id > -1 proven)", seg.Rows(), n)
		}
	}
}

// TestSegmentStageAfterSidecarsDropped: once the memory governor has
// dropped sidecars, every morsel of a segment stage takes the boxed path —
// no sidecar comes out — and the stage's rows are those the page path
// returns without the governor.
func TestSegmentStageAfterSidecarsDropped(t *testing.T) {
	cat := wideTwins(t, 300, 23)
	q := strings.ReplaceAll(wideQueries[0], "{{T}}", "seg")
	segPipe := segmentStage(planSQL(t, cat, q, Options{Strategy: SkylineDistributedComplete}))
	paged, err := segPipe.Execute(wideContext(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := paged.MergedSidecar(); !ok {
		t.Fatal("the page path produced no sidecar")
	}
	ctx := wideContext(Options{})
	ctx.MemoryBudget = 100
	ctx.Metrics.Alloc(70)
	if err := ctx.CheckBudget(); err != nil {
		t.Fatal(err)
	}
	ctx.Metrics.Free(70)
	if !ctx.SidecarsDropped() {
		t.Fatal("70 of 100 budgeted bytes live did not drop sidecars")
	}
	out, err := segPipe.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.Batches != nil {
		t.Error("a segment stage with sidecars dropped produced one")
	}
	assertSameBits(t, "sidecars dropped", paged.Gather(), out.Gather())
}
