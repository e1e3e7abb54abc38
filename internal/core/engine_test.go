package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"skysql/internal/catalog"
	"skysql/internal/cluster"
	"skysql/internal/physical"
	"skysql/internal/types"
)

// newHotelEngine builds an engine with the paper's running example.
func newHotelEngine(t *testing.T) *Engine {
	t.Helper()
	cat := catalog.New()
	schema := types.NewSchema(
		types.Field{Name: "id", Type: types.KindInt},
		types.Field{Name: "price", Type: types.KindInt},
		types.Field{Name: "user_rating", Type: types.KindInt},
	)
	rows := []types.Row{
		{types.Int(1), types.Int(50), types.Int(7)},
		{types.Int(2), types.Int(60), types.Int(9)},
		{types.Int(3), types.Int(80), types.Int(9)},
		{types.Int(4), types.Int(40), types.Int(5)},
		{types.Int(5), types.Int(55), types.Int(7)},
		{types.Int(6), types.Int(45), types.Int(8)},
	}
	tab, err := catalog.NewTable("hotels", schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	cat.Register(tab)
	return NewEngine(cat)
}

func mustQuery(t *testing.T, e *Engine, q string) *Result {
	t.Helper()
	res, err := e.Query(q, 3, physical.Options{})
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	return res
}

func sortedRows(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func assertSameRows(t *testing.T, got, want []types.Row, label string) {
	t.Helper()
	g, w := sortedRows(got), sortedRows(want)
	if len(g) != len(w) {
		t.Fatalf("%s: got %d rows %v, want %d rows %v", label, len(g), g, len(w), w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s:\n got  %v\n want %v", label, g, w)
		}
	}
}

func TestHotelSkylineListing2(t *testing.T) {
	e := newHotelEngine(t)
	res := mustQuery(t, e, "SELECT price, user_rating FROM hotels SKYLINE OF price MIN, user_rating MAX")
	want := []types.Row{
		{types.Int(60), types.Int(9)},
		{types.Int(40), types.Int(5)},
		{types.Int(45), types.Int(8)},
	}
	assertSameRows(t, res.Rows, want, "hotel skyline")
}

func TestHotelReferenceQueryListing1(t *testing.T) {
	e := newHotelEngine(t)
	res := mustQuery(t, e, `SELECT price, user_rating FROM hotels AS o WHERE NOT EXISTS(
		SELECT * FROM hotels AS i WHERE
		i.price <= o.price AND i.user_rating >= o.user_rating
		AND (i.price < o.price OR i.user_rating > o.user_rating))`)
	integrated := mustQuery(t, e, "SELECT price, user_rating FROM hotels SKYLINE OF price MIN, user_rating MAX")
	assertSameRows(t, res.Rows, integrated.Rows, "reference vs integrated")
}

func TestGeneratedReferenceMatchesIntegrated(t *testing.T) {
	e := newHotelEngine(t)
	q := "SELECT price, user_rating FROM hotels SKYLINE OF price MIN, user_rating MAX"
	ref, err := RewriteSkylineStatement(q, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ref, "NOT EXISTS") {
		t.Fatalf("rewrite missing NOT EXISTS: %s", ref)
	}
	refRes := mustQuery(t, e, ref)
	intRes := mustQuery(t, e, q)
	assertSameRows(t, refRes.Rows, intRes.Rows, "generated reference")
}

func TestSkylineDistinct(t *testing.T) {
	e := newHotelEngine(t)
	// hotels 1 and 5 differ in price (50 vs 55): not duplicates. Add a
	// query over a dimension set with real ties: user_rating only is
	// handled by the 1-dim rule, so use (price MIN, price MIN)-like shape
	// via two dims where ties exist: (user_rating MAX, user_rating MAX)
	// degenerates too. Use DIFF+MIN instead.
	res := mustQuery(t, e, "SELECT price, user_rating FROM hotels SKYLINE OF DISTINCT user_rating DIFF, price MIN")
	// Per rating group: min price. Ratings: 7→50(id1,55 id5→50), 9→60, 5→40, 8→45.
	want := []types.Row{
		{types.Int(50), types.Int(7)},
		{types.Int(60), types.Int(9)},
		{types.Int(40), types.Int(5)},
		{types.Int(45), types.Int(8)},
	}
	assertSameRows(t, res.Rows, want, "distinct skyline with DIFF")
}

func TestSingleDimensionOptimization(t *testing.T) {
	e := newHotelEngine(t)
	c, err := e.CompileSQL("SELECT price FROM hotels SKYLINE OF price MIN", physical.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Explain(), "ExtremumFilter") {
		t.Fatalf("single-dim skyline not rewritten:\n%s", c.Explain())
	}
	res, err := e.Run(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []types.Row{{types.Int(40)}}
	assertSameRows(t, res.Rows, want, "1-dim skyline")
}

func TestSingleDimensionMax(t *testing.T) {
	e := newHotelEngine(t)
	res := mustQuery(t, e, "SELECT user_rating FROM hotels SKYLINE OF user_rating MAX")
	want := []types.Row{{types.Int(9)}, {types.Int(9)}}
	assertSameRows(t, res.Rows, want, "1-dim MAX keeps ties")

	resD := mustQuery(t, e, "SELECT user_rating FROM hotels SKYLINE OF DISTINCT user_rating MAX")
	if len(resD.Rows) != 1 {
		t.Fatalf("DISTINCT 1-dim = %d rows, want 1", len(resD.Rows))
	}
}

func TestSkylineDimNotInProjection(t *testing.T) {
	// Paper Listing 6: skyline over a dimension missing from the output.
	e := newHotelEngine(t)
	res := mustQuery(t, e, "SELECT id FROM hotels SKYLINE OF price MIN, user_rating MAX")
	want := []types.Row{{types.Int(2)}, {types.Int(4)}, {types.Int(6)}}
	assertSameRows(t, res.Rows, want, "missing-reference skyline")
	if res.Schema.Len() != 1 || res.Schema.Fields[0].Name != "id" {
		t.Errorf("schema = %s, want (id)", res.Schema)
	}
}

func TestSkylineOverAggregates(t *testing.T) {
	// Paper Listing 7: skyline dimensions over aggregate results.
	e := newHotelEngine(t)
	res := mustQuery(t, e, `SELECT user_rating, count(*) AS n, min(price) AS cheapest
		FROM hotels GROUP BY user_rating
		SKYLINE OF min(price) MIN, user_rating MAX`)
	// Groups: 7→(2 hotels, min 50), 9→(2, 60), 5→(1, 40), 8→(1, 45).
	// Skyline of (cheapest MIN, rating MAX): (60,9),(40,5),(45,8) survive; (50,7) dominated by (45,8).
	want := []types.Row{
		{types.Int(9), types.Int(2), types.Int(60)},
		{types.Int(5), types.Int(1), types.Int(40)},
		{types.Int(8), types.Int(1), types.Int(45)},
	}
	assertSameRows(t, res.Rows, want, "skyline over aggregates")
}

func TestSkylineOverAggregateNotInOutput(t *testing.T) {
	// The skyline uses count(*) which is NOT in the projection: the
	// analyzer must add it as a hidden aggregate and re-trim (Listing 7).
	e := newHotelEngine(t)
	res := mustQuery(t, e, `SELECT user_rating FROM hotels GROUP BY user_rating
		SKYLINE OF count(*) MAX, user_rating MAX`)
	// Groups (rating→count): 7→2, 9→2, 5→1, 8→1.
	// Skyline of (count MAX, rating MAX): (2,7) dominated by (2,9); (1,5),(1,8) dominated by (2,9). Only (2,9) survives.
	want := []types.Row{{types.Int(9)}}
	assertSameRows(t, res.Rows, want, "hidden aggregate skyline")
	if res.Schema.Len() != 1 {
		t.Errorf("hidden aggregates must be trimmed; schema = %s", res.Schema)
	}
}

func TestHavingAndOrderByOnAggregate(t *testing.T) {
	// Appendix B: Sort over Filter over Aggregate with aggregates not in
	// the projection.
	e := newHotelEngine(t)
	res := mustQuery(t, e, `SELECT user_rating FROM hotels GROUP BY user_rating
		HAVING count(*) > 1 ORDER BY min(price) DESC`)
	// Groups with count>1: 7 (min 50), 9 (min 60). Order by min desc: 9, 7.
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].AsInt() != 9 || res.Rows[1][0].AsInt() != 7 {
		t.Errorf("order = %v, want [9, 7]", res.Rows)
	}
	if res.Schema.Len() != 1 {
		t.Errorf("schema must be trimmed to (user_rating), got %s", res.Schema)
	}
}

func TestWhereGroupHavingSkylineOrderLimit(t *testing.T) {
	e := newHotelEngine(t)
	res := mustQuery(t, e, `SELECT user_rating, count(*) AS n FROM hotels
		WHERE price > 40 GROUP BY user_rating HAVING count(*) >= 1
		SKYLINE OF user_rating MAX, count(*) MAX
		ORDER BY user_rating LIMIT 5`)
	// price>40: hotels 1,2,3,5,6 → ratings 7:2, 9:2, 8:1.
	// Skyline (rating MAX, n MAX): (7,2) dominated by (9,2); (8,1) dominated by (9,2); only (9,2).
	want := []types.Row{{types.Int(9), types.Int(2)}}
	assertSameRows(t, res.Rows, want, "full clause stack")
}

func TestIncompleteDataSkyline(t *testing.T) {
	cat := catalog.New()
	schema := types.NewSchema(
		types.Field{Name: "a", Type: types.KindInt, Nullable: true},
		types.Field{Name: "b", Type: types.KindInt, Nullable: true},
		types.Field{Name: "c", Type: types.KindInt, Nullable: true},
	)
	// Appendix A's cyclic example: skyline must be empty.
	rows := []types.Row{
		{types.Int(1), types.Null, types.Int(10)},
		{types.Int(3), types.Int(2), types.Null},
		{types.Null, types.Int(5), types.Int(3)},
	}
	tab, err := catalog.NewTable("t", schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	cat.Register(tab)
	e := NewEngine(cat)
	res := mustQuery(t, e, "SELECT * FROM t SKYLINE OF a MIN, b MIN, c MIN")
	if len(res.Rows) != 0 {
		t.Fatalf("cyclic dominance skyline = %v, want empty", res.Rows)
	}
	// Check the planner chose the incomplete algorithm.
	c, err := e.CompileSQL("SELECT * FROM t SKYLINE OF a MIN, b MIN, c MIN", physical.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Explain(), "incomplete") {
		t.Errorf("nullable dims must select the incomplete algorithm:\n%s", c.Explain())
	}
}

func TestCompleteKeywordForcesCompleteAlgorithm(t *testing.T) {
	cat := catalog.New()
	schema := types.NewSchema(
		types.Field{Name: "a", Type: types.KindInt, Nullable: true},
		types.Field{Name: "b", Type: types.KindInt, Nullable: true},
	)
	rows := []types.Row{
		{types.Int(1), types.Int(2)},
		{types.Int(2), types.Int(1)},
		{types.Int(3), types.Int(3)},
	}
	tab, _ := catalog.NewTable("t", schema, rows)
	cat.Register(tab)
	e := NewEngine(cat)
	c, err := e.CompileSQL("SELECT * FROM t SKYLINE OF COMPLETE a MIN, b MIN", physical.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(c.Explain(), "incomplete") {
		t.Errorf("COMPLETE keyword must select the complete algorithm:\n%s", c.Explain())
	}
	res, err := e.Run(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("skyline = %v, want 2 rows", res.Rows)
	}
}

func TestAllStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cat := catalog.New()
	schema := types.NewSchema(
		types.Field{Name: "x", Type: types.KindInt},
		types.Field{Name: "y", Type: types.KindInt},
		types.Field{Name: "z", Type: types.KindInt},
	)
	rows := make([]types.Row, 500)
	for i := range rows {
		rows[i] = types.Row{
			types.Int(int64(rng.Intn(20))),
			types.Int(int64(rng.Intn(20))),
			types.Int(int64(rng.Intn(20))),
		}
	}
	tab, _ := catalog.NewTable("t", schema, rows)
	cat.Register(tab)
	e := NewEngine(cat)
	q := "SELECT * FROM t SKYLINE OF x MIN, y MAX, z MIN"
	strategies := []physical.SkylineStrategy{
		physical.SkylineDistributedComplete,
		physical.SkylineNonDistributedComplete,
		physical.SkylineDistributedIncomplete,
		physical.SkylineGridComplete,
		physical.SkylineAngleComplete,
		physical.SkylineZorderComplete,
	}
	var baseline []types.Row
	for i, s := range strategies {
		for _, execs := range []int{1, 3, 10} {
			res, err := e.Query(q, execs, physical.Options{Strategy: s})
			if err != nil {
				t.Fatalf("strategy %v: %v", s, err)
			}
			if i == 0 && execs == 1 {
				baseline = res.Rows
				continue
			}
			assertSameRows(t, res.Rows, baseline, fmt.Sprintf("strategy %v execs %d", s, execs))
		}
	}
	// And the reference rewriting agrees too.
	ref, err := RewriteSkylineStatement(q, false)
	if err != nil {
		t.Fatal(err)
	}
	refRes := mustQuery(t, e, ref)
	assertSameRows(t, refRes.Rows, baseline, "reference rewrite")
}

func TestIncompleteReferenceMatchesIntegrated(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cat := catalog.New()
	schema := types.NewSchema(
		types.Field{Name: "x", Type: types.KindInt, Nullable: true},
		types.Field{Name: "y", Type: types.KindInt, Nullable: true},
	)
	rows := make([]types.Row, 120)
	for i := range rows {
		mk := func() types.Value {
			if rng.Float64() < 0.3 {
				return types.Null
			}
			return types.Int(int64(rng.Intn(8)))
		}
		rows[i] = types.Row{mk(), mk()}
	}
	tab, _ := catalog.NewTable("t", schema, rows)
	cat.Register(tab)
	e := NewEngine(cat)
	q := "SELECT * FROM t SKYLINE OF x MIN, y MAX"
	intRes := mustQuery(t, e, q)
	ref, err := RewriteSkylineStatement(q, true)
	if err != nil {
		t.Fatal(err)
	}
	refRes := mustQuery(t, e, ref)
	assertSameRows(t, refRes.Rows, intRes.Rows, "incomplete reference vs integrated")
}

func TestJoinsAndDerivedTables(t *testing.T) {
	cat := catalog.New()
	rec := types.NewSchema(
		types.Field{Name: "id", Type: types.KindInt},
		types.Field{Name: "length", Type: types.KindInt, Nullable: true},
	)
	recRows := []types.Row{
		{types.Int(1), types.Int(100)},
		{types.Int(2), types.Int(200)},
		{types.Int(3), types.Null},
	}
	track := types.NewSchema(
		types.Field{Name: "recording", Type: types.KindInt},
		types.Field{Name: "position", Type: types.KindInt},
	)
	trackRows := []types.Row{
		{types.Int(1), types.Int(1)},
		{types.Int(1), types.Int(3)},
		{types.Int(2), types.Int(2)},
	}
	tr, _ := catalog.NewTable("recording", rec, recRows)
	tt2, _ := catalog.NewTable("track", track, trackRows)
	cat.Register(tr)
	cat.Register(tt2)
	e := NewEngine(cat)

	res := mustQuery(t, e, `SELECT r.id, ifnull(r.length, 0) AS len, recording_tracks.num_tracks
		FROM recording r LEFT OUTER JOIN (
			SELECT ti.recording AS id, count(*) AS num_tracks
			FROM track ti JOIN recording rr ON ti.recording = rr.id
			GROUP BY ti.recording
		) recording_tracks USING (id)
		ORDER BY r.id`)
	_ = res
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// id 1 → 2 tracks; id 2 → 1; id 3 → NULL (left outer).
	if res.Rows[0][2].AsInt() != 2 || res.Rows[1][2].AsInt() != 1 || !res.Rows[2][2].IsNull() {
		t.Errorf("join results = %v", res.Rows)
	}
	if res.Rows[2][1].AsInt() != 0 {
		t.Errorf("ifnull(length,0) = %v, want 0", res.Rows[2][1])
	}
}

func TestDistinctAndLimit(t *testing.T) {
	e := newHotelEngine(t)
	res := mustQuery(t, e, "SELECT DISTINCT user_rating FROM hotels ORDER BY user_rating DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0].AsInt() != 9 || res.Rows[1][0].AsInt() != 8 {
		t.Errorf("distinct/limit = %v", res.Rows)
	}
}

func TestGlobalAggregateOverEmptyInput(t *testing.T) {
	e := newHotelEngine(t)
	res := mustQuery(t, e, "SELECT count(*), min(price) FROM hotels WHERE price > 1000")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].AsInt() != 0 || !res.Rows[0][1].IsNull() {
		t.Errorf("empty aggregate = %v, want [0, NULL]", res.Rows[0])
	}
}

func TestMetricsPopulated(t *testing.T) {
	e := newHotelEngine(t)
	res := mustQuery(t, e, "SELECT price, user_rating FROM hotels SKYLINE OF price MIN, user_rating MAX")
	if res.Metrics.Sky.DominanceTests() == 0 {
		t.Error("dominance tests not counted")
	}
	if res.Metrics.PeakBytes() == 0 {
		t.Error("peak memory not tracked")
	}
	if res.Duration <= 0 {
		t.Error("duration not measured")
	}
}

func TestExplainStages(t *testing.T) {
	e := newHotelEngine(t)
	c, err := e.CompileSQL("SELECT price FROM hotels WHERE price < 60 SKYLINE OF price MIN, user_rating MAX", physical.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := c.Explain()
	for _, want := range []string{"Analyzed Logical Plan", "Optimized Logical Plan", "Physical Plan", "Skyline", "ScanExec"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// Stage-fused execution: EXPLAIN renders the stage DAG with fused
	// pipelines and explicit exchange-bounded stage boundaries.
	for _, want := range []string{"== Stages ==", "PipelineExec", "stage boundary", "fused operators"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing stage rendering %q:\n%s", want, out)
		}
	}
}

// TestStageFusionResultIdenticalThroughEngine: the engine's plan runs as
// fused stages — the filter and the local skyline in one pipeline — and
// returns the rows of the plain-SQL rewrite (Listing 4), in order.
func TestStageFusionResultIdenticalThroughEngine(t *testing.T) {
	e := newHotelEngine(t)
	query := "SELECT price, user_rating FROM hotels WHERE price < 90 SKYLINE OF price MIN, user_rating MAX"
	fused, err := e.CompileSQL(query, physical.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := physical.CountStages(fused.Physical); got != 1 {
		t.Errorf("plan has %d fused stages, want 1:\n%s", got, fused.Explain())
	}
	ref, err := RewriteSkylineStatement(query, false)
	if err != nil {
		t.Fatal(err)
	}
	reference, err := e.CompileSQL(ref, physical.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fres, err := e.Run(fused, 3)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := e.Run(reference, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fres.Rows) != len(rres.Rows) {
		t.Fatalf("fused %d rows, rewrite %d rows", len(fres.Rows), len(rres.Rows))
	}
	for i := range fres.Rows {
		if fres.Rows[i].String() != rres.Rows[i].String() {
			t.Errorf("row %d: fused %s, rewrite %s", i, fres.Rows[i], rres.Rows[i])
		}
	}
}

func TestAlgorithmRegistry(t *testing.T) {
	algs := Algorithms()
	if len(algs) != 4 {
		t.Fatal("the paper evaluates 4 algorithms")
	}
	// The figure harness reads the last entry as the Listing-4 baseline.
	if last := algs[len(algs)-1]; !last.Reference || last.Name != "reference" {
		t.Errorf("last algorithm = %+v, want the reference rewrite", last)
	}
	for _, a := range algs[:len(algs)-1] {
		if a.Reference {
			t.Errorf("%s is marked as the reference; only the last entry is", a.Name)
		}
	}
}

func TestErrorPropagation(t *testing.T) {
	e := newHotelEngine(t)
	bad := []string{
		"SELECT nope FROM hotels",
		"SELECT * FROM nosuchtable",
		"SELECT * FROM hotels SKYLINE OF nope MIN",
		"SELECT * FROM hotels HAVING count(*) > 1",
		"garbage",
	}
	for _, q := range bad {
		if _, err := e.Query(q, 1, physical.Options{}); err == nil {
			t.Errorf("Query(%q) succeeded, want error", q)
		}
	}
}

func TestVerifyAgainstReference(t *testing.T) {
	e := newHotelEngine(t)
	queries := []string{
		"SELECT price, user_rating FROM hotels SKYLINE OF price MIN, user_rating MAX",
		"SELECT * FROM hotels WHERE price > 40 SKYLINE OF price MIN, user_rating MAX",
		"SELECT id, price FROM hotels SKYLINE OF price MIN, id MAX",
	}
	for _, q := range queries {
		if err := e.VerifyAgainstReference(q, 3); err != nil {
			t.Errorf("VerifyAgainstReference(%q): %v", q, err)
		}
	}
	if err := e.VerifyAgainstReference("SELECT * FROM hotels", 2); err == nil {
		t.Error("verifying a skyline-less query must error")
	}
}

func TestVerifyAgainstReferenceIncomplete(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cat := catalog.New()
	rows := make([]types.Row, 150)
	for i := range rows {
		mk := func() types.Value {
			if rng.Float64() < 0.25 {
				return types.Null
			}
			return types.Int(int64(rng.Intn(7)))
		}
		rows[i] = types.Row{mk(), mk(), mk()}
	}
	tab, _ := catalog.NewTable("t", types.NewSchema(
		types.Field{Name: "a", Type: types.KindInt, Nullable: true},
		types.Field{Name: "b", Type: types.KindInt, Nullable: true},
		types.Field{Name: "c", Type: types.KindInt, Nullable: true},
	), rows)
	cat.Register(tab)
	e := NewEngine(cat)
	if err := e.VerifyAgainstReference("SELECT * FROM t SKYLINE OF a MIN, b MAX, c MIN", 4); err != nil {
		t.Errorf("incomplete verify: %v", err)
	}
}

func TestInAndCaseThroughPipeline(t *testing.T) {
	e := newHotelEngine(t)
	res := mustQuery(t, e, `SELECT id,
		CASE WHEN price < 50 THEN 'budget' WHEN price < 70 THEN 'mid' ELSE 'lux' END AS band
		FROM hotels WHERE user_rating IN (8, 9) ORDER BY id`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// ids 2(60,'mid'), 3(80,'lux'), 6(45,'budget')
	if res.Rows[0][1].AsString() != "mid" || res.Rows[2][1].AsString() != "budget" {
		t.Errorf("bands = %v", res.Rows)
	}
	res = mustQuery(t, e, "SELECT id FROM hotels WHERE price BETWEEN 45 AND 60 ORDER BY id")
	if len(res.Rows) != 4 {
		t.Errorf("BETWEEN rows = %v", res.Rows)
	}
}

func TestDiffDimensionSemantics(t *testing.T) {
	// DIFF partitions dominance: only equal-valued tuples compete
	// (Definition 3.1). Per-rating cheapest hotels survive.
	e := newHotelEngine(t)
	res := mustQuery(t, e, "SELECT id FROM hotels SKYLINE OF user_rating DIFF, price MIN ORDER BY id")
	// rating 7: ids 1(50),5(55) → 1; rating 9: 2(60),3(80) → 2; 5→4; 8→6.
	want := []types.Row{{types.Int(1)}, {types.Int(2)}, {types.Int(4)}, {types.Int(6)}}
	assertSameRows(t, res.Rows, want, "DIFF skyline")
}

func TestDiffOnlySkylineKeepsEverything(t *testing.T) {
	// With only DIFF dimensions nothing can be strictly better, so the
	// skyline is the whole input.
	e := newHotelEngine(t)
	res := mustQuery(t, e, "SELECT id FROM hotels SKYLINE OF user_rating DIFF")
	if len(res.Rows) != 6 {
		t.Errorf("DIFF-only skyline = %d rows, want all 6", len(res.Rows))
	}
}

func TestSkylineOverEmptyInput(t *testing.T) {
	e := newHotelEngine(t)
	res := mustQuery(t, e, "SELECT * FROM hotels WHERE price > 9999 SKYLINE OF price MIN, user_rating MAX")
	if len(res.Rows) != 0 {
		t.Errorf("empty-input skyline = %v", res.Rows)
	}
}

func TestSkylineOverExpressionDimensions(t *testing.T) {
	// Dimensions may be arbitrary expressions, not just columns (§5.2).
	e := newHotelEngine(t)
	res := mustQuery(t, e, `SELECT id FROM hotels
		SKYLINE OF price / user_rating MIN, user_rating MAX ORDER BY id`)
	if len(res.Rows) == 0 || len(res.Rows) > 6 {
		t.Fatalf("expression-dim skyline = %v", res.Rows)
	}
	// Cross-check against a projected equivalent.
	res2 := mustQuery(t, e, `SELECT id FROM (
		SELECT id, price / user_rating AS ppr, user_rating FROM hotels
	) SKYLINE OF ppr MIN, user_rating MAX ORDER BY id`)
	assertSameRows(t, res.Rows, res2.Rows, "expression dims vs projected dims")
}

func TestNestedDerivedTablesWithSkyline(t *testing.T) {
	e := newHotelEngine(t)
	res := mustQuery(t, e, `SELECT * FROM (
		SELECT * FROM (SELECT id, price, user_rating FROM hotels WHERE price < 100) WHERE user_rating > 5
	) SKYLINE OF price MIN, user_rating MAX`)
	if len(res.Rows) == 0 {
		t.Error("nested derived skyline empty")
	}
}

func TestCancellationPropagates(t *testing.T) {
	e := newHotelEngine(t)
	c, err := e.CompileSQL("SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX", physical.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := cluster.NewContext(2)
	ctx.Cancel()
	if _, err := e.RunCtx(c, ctx); err == nil {
		t.Error("pre-canceled context must abort execution")
	}
}
