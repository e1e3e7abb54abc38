package skysql_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"skysql"
)

func hotelSession(t testing.TB, opts ...skysql.Option) *skysql.Session {
	sess := skysql.NewSession(append([]skysql.Option{skysql.WithExecutors(3)}, opts...)...)
	schema := skysql.NewSchema(
		skysql.Field{Name: "id", Type: skysql.KindInt},
		skysql.Field{Name: "price", Type: skysql.KindInt},
		skysql.Field{Name: "user_rating", Type: skysql.KindInt},
	)
	rows := []skysql.Row{
		{skysql.Int(1), skysql.Int(50), skysql.Int(7)},
		{skysql.Int(2), skysql.Int(60), skysql.Int(9)},
		{skysql.Int(3), skysql.Int(80), skysql.Int(9)},
		{skysql.Int(4), skysql.Int(40), skysql.Int(5)},
		{skysql.Int(5), skysql.Int(55), skysql.Int(7)},
		{skysql.Int(6), skysql.Int(45), skysql.Int(8)},
	}
	if err := sess.CreateTable("hotels", schema, rows); err != nil {
		t.Fatal(err)
	}
	return sess
}

func rowsToStrings(rows []skysql.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func TestSessionSQLSkyline(t *testing.T) {
	sess := hotelSession(t)
	rows, err := sess.Query("SELECT price, user_rating FROM hotels SKYLINE OF price MIN, user_rating MAX")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("skyline = %v", rows)
	}
}

func TestDataFrameSkylineMatchesSQL(t *testing.T) {
	sess := hotelSession(t)
	sqlRows, err := sess.Query("SELECT id, price, user_rating FROM hotels SKYLINE OF price MIN, user_rating MAX")
	if err != nil {
		t.Fatal(err)
	}
	df := sess.Table("hotels").
		Skyline([]skysql.SkylineDim{skysql.Smin("price"), skysql.Smax("user_rating")}).
		Select("id", "price", "user_rating")
	dfRows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	a, b := rowsToStrings(sqlRows), rowsToStrings(dfRows)
	if strings.Join(a, ";") != strings.Join(b, ";") {
		t.Fatalf("DataFrame %v != SQL %v", b, a)
	}
	if df.Metrics() == nil || df.Metrics().Sky.DominanceTests() == 0 {
		t.Error("metrics not recorded")
	}
	if df.Duration() <= 0 {
		t.Error("duration not recorded")
	}
}

func TestDataFrameFluentChain(t *testing.T) {
	sess := hotelSession(t)
	rows, err := sess.Table("hotels").
		Where("price < 70").
		GroupBy("user_rating").
		Agg("user_rating", "count(*) AS n", "min(price) AS cheapest").
		OrderByDesc("user_rating").
		Limit(3).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].AsInt() != 9 || rows[0][2].AsInt() != 60 {
		t.Errorf("first row = %v", rows[0])
	}
}

func TestDataFrameJoinAndAlias(t *testing.T) {
	sess := hotelSession(t)
	cities := skysql.NewSchema(
		skysql.Field{Name: "hotel_id", Type: skysql.KindInt},
		skysql.Field{Name: "city", Type: skysql.KindString},
	)
	sess.MustCreateTable("cities", cities, []skysql.Row{
		{skysql.Int(1), skysql.Str("vienna")},
		{skysql.Int(2), skysql.Str("graz")},
	})
	rows, err := sess.Table("hotels").Alias("h").
		Join(sess.Table("cities").Alias("c"), "inner", "h.id = c.hotel_id").
		Select("h.id", "c.city").
		OrderBy("h.id").
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][1].AsString() != "vienna" {
		t.Fatalf("join rows = %v", rows)
	}
}

func TestDataFrameSkylineOptions(t *testing.T) {
	sess := hotelSession(t)
	df := sess.Table("hotels").Skyline(
		[]skysql.SkylineDim{skysql.Sdiff("user_rating"), skysql.Smin("price")},
		skysql.SkylineDistinct(), skysql.SkylineComplete(),
	)
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("per-rating minima = %v", rows)
	}
	plan, err := df.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "DISTINCT COMPLETE") {
		t.Errorf("flags missing from plan:\n%s", plan)
	}
}

func TestDataFrameErrors(t *testing.T) {
	sess := hotelSession(t)
	cases := []*skysql.DataFrame{
		sess.Table("hotels").Filter("?!bad"),
		sess.Table("hotels").Select("count(a,b)"),
		sess.Table("missing").Select("x"),
		sess.Table("hotels").Skyline(nil),
		sess.Table("hotels").Join(sess.Table("hotels"), "sideways", "1=1"),
		sess.Table("hotels").Join(sess.Table("hotels"), "inner", ""),
	}
	for i, df := range cases {
		if _, err := df.Collect(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestSQLDataFrameCannotBeExtended(t *testing.T) {
	sess := hotelSession(t)
	df, err := sess.SQL("SELECT * FROM hotels")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.Filter("price > 1").Collect(); err == nil {
		t.Error("extending a SQL DataFrame must error")
	}
}

func TestStrategyOption(t *testing.T) {
	for _, st := range oracleStrategies {
		sess := hotelSession(t, skysql.WithSkylineStrategy(st))
		rows, err := sess.Query("SELECT price, user_rating FROM hotels SKYLINE OF price MIN, user_rating MAX")
		if err != nil {
			t.Fatalf("strategy %v: %v", st, err)
		}
		if len(rows) != 3 {
			t.Errorf("strategy %v: %d rows", st, len(rows))
		}
	}
}

// TestUnknownStrategyError: a strategy outside the enum is refused at
// planning time, and the error names it by its number.
func TestUnknownStrategyError(t *testing.T) {
	sess := hotelSession(t, skysql.WithSkylineStrategy(skysql.SkylineStrategy(42)))
	_, err := sess.Query("SELECT id FROM hotels SKYLINE OF price MIN, user_rating MAX")
	const want = "physical: unknown skyline strategy SkylineStrategy(42)"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want it to contain %q", err, want)
	}
}

func TestRewriteSkylineAPI(t *testing.T) {
	sess := hotelSession(t)
	ref, err := sess.RewriteSkyline("SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX", false)
	if err != nil {
		t.Fatal(err)
	}
	refRows, err := sess.Query(ref)
	if err != nil {
		t.Fatal(err)
	}
	intRows, err := sess.Query("SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(rowsToStrings(refRows), ";") != strings.Join(rowsToStrings(intRows), ";") {
		t.Error("reference and integrated results differ")
	}
}

func TestLoadCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "h.csv")
	data := "id,price,rating\n1,50,7\n2,60,9\n3,,8\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	sess := skysql.NewSession()
	if err := sess.LoadCSV("h", path, []skysql.Kind{skysql.KindInt, skysql.KindInt, skysql.KindInt}); err != nil {
		t.Fatal(err)
	}
	rows, err := sess.Query("SELECT id FROM h WHERE price IS NOT NULL SKYLINE OF price MIN, rating MAX")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("csv skyline = %v", rows)
	}
	if got := sess.Tables(); len(got) != 1 || got[0] != "h" {
		t.Errorf("Tables = %v", got)
	}
	sess.DropTable("h")
	if len(sess.Tables()) != 0 {
		t.Error("DropTable failed")
	}
}

func TestFormatRows(t *testing.T) {
	sess := hotelSession(t)
	df, err := sess.SQL("SELECT id, price FROM hotels ORDER BY id LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	schema, _ := df.Schema()
	out := skysql.FormatRows(schema, rows)
	if !strings.Contains(out, "id") || !strings.Contains(out, "50") {
		t.Errorf("FormatRows output:\n%s", out)
	}
}

func TestExplainSQL(t *testing.T) {
	sess := hotelSession(t)
	out, err := sess.Explain("SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Skyline", "LocalSkylineExec", "GlobalSkylineExec", "AllTuples"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q", want)
		}
	}
}

func TestSetExecutors(t *testing.T) {
	sess := hotelSession(t)
	sess.SetExecutors(10)
	if sess.Executors() != 10 {
		t.Error("SetExecutors failed")
	}
	sess.SetExecutors(0)
	if sess.Executors() != 10 {
		t.Error("SetExecutors must ignore non-positive values")
	}
}

func TestDataFrameRightAndCrossJoin(t *testing.T) {
	sess := hotelSession(t)
	extras := skysql.NewSchema(
		skysql.Field{Name: "hotel_id", Type: skysql.KindInt},
		skysql.Field{Name: "pool", Type: skysql.KindBool},
	)
	sess.MustCreateTable("extras", extras, []skysql.Row{
		{skysql.Int(1), skysql.Bool(true)},
		{skysql.Int(99), skysql.Bool(false)}, // no matching hotel
	})
	rows, err := sess.Table("hotels").Alias("h").
		Join(sess.Table("extras").Alias("e"), "right", "h.id = e.hotel_id").
		Select("e.hotel_id", "h.price").
		OrderBy("e.hotel_id").
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("right join rows = %v", rows)
	}
	if !rows[1][1].IsNull() {
		t.Errorf("unmatched right row must null-extend left: %v", rows[1])
	}
	cross, err := sess.Table("hotels").Join(sess.Table("extras"), "cross", "").Count()
	if err != nil {
		t.Fatal(err)
	}
	if cross != 12 {
		t.Errorf("cross join count = %d, want 12", cross)
	}
}

func TestDataFrameDistinctAndCount(t *testing.T) {
	sess := hotelSession(t)
	n, err := sess.Table("hotels").Select("user_rating").Distinct().Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("distinct ratings = %d, want 4", n)
	}
}

func TestDataFrameChainedOrderBy(t *testing.T) {
	sess := hotelSession(t)
	rows, err := sess.Table("hotels").
		Select("user_rating", "price").
		OrderByDesc("user_rating").
		OrderBy("price").
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	// rating desc, then price asc: (9,60), (9,80), (8,45), ...
	if rows[0][1].AsInt() != 60 || rows[1][1].AsInt() != 80 {
		t.Errorf("chained order = %v", rows[:2])
	}
}

func TestWithoutColumnarKernelOption(t *testing.T) {
	// The boxed and kernel paths must agree end-to-end; both sessions run
	// the same query and dominance-test accounting must reach the metrics
	// either way.
	q := "SELECT id, price, user_rating FROM hotels SKYLINE OF price MIN, user_rating MAX"
	kernel := hotelSession(t)
	krows, err := kernel.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	boxed := skysql.NewSession(skysql.WithExecutors(3), skysql.WithoutColumnarKernel())
	hotelInto(t, boxed)
	brows, err := boxed.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	kg, bg := rowsToStrings(krows), rowsToStrings(brows)
	if strings.Join(kg, "|") != strings.Join(bg, "|") {
		t.Fatalf("kernel rows %v != boxed rows %v", kg, bg)
	}
	df, err := kernel.SQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.Collect(); err != nil {
		t.Fatal(err)
	}
	if df.Metrics().Sky.DominanceTests() == 0 {
		t.Error("kernel path must record dominance tests")
	}
}

func TestExplainStageTimesAfterRun(t *testing.T) {
	sess := hotelSession(t)
	df, err := sess.SQL("SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX")
	if err != nil {
		t.Fatal(err)
	}
	before, err := df.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(before, "Stage Times") {
		t.Error("stage times must not render before the first run")
	}
	if _, err := df.Collect(); err != nil {
		t.Fatal(err)
	}
	after, err := df.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(after, "== Stage Times (last run) ==") || !strings.Contains(after, "stage  1:") {
		t.Errorf("explain after run must include the stage-time breakdown:\n%s", after)
	}
}

// hotelInto registers the hotels table of hotelSession into an
// already-configured session.
func hotelInto(t testing.TB, sess *skysql.Session) {
	schema := skysql.NewSchema(
		skysql.Field{Name: "id", Type: skysql.KindInt},
		skysql.Field{Name: "price", Type: skysql.KindInt},
		skysql.Field{Name: "user_rating", Type: skysql.KindInt},
	)
	rows := []skysql.Row{
		{skysql.Int(1), skysql.Int(50), skysql.Int(7)},
		{skysql.Int(2), skysql.Int(60), skysql.Int(9)},
		{skysql.Int(3), skysql.Int(80), skysql.Int(9)},
		{skysql.Int(4), skysql.Int(40), skysql.Int(5)},
		{skysql.Int(5), skysql.Int(55), skysql.Int(7)},
		{skysql.Int(6), skysql.Int(45), skysql.Int(8)},
	}
	if err := sess.CreateTable("hotels", schema, rows); err != nil {
		t.Fatal(err)
	}
}

func TestExplainReportsBatchesDecoded(t *testing.T) {
	sess := hotelSession(t)
	df, err := sess.SQL("SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.Collect(); err != nil {
		t.Fatal(err)
	}
	out, err := df.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "batches decoded:") {
		t.Errorf("explain after run must report batches decoded:\n%s", out)
	}
	if df.Metrics().BatchesDecoded() == 0 {
		t.Error("kernel run must decode at least one batch")
	}
}

// TestBoxedFilterFallbackReachable pins that a default session serves a
// vectorizable filter on the vectorized engine and falls back to the boxed
// evaluator, per expression, for a filter the engine refuses (IN): both
// answer exactly what the paper's Listing-4 rewrite of the same query
// answers.
func TestBoxedFilterFallbackReachable(t *testing.T) {
	sess := hotelSession(t)
	var answers []string
	for _, tc := range []struct {
		where      string
		vectorized bool
	}{
		{"price < 70", true},
		{"price IN (40, 45, 50, 55, 60)", false},
	} {
		q := "SELECT id, price, user_rating FROM hotels WHERE " + tc.where + " SKYLINE OF price MIN, user_rating MAX"
		df, err := sess.SQL(q)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := df.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if got := df.Metrics().Count(skysql.VectorizedBatches); (got > 0) != tc.vectorized {
			t.Errorf("%s: %d vectorized batches, want vectorized = %v", tc.where, got, tc.vectorized)
		}
		ref, err := sess.RewriteSkyline(q, false)
		if err != nil {
			t.Fatal(err)
		}
		refRows, err := sess.Query(ref)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Fatalf("%s: empty skyline", tc.where)
		}
		got := strings.Join(rowsToStrings(rows), "|")
		if want := strings.Join(rowsToStrings(refRows), "|"); got != want {
			t.Fatalf("%s: rows %s, Listing-4 rewrite %s", tc.where, got, want)
		}
		answers = append(answers, got)
		if tc.vectorized {
			out, err := df.Explain()
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, "vectorized batches:") {
				t.Errorf("explain after run must report vectorized batches:\n%s", out)
			}
		}
	}
	if answers[0] != answers[1] {
		t.Errorf("the two filters select the same hotels but answer %s and %s", answers[0], answers[1])
	}
}

func TestAdaptiveExchangeDefaultOn(t *testing.T) {
	// Sessions run cost-chosen adaptive exchanges: the tiny hotels table
	// collapses to single-partition task rounds, each choice is pinned as
	// an exchange-target cost decision, and the rows are the Listing-4
	// rewrite's.
	q := "SELECT id, price, user_rating FROM hotels SKYLINE OF price MIN, user_rating MAX"
	sess := hotelSession(t)
	df, err := sess.SQL(q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var targets int
	for _, d := range df.Metrics().CostDecisions() {
		if d.Site == "exchange-target" {
			targets++
			if d.Choice != "adaptive" || !strings.HasSuffix(d.Detail, "partitions=1/3") {
				t.Errorf("tiny input must collapse 3 -> 1, got %+v", d)
			}
		}
	}
	if targets == 0 {
		t.Fatal("a session must record adaptive decisions")
	}
	ref, err := sess.RewriteSkyline(q, false)
	if err != nil {
		t.Fatal(err)
	}
	refRows, err := sess.Query(ref)
	if err != nil {
		t.Fatal(err)
	}
	got, want := rowsToStrings(rows), rowsToStrings(refRows)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("adaptive rows %v != rewrite rows %v", got, want)
	}
}

func TestExplainReportsCostDecisions(t *testing.T) {
	// A filtered skyline run surfaces the decode-at-scan gate's choice in
	// Explain, next to the stage times and decode counters.
	sess := hotelSession(t)
	df, err := sess.SQL("SELECT id, price, user_rating FROM hotels WHERE price < 70 SKYLINE OF price MIN, user_rating MAX")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.Collect(); err != nil {
		t.Fatal(err)
	}
	out, err := df.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cost decisions:") || !strings.Contains(out, "decode-at-scan:") {
		t.Errorf("explain after run must surface cost decisions:\n%s", out)
	}
}

// TestRewriteSkylineKeepsNamesAndTypes: the Listing-4 rewrite renders a
// name that is not a plain lower-case identifier quoted — one with a
// space, a reserved word — and a DOUBLE literal as a DOUBLE (-0.0 stays
// -0.0, not the BIGINT 0), so the rewritten SQL parses and returns the
// skyline's answer, value kinds and float bits included.
func TestRewriteSkylineKeepsNamesAndTypes(t *testing.T) {
	sess := skysql.NewSession()
	t.Cleanup(sess.Close)
	schema := skysql.NewSchema(
		skysql.Field{Name: "a b", Type: skysql.KindFloat},
		skysql.Field{Name: "select", Type: skysql.KindFloat},
		skysql.Field{Name: "x", Type: skysql.KindFloat},
	)
	rows := []skysql.Row{
		{skysql.Float(1), skysql.Float(5), skysql.Float(-1)},
		{skysql.Float(2), skysql.Float(9), skysql.Float(3)},
		{skysql.Float(3), skysql.Float(7), skysql.Float(0.5)},
		{skysql.Float(0.5), skysql.Float(1), skysql.Float(2)},
	}
	if err := sess.CreateTable("t", schema, rows); err != nil {
		t.Fatal(err)
	}
	query := `SELECT "a b", "select", -0.0 AS z FROM t WHERE x > -0.0 SKYLINE OF "a b" MIN, "select" MAX`
	ref, err := sess.RewriteSkyline(query, false)
	if err != nil {
		t.Fatal(err)
	}
	refRows, err := sess.Query(ref)
	if err != nil {
		t.Fatalf("rewrite %q: %v", ref, err)
	}
	intRows, err := sess.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	render := func(rows []skysql.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			for _, v := range r {
				out[i] += fmt.Sprintf("%v:%v|", v.Kind(), v)
			}
		}
		sort.Strings(out)
		return out
	}
	got, want := render(refRows), render(intRows)
	if len(want) == 0 || strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("rewrite %q answers %v, the skyline %v", ref, got, want)
	}
	if !strings.Contains(want[0], "-0") {
		t.Fatalf("the skyline's z column is %v, want DOUBLE -0", want)
	}
}

// TestRewriteSkylineKeepsClauses: the Listing-4 rewrite of a skyline with
// SELECT DISTINCT, ORDER BY or LIMIT answers what the skyline answers, a
// DIFF-only skyline's rewrite keeps every row, and SKYLINE OF DISTINCT —
// whose choice among equal points no plain SQL reproduces — is refused.
func TestRewriteSkylineKeepsClauses(t *testing.T) {
	sess := skysql.NewSession()
	t.Cleanup(sess.Close)
	schema := skysql.NewSchema(
		skysql.Field{Name: "id", Type: skysql.KindInt},
		skysql.Field{Name: "a", Type: skysql.KindInt},
		skysql.Field{Name: "b", Type: skysql.KindInt},
	)
	rows := []skysql.Row{
		{skysql.Int(1), skysql.Int(1), skysql.Int(5)},
		{skysql.Int(2), skysql.Int(1), skysql.Int(5)},
		{skysql.Int(3), skysql.Int(5), skysql.Int(1)},
		{skysql.Int(4), skysql.Int(6), skysql.Int(6)},
	}
	if err := sess.CreateTable("t", schema, rows); err != nil {
		t.Fatal(err)
	}
	// render is how each answer is compared: the LIMIT without ORDER BY
	// may keep any one skyline row, so only its size is.
	inOrder := func(rows []skysql.Row) string { return fmt.Sprint(rows) }
	asMultiset := func(rows []skysql.Row) string { return strings.Join(rowsToStrings(rows), ";") }
	size := func(rows []skysql.Row) string { return fmt.Sprint(len(rows)) }
	for _, c := range []struct {
		query  string
		render func([]skysql.Row) string
		count  int
	}{
		{"SELECT * FROM t SKYLINE OF a MIN, b MIN LIMIT 1", size, 1},
		{"SELECT * FROM t SKYLINE OF a MIN, b MIN ORDER BY id DESC LIMIT 1", inOrder, 1},
		{"SELECT DISTINCT a, b FROM t SKYLINE OF a MIN, b MIN", asMultiset, 2},
		{"SELECT id FROM t SKYLINE OF a DIFF", asMultiset, 4},
	} {
		ref, err := sess.RewriteSkyline(c.query, false)
		if err != nil {
			t.Fatal(err)
		}
		refRows, err := sess.Query(ref)
		if err != nil {
			t.Fatalf("rewrite %q: %v", ref, err)
		}
		intRows, err := sess.Query(c.query)
		if err != nil {
			t.Fatal(err)
		}
		if len(intRows) != c.count || c.render(refRows) != c.render(intRows) {
			t.Errorf("%q answers %v; its rewrite %q answers %v", c.query, intRows, ref, refRows)
		}
	}
	if ref, err := sess.RewriteSkyline("SELECT * FROM t SKYLINE OF DISTINCT a MIN, b MIN", false); err == nil {
		t.Errorf("SKYLINE OF DISTINCT rewrote to %q, want an error", ref)
	}
}
