package skysql_test

import (
	"strings"
	"testing"

	"skysql"
)

// Rows reach a table through the Go API only when they fit its schema:
// each value of its column's kind, NULL only in nullable columns. The
// table of these tests, t(id BIGINT, p DOUBLE, q DOUBLE), is all NOT NULL
// (the Field default).

func checkedSession(t *testing.T, opts ...skysql.Option) *skysql.Session {
	t.Helper()
	sess := skysql.NewSession(append([]skysql.Option{skysql.WithExecutors(2)}, opts...)...)
	t.Cleanup(sess.Close)
	schema := skysql.NewSchema(
		skysql.Field{Name: "id", Type: skysql.KindInt},
		skysql.Field{Name: "p", Type: skysql.KindFloat},
		skysql.Field{Name: "q", Type: skysql.KindFloat},
	)
	rows := []skysql.Row{
		{skysql.Int(1), skysql.Float(5), skysql.Float(1)},
		{skysql.Int(2), skysql.Float(3), skysql.Float(4)},
		{skysql.Int(3), skysql.Float(1), skysql.Float(6)},
	}
	if err := sess.CreateTable("t", schema, rows); err != nil {
		t.Fatal(err)
	}
	return sess
}

// refuseRow holds CreateTable and AppendRows to refusing bad, with an
// error naming column col, and checks that the refused append left the
// table's three rows alone.
func refuseRow(t *testing.T, sess *skysql.Session, bad skysql.Row, col string) {
	t.Helper()
	schema, err := sess.Table("t").Schema()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.CreateTable("u", schema, []skysql.Row{bad}); err == nil || !strings.Contains(err.Error(), col) {
		t.Errorf("CreateTable with %v: err = %v, want a refusal naming %s", bad, err, col)
	}
	good := skysql.Row{skysql.Int(4), skysql.Float(9), skysql.Float(9)}
	if err := sess.AppendRows("t", []skysql.Row{good, bad}); err == nil || !strings.Contains(err.Error(), col) {
		t.Errorf("AppendRows with %v: err = %v, want a refusal naming %s", bad, err, col)
	}
	if rows, err := sess.Query("SELECT * FROM t"); err != nil || len(rows) != 3 {
		t.Errorf("after the refused append: %v (err %v), want the 3 rows created", rows, err)
	}
}

// A DOUBLE with a fraction is no BIGINT: it is refused, so WHERE id = 1.5
// finds nothing.
func TestAppendRowsRefusesFractionInBigint(t *testing.T) {
	sess := checkedSession(t)
	refuseRow(t, sess, skysql.Row{skysql.Float(1.5), skysql.Float(2), skysql.Float(2)}, `"id"`)
	if rows, err := sess.Query("SELECT * FROM t WHERE id = 1.5"); err != nil || len(rows) != 0 {
		t.Errorf("WHERE id = 1.5: %v (err %v), want no row", rows, err)
	}
}

// A NULL in a NOT NULL column is refused: the §5.4 extremum rewrite of a
// one-dimension skyline trusts the declaration, and would drop the row
// that incomplete semantics keeps.
func TestAppendRowsRefusesNullInNotNullColumn(t *testing.T) {
	sess := checkedSession(t)
	refuseRow(t, sess, skysql.Row{skysql.Int(4), skysql.Float(0), skysql.Null}, `"q"`)
	rows, err := sess.Query("SELECT id FROM t SKYLINE OF q MIN")
	if err != nil || len(rows) != 1 || rows[0][0].AsInt() != 1 {
		t.Errorf("SKYLINE OF q MIN: %v (err %v), want row 1", rows, err)
	}
}

// A STRING in a DOUBLE column is refused, so skylines over the column keep
// working instead of failing on incomparable kinds until the table goes.
func TestAppendRowsRefusesStringInDouble(t *testing.T) {
	sess := checkedSession(t)
	refuseRow(t, sess, skysql.Row{skysql.Int(4), skysql.Str("x"), skysql.Float(0)}, `"p"`)
	rows, err := sess.Query("SELECT id FROM t SKYLINE OF p MIN, q MIN")
	if err != nil || len(rows) != 3 {
		t.Errorf("SKYLINE OF p MIN, q MIN: %v (err %v), want all 3 rows", rows, err)
	}
}

// BIGINT and DOUBLE values convert into each other's columns when exact;
// beyond 2⁵³ they are refused. The cache upgrades with the rows the table
// stored, so a cached answer holds the same kinds as a cold one.
func TestAppendRowsConvertsExactNumbers(t *testing.T) {
	refuseRow(t, checkedSession(t), skysql.Row{skysql.Float(1 << 54), skysql.Float(0), skysql.Float(0)}, `"id"`)
	refuseRow(t, checkedSession(t), skysql.Row{skysql.Int(4), skysql.Int(1<<53 + 1), skysql.Float(0)}, `"p"`)

	const q = "SELECT * FROM t SKYLINE OF p MIN, q MIN"
	cached := checkedSession(t, skysql.WithResultCache(0))
	if _, err := cached.Query(q); err != nil {
		t.Fatal(err)
	}
	in := []skysql.Row{{skysql.Float(7), skysql.Int(0), skysql.Float(0)}}
	if err := cached.AppendRows("t", in); err != nil {
		t.Fatal(err)
	}
	if in[0][0].Kind() != skysql.KindFloat || in[0][1].Kind() != skysql.KindInt {
		t.Errorf("AppendRows converted the caller's row in place: %v", in[0])
	}
	if s := cached.ResultCacheStats(); s.Upgrades != 1 {
		t.Fatalf("the append must upgrade the cached entry: %+v", s)
	}
	rows, err := cached.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Kind() != skysql.KindInt || rows[0][1].Kind() != skysql.KindFloat {
		t.Fatalf("cached answer %v, want the appended row as BIGINT, DOUBLE, DOUBLE", rows)
	}
}
