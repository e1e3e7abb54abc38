package sql

import "testing"

// FuzzParse: any input either fails to parse or parses without panicking
// into a statement whose rendering parses back to a statement rendering
// the same — parse → String() → parse is a fixpoint, the property the
// Listing-4 rewrite and the result cache's fingerprint rely on. The seeds
// are the round-trip tests' queries plus CASE/IN, quoted identifiers and
// float literals; the committed corpus under testdata/fuzz/FuzzParse
// (which runs as part of `go test`) holds the inputs that broke it.
func FuzzParse(f *testing.F) {
	for _, q := range []string{
		"SELECT a FROM t",
		"SELECT DISTINCT a, b AS x FROM t WHERE a > 1 AND b < 2",
		"SELECT * FROM t AS o WHERE NOT EXISTS(SELECT * FROM t AS i WHERE i.a < o.a)",
		"SELECT a, count(*) AS n FROM t GROUP BY a HAVING count(*) > 1",
		"SELECT a FROM t SKYLINE OF DISTINCT COMPLETE a MIN, b MAX, c DIFF",
		"SELECT a FROM t ORDER BY a DESC, b LIMIT 10",
		"SELECT r.id FROM rec r LEFT OUTER JOIN track x ON x.recording = r.id JOIN meta m USING (id)",
		"SELECT x FROM (SELECT a AS x FROM t WHERE a IS NOT NULL) AS sub",
		"SELECT ifnull(a, 0) AS v, -b, a + b * c FROM t",
		"SELECT a FROM t CROSS JOIN u",
		"SELECT 'it''s', 2.5, NULL, TRUE FROM t",
		"SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END AS c FROM t WHERE b IN (1, 2.0, -3) AND c NOT IN (4)",
		`SELECT "a b", "select", t."from" AS "AS" FROM "my table" AS "t" SKYLINE OF "a b" MIN`,
		"SELECT 1.0, -0.0, 1e3, .5, 2.5e-3, -7 FROM t WHERE a BETWEEN 1 AND 2.0",
		"SELECT - -a, -(b), NOT NOT c FROM t",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		stmt, err := Parse(q)
		if err != nil {
			return
		}
		first := stmt.String()
		again, err := Parse(first)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", q, first, err)
		}
		if second := again.String(); second != first {
			t.Fatalf("%q renders as %q, which renders as %q", q, first, second)
		}
	})
}
