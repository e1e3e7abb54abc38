package skysql_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"skysql"
)

// oracleStrategies is every skyline strategy the differential runs;
// TestOracleCoversEveryStrategy keeps it complete.
var oracleStrategies = []skysql.SkylineStrategy{
	skysql.Auto, skysql.DistributedComplete, skysql.NonDistributedComplete,
	skysql.DistributedIncomplete, skysql.GridComplete, skysql.AngleComplete,
	skysql.ZorderComplete,
}

// TestOracleCoversEveryStrategy walks the SkylineStrategy values from 0
// until String reports one unknown, so a strategy cannot be added without
// the Listing-4 differential covering it.
func TestOracleCoversEveryStrategy(t *testing.T) {
	n := 0
	for st := skysql.SkylineStrategy(0); !strings.HasPrefix(st.String(), "SkylineStrategy("); st++ {
		if !slices.Contains(oracleStrategies, st) {
			t.Errorf("strategy %v (%d) is missing from oracleStrategies", st, int(st))
		}
		n++
	}
	if n != len(oracleStrategies) {
		t.Errorf("%d strategies, oracleStrategies lists %d", n, len(oracleStrategies))
	}
}

// oracleCase is one random table and one random skyline query over it.
type oracleCase struct {
	schema   *skysql.Schema
	rows     []skysql.Row
	query    string // the skyline query
	plain    string // the same query without SKYLINE OF DISTINCT
	distinct bool   // SKYLINE OF DISTINCT: compare dimension vector sets
	nullDims bool   // a dimension column is nullable: incomplete dominance
}

// oracleValues are the float values a column draws from: every kind of
// value the dominance test treats specially, and few enough for duplicates.
var oracleValues = []float64{math.Inf(-1), -1.5, math.Copysign(0, -1), 0, 0.5, 1, 2, math.Inf(1), math.NaN()}

// newOracleCase builds a table of 1–300 rows — an int id, then int, float
// and (on some tables) nullable columns holding NULL, NaN, ±Inf, −0 and
// duplicates — and a query of 1–4 MIN/MAX/DIFF dimensions with 0–1
// filters; COMPLETE only on tables without nullable columns.
func newOracleCase(rng *rand.Rand) oracleCase {
	withNulls := rng.Intn(2) == 0
	ncols := 2 + rng.Intn(4)
	fields := []skysql.Field{{Name: "id", Type: skysql.KindInt}}
	for c := 0; c < ncols; c++ {
		kind := skysql.KindInt
		if rng.Intn(2) == 0 {
			kind = skysql.KindFloat
		}
		nullable := withNulls && rng.Intn(2) == 0
		fields = append(fields, skysql.Field{Name: fmt.Sprintf("c%d", c), Type: kind, Nullable: nullable})
	}
	rows := make([]skysql.Row, 1+rng.Intn(300))
	for i := range rows {
		row := skysql.Row{skysql.Int(int64(i))}
		for _, f := range fields[1:] {
			switch {
			case f.Nullable && rng.Intn(5) == 0:
				row = append(row, skysql.Null)
			case f.Type == skysql.KindInt:
				row = append(row, skysql.Int(int64(rng.Intn(7)-3)))
			default:
				row = append(row, skysql.Float(oracleValues[rng.Intn(len(oracleValues))]))
			}
		}
		rows[i] = row
	}

	oc := oracleCase{schema: skysql.NewSchema(fields...), rows: rows}
	perm := rng.Perm(ncols)
	ndims := 1 + rng.Intn(min(4, ncols))
	dims := make([]string, ndims)
	cols := make([]string, ndims)
	for i := range dims {
		f := fields[1+perm[i]]
		cols[i] = f.Name
		dims[i] = f.Name + " " + []string{"MIN", "MAX", "DIFF"}[rng.Intn(3)]
		oc.nullDims = oc.nullDims || f.Nullable
	}
	where := ""
	switch c := fields[1+rng.Intn(ncols)].Name; rng.Intn(4) {
	case 1:
		where = fmt.Sprintf(" WHERE %s > %d", c, rng.Intn(3)-1)
	case 2:
		where = fmt.Sprintf(" WHERE %s <= %d", c, rng.Intn(3)-1)
	case 3:
		where = fmt.Sprintf(" WHERE %s IS NOT NULL", c)
	}
	mod := ""
	if !withNulls && rng.Intn(2) == 0 {
		mod = "COMPLETE "
	}
	sel := "*"
	if rng.Intn(3) == 0 {
		sel = "id, " + cols[0]
	}
	if oc.distinct = rng.Intn(4) == 0; oc.distinct {
		sel = strings.Join(cols, ", ")
	}
	body := fmt.Sprintf("SELECT %s FROM t%s SKYLINE OF ", sel, where)
	oc.plain = body + mod + strings.Join(dims, ", ")
	oc.query = oc.plain
	if oc.distinct {
		oc.query = body + "DISTINCT " + mod + strings.Join(dims, ", ")
	}
	return oc
}

// oracleKeys renders rows for comparison, sorted. With asSet, rows equal
// under dominance collapse to one key: −0 renders as 0, duplicates go.
func oracleKeys(rows []skysql.Row, asSet bool) []string {
	keys := make([]string, 0, len(rows))
	seen := map[string]bool{}
	for _, r := range rows {
		var sb strings.Builder
		for _, v := range r {
			if asSet && v.Kind() == skysql.KindFloat && v.AsFloat() == 0 {
				v = skysql.Float(0)
			}
			fmt.Fprintf(&sb, "%v:%v|", v.Kind(), v)
		}
		k := sb.String()
		if asSet && seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestOracleSkylineMatchesRewrite is a seeded random differential against
// an oracle that shares no code with the skyline operators: SKYLINE OF
// answers, as a row multiset, what its Listing-4 plain-SQL rewrite
// answers — under every strategy, with the columnar kernel on and off, on
// 1–4 executors. SKYLINE OF DISTINCT keeps one representative of equal
// points that no plain SQL pins down, so it is compared as its set of
// dimension vectors against the rewrite of the query without DISTINCT.
func TestOracleSkylineMatchesRewrite(t *testing.T) {
	const seeds = 300
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		oc := newOracleCase(rng)
		table, err := skysql.NewTable("t", oc.schema, oc.rows)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref := skysql.NewSession(skysql.WithExecutors(1))
		ref.RegisterTable(table)
		rewritten, err := ref.RewriteSkyline(oc.plain, oc.nullDims)
		if err != nil {
			t.Fatalf("seed %d: rewriting %q: %v", seed, oc.plain, err)
		}
		refRows, err := ref.Query(rewritten)
		ref.Close()
		if err != nil {
			t.Fatalf("seed %d: rewrite %q: %v", seed, rewritten, err)
		}
		want := strings.Join(oracleKeys(refRows, oc.distinct), "\n")
		strategies := oracleStrategies
		if oc.nullDims {
			// Only the incomplete algorithm has §3's dominance on NULLs.
			strategies = []skysql.SkylineStrategy{skysql.Auto, skysql.DistributedIncomplete}
		}
		for _, st := range strategies {
			for _, kernel := range []bool{true, false} {
				opts := []skysql.Option{skysql.WithExecutors(1 + rng.Intn(4)), skysql.WithSkylineStrategy(st)}
				if !kernel {
					opts = append(opts, skysql.WithoutColumnarKernel())
				}
				sess := skysql.NewSession(opts...)
				sess.RegisterTable(table)
				rows, err := sess.Query(oc.query)
				sess.Close()
				if err != nil {
					t.Fatalf("seed %d, %v, kernel %v: %q: %v", seed, st, kernel, oc.query, err)
				}
				if got := strings.Join(oracleKeys(rows, oc.distinct), "\n"); got != want {
					t.Fatalf("seed %d, %v, kernel %v: %q answers\n%s\nits rewrite %q answers\n%s",
						seed, st, kernel, oc.query, got, rewritten, want)
				}
			}
		}
	}
}
