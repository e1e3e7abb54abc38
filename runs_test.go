package skysql_test

import (
	"math/rand"
	"strings"
	"testing"

	"skysql"
	"skysql/internal/datagen"
)

// TestGlobalPassReusesLocalRuns is kernel_anti's shape — 4 000
// anti-correlated rows, d=4, 4 executors, no cache — under the paper's
// distributed plan: the local skylines hand their runs to the global BNL,
// whose chunks are then the runs themselves, so the query takes two task
// rounds (local skylines, the global pass's cross-chunk filter) instead of
// three. The answer is the non-distributed plan's and the Listing-4
// rewrite's.
func TestGlobalPassReusesLocalRuns(t *testing.T) {
	tab := datagen.Synthetic(datagen.AntiCorrelated, 4000, 4, datagen.Config{Seed: 1, Complete: true})
	const query = "SELECT * FROM t SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN"
	run := func(st skysql.SkylineStrategy) ([]skysql.Row, *skysql.Metrics) {
		sess := skysql.NewSession(skysql.WithExecutors(4), skysql.WithSkylineStrategy(st))
		defer sess.Close()
		if err := sess.CreateTable("t", tab.Schema, tab.Rows); err != nil {
			t.Fatal(err)
		}
		df, err := sess.SQL(query)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := df.Collect()
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		return rows, df.Metrics()
	}
	rows, m := run(skysql.Auto)
	if got := m.Count(skysql.Stages); got != 2 {
		t.Errorf("auto ran %d task rounds, want 2: local skylines, then the cross-chunk filter", got)
	}
	if got := m.Count(skysql.Morsels); got != 16 {
		t.Errorf("auto ran %d morsels, want 16: 8 local, 8 cross-chunk", got)
	}
	// The plan's peak charge and exchange volume are pure functions of the
	// data, the plan and the executor count, so they are pinned too: a
	// change that grows either shows here, not only in wall time.
	if got := m.PeakBytes(); got != 1862144 {
		t.Errorf("auto peaked at %d bytes, want 1862144", got)
	}
	if got := m.Count(skysql.RowsShuffled); got != 7774 {
		t.Errorf("auto shuffled %d rows, want 7774", got)
	}
	got := strings.Join(oracleKeys(rows, false), "\n")
	ndc, _ := run(skysql.NonDistributedComplete)
	if want := strings.Join(oracleKeys(ndc, false), "\n"); got != want {
		t.Errorf("auto answers %d rows, the non-distributed plan %d, or other rows", len(rows), len(ndc))
	}

	ref := skysql.NewSession(skysql.WithExecutors(1))
	defer ref.Close()
	if err := ref.CreateTable("t", tab.Schema, tab.Rows); err != nil {
		t.Fatal(err)
	}
	rewritten, err := ref.RewriteSkyline(query, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query(rewritten)
	if err != nil {
		t.Fatal(err)
	}
	if got != strings.Join(oracleKeys(want, false), "\n") {
		t.Errorf("auto answers %d rows, the rewrite %d, or other rows", len(rows), len(want))
	}
}

// TestStackedDistinctSkylineOverRuns stacks SKYLINE OF DISTINCT on SKYLINE
// OF over the same dimensions, on data full of duplicate dimension
// vectors: the inner local skylines mark runs made without DISTINCT, which
// may hold Equal points, below a DISTINCT global pass that must never
// trust them. The answer must be one row per dimension vector of the
// plain skyline's rewrite, on 1–4 executors, with morsels and without.
func TestStackedDistinctSkylineOverRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	schema := skysql.NewSchema(
		skysql.Field{Name: "id", Type: skysql.KindInt},
		skysql.Field{Name: "a", Type: skysql.KindInt},
		skysql.Field{Name: "b", Type: skysql.KindInt},
		skysql.Field{Name: "c", Type: skysql.KindFloat},
	)
	rows := make([]skysql.Row, 3000)
	for i := range rows {
		a := rng.Intn(12)
		rows[i] = skysql.Row{skysql.Int(int64(i)), skysql.Int(int64(a)), skysql.Int(int64(11 - a + rng.Intn(2))),
			skysql.Float(float64(rng.Intn(3)))}
	}
	dims := []skysql.SkylineDim{skysql.Smin("a"), skysql.Smin("b"), skysql.Smax("c")}

	ref := skysql.NewSession(skysql.WithExecutors(1))
	defer ref.Close()
	if err := ref.CreateTable("t", schema, rows); err != nil {
		t.Fatal(err)
	}
	rewritten, err := ref.RewriteSkyline("SELECT a, b, c FROM t SKYLINE OF COMPLETE a MIN, b MIN, c MAX", false)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ref.Query(rewritten)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(oracleKeys(plain, true), "\n")
	if len(plain) == len(oracleKeys(plain, true)) {
		t.Fatal("the skyline holds no duplicate vectors; DISTINCT is not exercised")
	}

	for executors := 1; executors <= 4; executors++ {
		for _, morsels := range []bool{true, false} {
			opts := []skysql.Option{skysql.WithExecutors(executors)}
			if !morsels {
				opts = append(opts, skysql.WithoutMorselParallelism())
			}
			sess := skysql.NewSession(opts...)
			if err := sess.CreateTable("t", schema, rows); err != nil {
				t.Fatal(err)
			}
			got, err := sess.Table("t").Skyline(dims, skysql.SkylineComplete()).
				Skyline(dims, skysql.SkylineComplete(), skysql.SkylineDistinct()).
				Select("a", "b", "c").Collect()
			sess.Close()
			if err != nil {
				t.Fatal(err)
			}
			if keys := strings.Join(oracleKeys(got, false), "\n"); keys != want {
				t.Errorf("executors %d, morsels %v: stacked DISTINCT skyline answers %d rows, want one per vector:\n%s",
					executors, morsels, len(got), keys)
			}
		}
	}
}
