package skysql_test

import (
	"strings"
	"testing"
	"time"

	"skysql"
)

// rowsInOrder renders rows without sorting: cache-hit assertions are
// bit-identity assertions, and row order is part of the contract.
func rowsInOrder(rows []skysql.Row) string {
	out := ""
	for _, r := range rows {
		out += r.String() + "\n"
	}
	return out
}

// collectWithMetrics runs one query and returns its rows and metrics.
func collectWithMetrics(t *testing.T, sess *skysql.Session, query string) ([]skysql.Row, *skysql.Metrics) {
	t.Helper()
	df, err := sess.SQL(query)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return rows, df.Metrics()
}

// TestResultCacheBitIdenticalAcrossAblations is the cache's core public
// contract: across every skyline strategy, with the columnar kernel on
// and off, a cache hit returns exactly — row for row, in order — what a
// cold recompute returns, and the hit/miss counters account for every
// run.
func TestResultCacheBitIdenticalAcrossAblations(t *testing.T) {
	strategies := []struct {
		name string
		st   skysql.SkylineStrategy
	}{
		{"auto", skysql.Auto},
		{"distributed-complete", skysql.DistributedComplete},
		{"non-distributed-complete", skysql.NonDistributedComplete},
		{"distributed-incomplete", skysql.DistributedIncomplete},
		{"grid", skysql.GridComplete},
		{"angle", skysql.AngleComplete},
		{"zorder", skysql.ZorderComplete},
	}
	ablations := []struct {
		name string
		opts []skysql.Option
	}{
		{"default", nil},
		{"no-kernel", []skysql.Option{skysql.WithoutColumnarKernel()}},
	}
	for _, st := range strategies {
		for _, ab := range ablations {
			t.Run(st.name+"/"+ab.name, func(t *testing.T) {
				base := append([]skysql.Option{skysql.WithSkylineStrategy(st.st)}, ab.opts...)
				cold := wideSession(t, base...)
				want, err := cold.Query(wideSkyline)
				if err != nil {
					t.Fatal(err)
				}
				cached := wideSession(t, append(base, skysql.WithResultCache(0))...)
				first, m1 := collectWithMetrics(t, cached, wideSkyline)
				if m1.Count(skysql.CacheMisses) != 1 || m1.Count(skysql.CacheHits) != 0 {
					t.Fatalf("first run: hits=%d misses=%d, want 0/1", m1.Count(skysql.CacheHits), m1.Count(skysql.CacheMisses))
				}
				second, m2 := collectWithMetrics(t, cached, wideSkyline)
				if m2.Count(skysql.CacheHits) != 1 || m2.Count(skysql.CacheMisses) != 0 {
					t.Fatalf("second run: hits=%d misses=%d, want 1/0", m2.Count(skysql.CacheHits), m2.Count(skysql.CacheMisses))
				}
				if rowsInOrder(first) != rowsInOrder(want) {
					t.Fatalf("populating run differs from cacheless session:\n got %v\nwant %v", first, want)
				}
				if rowsInOrder(second) != rowsInOrder(first) {
					t.Fatalf("hit differs from cold recompute:\n got %v\nwant %v", second, first)
				}
			})
		}
	}
}

// TestResultCacheStaleNeverServed covers the three invalidation sources
// at the public API: appends, re-registration under the same name, and
// drop-and-recreate. Each bumps the table version; the next run must
// miss and see the new data.
func TestResultCacheStaleNeverServed(t *testing.T) {
	build := func(t *testing.T) *skysql.Session {
		s := skysql.NewSession(skysql.WithExecutors(3), skysql.WithResultCache(0))
		t.Cleanup(s.Close)
		schema := skysql.NewSchema(
			skysql.Field{Name: "id", Type: skysql.KindInt},
			skysql.Field{Name: "price", Type: skysql.KindInt},
			skysql.Field{Name: "user_rating", Type: skysql.KindInt},
		)
		rows := []skysql.Row{
			{skysql.Int(1), skysql.Int(50), skysql.Int(7)},
			{skysql.Int(2), skysql.Int(60), skysql.Int(9)},
			{skysql.Int(4), skysql.Int(40), skysql.Int(5)},
		}
		if err := s.CreateTable("hotels", schema, rows); err != nil {
			t.Fatal(err)
		}
		return s
	}
	const q = "SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX"

	t.Run("append", func(t *testing.T) {
		s := build(t)
		collectWithMetrics(t, s, q)
		// A dominating append must appear in the very next result.
		if err := s.AppendRows("hotels", []skysql.Row{{skysql.Int(9), skysql.Int(10), skysql.Int(10)}}); err != nil {
			t.Fatal(err)
		}
		rows, _ := collectWithMetrics(t, s, q)
		if len(rows) != 1 || rows[0][0].AsInt() != 9 {
			t.Fatalf("append not visible: %v", rows)
		}
	})

	t.Run("recreate", func(t *testing.T) {
		s := build(t)
		before, _ := collectWithMetrics(t, s, q)
		schema := skysql.NewSchema(
			skysql.Field{Name: "id", Type: skysql.KindInt},
			skysql.Field{Name: "price", Type: skysql.KindInt},
			skysql.Field{Name: "user_rating", Type: skysql.KindInt},
		)
		if err := s.CreateTable("hotels", schema, []skysql.Row{
			{skysql.Int(7), skysql.Int(1), skysql.Int(1)},
		}); err != nil {
			t.Fatal(err)
		}
		rows, m := collectWithMetrics(t, s, q)
		if m.Count(skysql.CacheHits) != 0 {
			t.Fatal("re-registered table must not serve the old entry")
		}
		if len(rows) != 1 || rows[0][0].AsInt() != 7 {
			t.Fatalf("recreated table rows not served: %v (before: %v)", rows, before)
		}
	})

	t.Run("drop", func(t *testing.T) {
		s := build(t)
		collectWithMetrics(t, s, q)
		s.DropTable("hotels")
		if _, err := s.Query(q); err == nil {
			t.Fatal("dropped table must error, not serve from cache")
		}
	})
}

// TestResultCacheIncrementalUpgrade drives the append → upgrade → hit
// path through the public API: after AppendRows on a maintainable plan,
// the next run is still a hit (no recompute), reports the drained
// incremental upgrades, and returns exactly what a cold session over
// the grown table computes.
func TestResultCacheIncrementalUpgrade(t *testing.T) {
	// SELECT * compiles to the maintainable shape (global BNL over an
	// AllTuples gather over filter+local-skyline); an explicit column list
	// would put a projection above the skyline — cacheable, but append ⇒
	// invalidate instead of upgrade.
	const starSkyline = "SELECT * FROM wide WHERE c < 4 SKYLINE OF a MIN, b MAX"
	cached := wideSession(t, skysql.WithResultCache(0))
	collectWithMetrics(t, cached, starSkyline)

	appends := []skysql.Row{
		{skysql.Int(0), skysql.Int(39), skysql.Int(0)}, // min a: joins the skyline
		{skysql.Int(1), skysql.Int(39), skysql.Int(3)},
		{skysql.Int(30), skysql.Int(1), skysql.Int(2)}, // dominated region
	}
	for _, r := range appends {
		if err := cached.AppendRows("wide", []skysql.Row{r}); err != nil {
			t.Fatal(err)
		}
	}
	got, m := collectWithMetrics(t, cached, starSkyline)
	if m.Count(skysql.CacheHits) != 1 || m.Count(skysql.CacheMisses) != 0 {
		t.Fatalf("post-append run must hit the upgraded entry: hits=%d misses=%d",
			m.Count(skysql.CacheHits), m.Count(skysql.CacheMisses))
	}
	if m.Count(skysql.IncrementalUpgrades) != int64(len(appends)) {
		t.Errorf("incremental upgrades drained = %d, want %d", m.Count(skysql.IncrementalUpgrades), len(appends))
	}
	if s := cached.ResultCacheStats(); s.Upgrades != int64(len(appends)) || s.Invalidations != 0 {
		t.Errorf("session counters: upgrades = %d, invalidations = %d, want %d and 0",
			s.Upgrades, s.Invalidations, len(appends))
	}

	cold := wideSession(t)
	for _, r := range appends {
		if err := cold.AppendRows("wide", []skysql.Row{r}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := cold.Query(starSkyline)
	if err != nil {
		t.Fatal(err)
	}
	if rowsInOrder(got) != rowsInOrder(want) {
		t.Fatalf("upgraded entry differs from cold recompute:\n got %v\nwant %v", got, want)
	}
}

// TestResultCacheChaosPopulation is the fault-safety contract: a query
// that fails under injected faults must leave the cache unpopulated,
// and a query that succeeds through retries must populate it with
// results bit-identical to a fault-free run.
func TestResultCacheChaosPopulation(t *testing.T) {
	clean := wideSession(t)
	want, err := clean.Query(wideSkyline)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("failed-run-never-populates", func(t *testing.T) {
		sess := wideSession(t,
			skysql.WithResultCache(0),
			skysql.WithTaskRetries(0),
			skysql.WithFaultInjection(skysql.FaultInjection{Seed: 2, FaultRate: 1}),
		)
		if _, err := sess.Query(wideSkyline); err == nil {
			t.Fatal("fault rate 1 with no retries must fail the query")
		}
		if s := sess.ResultCacheStats(); s.Entries != 0 {
			t.Fatalf("failed run must not populate the cache: %+v", s)
		}
	})

	t.Run("retried-run-populates-bit-identical", func(t *testing.T) {
		sess := wideSession(t,
			skysql.WithResultCache(0),
			skysql.WithTaskRetries(12),
			skysql.WithFaultInjection(skysql.FaultInjection{
				Seed:           2,
				FaultRate:      0.3,
				StragglerRate:  0.05,
				StragglerDelay: 50 * time.Microsecond,
			}),
		)
		first, m := collectWithMetrics(t, sess, wideSkyline)
		if m.Count(skysql.InjectedFaults) == 0 {
			t.Fatal("injector fired no faults at rate 0.3; the population assertion needs some")
		}
		if rowsInOrder(first) != rowsInOrder(want) {
			t.Fatalf("chaotic populating run differs from fault-free run:\n got %v\nwant %v", first, want)
		}
		second, m2 := collectWithMetrics(t, sess, wideSkyline)
		if m2.Count(skysql.CacheHits) != 1 {
			t.Fatalf("second run must hit: hits=%d misses=%d", m2.Count(skysql.CacheHits), m2.Count(skysql.CacheMisses))
		}
		if rowsInOrder(second) != rowsInOrder(want) {
			t.Fatalf("cached chaotic result differs from fault-free run:\n got %v\nwant %v", second, want)
		}
	})
}

// TestResultCacheExplainSurfacesCounters pins the satellite contract
// that the cache counters travel with the cost decisions through
// Explain after a run.
func TestResultCacheExplainSurfacesCounters(t *testing.T) {
	sess := wideSession(t, skysql.WithResultCache(0))
	df, err := sess.SQL(wideSkyline)
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
	for _, needle := range []string{"result cache:", "1 misses", "result-cache"} {
		if !strings.Contains(out, needle) {
			t.Errorf("Explain missing %q:\n%s", needle, out)
		}
	}
}

// TestResultCacheTellsDoubleFromBigintLiterals: the cache's structural
// fingerprint renders each literal with its type, so `1.0` and `1` are
// different statements. After the DOUBLE one is cached, the BIGINT one
// must come back exactly as a cache-less session computes it — a BIGINT
// column, and with an id beyond 2⁵³ the exact product, not a rounded one.
func TestResultCacheTellsDoubleFromBigintLiterals(t *testing.T) {
	schema := skysql.NewSchema(
		skysql.Field{Name: "id", Type: skysql.KindInt},
		skysql.Field{Name: "d1", Type: skysql.KindFloat},
		skysql.Field{Name: "d2", Type: skysql.KindFloat},
	)
	rows := []skysql.Row{
		{skysql.Int(1<<53 + 1), skysql.Float(0.1), skysql.Float(0.9)},
		{skysql.Int(2), skysql.Float(0.5), skysql.Float(0.5)},
		{skysql.Int(3), skysql.Float(0.9), skysql.Float(0.1)},
		{skysql.Int(4), skysql.Float(0.95), skysql.Float(0.95)},
	}
	cached := skysql.NewSession(skysql.WithResultCache(1 << 20))
	t.Cleanup(cached.Close)
	cold := skysql.NewSession()
	t.Cleanup(cold.Close)
	for _, s := range []*skysql.Session{cached, cold} {
		if err := s.CreateTable("t", schema, rows); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]string{
		{"SELECT id, 1.0 AS c FROM t SKYLINE OF d1 MIN, d2 MIN", "SELECT id, 1 AS c FROM t SKYLINE OF d1 MIN, d2 MIN"},
		{"SELECT id * 1.0 AS c FROM t SKYLINE OF d1 MIN, d2 MIN", "SELECT id * 1 AS c FROM t SKYLINE OF d1 MIN, d2 MIN"},
	} {
		for _, q := range pair {
			got, err := cached.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cold.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || len(got) == 0 {
				t.Fatalf("%s: %d rows with the cache, %d without", q, len(got), len(want))
			}
			for i := range want {
				for c := range want[i] {
					if g, w := got[i][c], want[i][c]; g.Kind() != w.Kind() || g.String() != w.String() {
						t.Fatalf("%s: row %d column %d is %v (%v) with the cache, %v (%v) without", q, i, c, g, g.Kind(), w, w.Kind())
					}
				}
			}
		}
	}
}
