package resultcache

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"skysql/internal/catalog"
	"skysql/internal/cluster"
	"skysql/internal/core"
	"skysql/internal/physical"
	"skysql/internal/skyline"
	"skysql/internal/types"
)

func hotelRows() []types.Row {
	return []types.Row{
		{types.Int(1), types.Int(50), types.Int(7)},
		{types.Int(2), types.Int(60), types.Int(9)},
		{types.Int(3), types.Int(80), types.Int(9)},
		{types.Int(4), types.Int(40), types.Int(5)},
		{types.Int(5), types.Int(55), types.Int(7)},
		{types.Int(6), types.Int(45), types.Int(8)},
	}
}

func newHotelEngine(t *testing.T) (*core.Engine, *catalog.Table) {
	t.Helper()
	return hotelEngine(t, types.NewSchema(
		types.Field{Name: "id", Type: types.KindInt},
		types.Field{Name: "price", Type: types.KindInt},
		types.Field{Name: "user_rating", Type: types.KindInt},
	))
}

// newNullableHotelEngine is newHotelEngine for tests that append NULLs or
// a NaN: every column is nullable and id is a DOUBLE. Its skyline queries
// say COMPLETE, or nullable dimensions would plan the incomplete skyline,
// which no append upgrades.
func newNullableHotelEngine(t *testing.T) (*core.Engine, *catalog.Table) {
	t.Helper()
	return hotelEngine(t, types.NewSchema(
		types.Field{Name: "id", Type: types.KindFloat, Nullable: true},
		types.Field{Name: "price", Type: types.KindInt, Nullable: true},
		types.Field{Name: "user_rating", Type: types.KindInt, Nullable: true},
	))
}

func hotelEngine(t *testing.T, schema *types.Schema) (*core.Engine, *catalog.Table) {
	t.Helper()
	cat := catalog.New()
	tab, err := catalog.NewTable("hotels", schema, hotelRows())
	if err != nil {
		t.Fatal(err)
	}
	cat.Register(tab)
	return core.NewEngine(cat), tab
}

// bindExec compiles a query with the cache attached and returns the
// CacheExec the planner wrapped it in (nil when the plan was not
// cacheable).
func bindExec(t *testing.T, e *core.Engine, c *Cache, query string, opts physical.Options) *CacheExec {
	t.Helper()
	opts.ResultCache = c
	compiled, err := e.CompileSQL(query, opts)
	if err != nil {
		t.Fatalf("compile %q: %v", query, err)
	}
	ce, _ := compiled.Physical.(*CacheExec)
	return ce
}

func runQuery(t *testing.T, e *core.Engine, c *Cache, query string, opts physical.Options) ([]types.Row, *cluster.Metrics) {
	t.Helper()
	opts.ResultCache = c
	compiled, err := e.CompileSQL(query, opts)
	if err != nil {
		t.Fatalf("compile %q: %v", query, err)
	}
	res, err := e.Run(compiled, 3)
	if err != nil {
		t.Fatalf("run %q: %v", query, err)
	}
	return res.Rows, res.Metrics
}

func rowStrings(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

func assertIdentical(t *testing.T, got, want []types.Row, label string) {
	t.Helper()
	g, w := rowStrings(got), rowStrings(want)
	if len(g) != len(w) {
		t.Fatalf("%s: got %d rows %v, want %d rows %v", label, len(g), g, len(w), w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d differs (order matters — bit identity):\n got  %v\n want %v", label, i, g, w)
		}
	}
}

// servedWalk is what a hit on e serves, weighed the slow way: a walk of
// its rows and sidecar as the dataset the hit returns.
func servedWalk(e *entry) int64 {
	served := &cluster.Dataset{Parts: [][]types.Row{e.rows}}
	if e.batch != nil {
		served.Batches = []*skyline.Batch{e.batch}
	}
	return served.MemSize()
}

// walkRowBytes is what an entry under key holding rows must record as its
// rowBytes: the rows' MemSize plus the key.
func walkRowBytes(rows []types.Row, key string) int64 {
	n := int64(len(key))
	for _, r := range rows {
		n += r.MemSize()
	}
	return n
}

// checkRecordedSizes holds every entry's recorded sizes to a walk of what
// it holds: rowBytes to its rows' MemSize plus its key, batchBytes to its
// sidecar's MemSize (0 without one), the size a hit charges to the walk of
// the dataset it serves, and the cache's used bytes to the entries' sum.
func checkRecordedSizes(t *testing.T, label string, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var used int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		rowBytes := walkRowBytes(e.rows, e.key)
		var batchBytes int64
		if e.batch != nil {
			batchBytes = e.batch.MemSize()
		}
		if e.rowBytes != rowBytes || e.batchBytes != batchBytes {
			t.Fatalf("%s: entry %q records rowBytes=%d batchBytes=%d, walked %d and %d",
				label, e.key, e.rowBytes, e.batchBytes, rowBytes, batchBytes)
		}
		if got, walked := e.servedBytes(), servedWalk(e); got != walked {
			t.Fatalf("%s: entry %q charges a hit %d bytes, the dataset it serves walks to %d", label, e.key, got, walked)
		}
		used += e.size()
	}
	if c.used != used {
		t.Fatalf("%s: used = %d, the entries sum to %d", label, c.used, used)
	}
}

func TestBindRequiresSkylineNode(t *testing.T) {
	e, _ := newHotelEngine(t)
	c := New(0)
	if ce := bindExec(t, e, c, "SELECT * FROM hotels WHERE price < 60", physical.Options{}); ce != nil {
		t.Error("a plain select must not be wrapped: this is a skyline result cache")
	}
	if ce := bindExec(t, e, c, "SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX", physical.Options{}); ce == nil {
		t.Error("a skyline query over an in-memory scan must be cacheable")
	}
}

func TestFingerprintNormalization(t *testing.T) {
	e, _ := newHotelEngine(t)
	c := New(0)
	key := func(query string, opts physical.Options) string {
		ce := bindExec(t, e, c, query, opts)
		if ce == nil {
			t.Fatalf("%q must be cacheable", query)
		}
		return ce.structural
	}

	// Maintainable (order-invariant) shape: dimension permutation and
	// WHERE-conjunct permutation both normalize to the same key.
	a := key("SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX", physical.Options{})
	b := key("SELECT * FROM hotels SKYLINE OF user_rating MAX, price MIN", physical.Options{})
	if a != b {
		t.Errorf("dim permutation must share a key on order-invariant plans:\n %s\n %s", a, b)
	}
	fa := key("SELECT * FROM hotels WHERE price < 100 AND user_rating > 1 SKYLINE OF price MIN, user_rating MAX", physical.Options{})
	fb := key("SELECT * FROM hotels WHERE user_rating > 1 AND price < 100 SKYLINE OF price MIN, user_rating MAX", physical.Options{})
	if fa != fb {
		t.Errorf("conjunct permutation must share a key:\n %s\n %s", fa, fb)
	}
	if a == fa {
		t.Error("filtered and unfiltered queries must not share a key")
	}

	// Different clause (direction flip) must not collide.
	d := key("SELECT * FROM hotels SKYLINE OF price MAX, user_rating MAX", physical.Options{})
	if a == d {
		t.Error("MIN vs MAX must not share a key")
	}

	// Order-sensitive shape (grid cells bucket by dimension order): literal
	// dimension order is kept, so the permuted clause gets its own key.
	sa := key("SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX", physical.Options{Strategy: physical.SkylineGridComplete})
	sb := key("SELECT * FROM hotels SKYLINE OF user_rating MAX, price MIN", physical.Options{Strategy: physical.SkylineGridComplete})
	if sa == sb {
		t.Error("grid plans are order-sensitive; dims must keep literal order")
	}
	if sa == a {
		t.Error("grid and BNL plans must not share a key")
	}

	// The bit-identical kernel ablation is excluded from the key on purpose.
	ka := key("SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX", physical.Options{DisableColumnarKernel: true})
	if ka != a {
		t.Errorf("kernel ablation must share entries:\n %s\n %s", ka, a)
	}
}

func TestHitServesBitIdenticalRows(t *testing.T) {
	e, _ := newHotelEngine(t)
	c := New(0)
	const q = "SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX"
	cold, m1 := runQuery(t, e, c, q, physical.Options{})
	if m1.CacheHits() != 0 || m1.CacheMisses() != 1 {
		t.Fatalf("cold run: hits=%d misses=%d", m1.CacheHits(), m1.CacheMisses())
	}
	hot, m2 := runQuery(t, e, c, q, physical.Options{})
	if m2.CacheHits() != 1 || m2.CacheMisses() != 0 {
		t.Fatalf("hot run: hits=%d misses=%d", m2.CacheHits(), m2.CacheMisses())
	}
	assertIdentical(t, hot, cold, "hit vs cold")
	if s := c.Stats(); s.Entries != 1 || s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestVersionInvalidationNeverServesStale(t *testing.T) {
	e, tab := newHotelEngine(t)
	c := New(0)
	const q = "SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX"
	runQuery(t, e, c, q, physical.Options{})

	// Bump the version without telling the cache (simulating a writer that
	// bypasses TableChanged): the key embeds the fresh version, so the
	// entry simply can never match again.
	if _, err := tab.Append(types.Row{types.Int(7), types.Int(30), types.Int(9)}); err != nil {
		t.Fatal(err)
	}
	rows, m := runQuery(t, e, c, q, physical.Options{})
	if m.CacheHits() != 0 || m.CacheMisses() != 1 {
		t.Fatalf("post-append run must miss: hits=%d misses=%d", m.CacheHits(), m.CacheMisses())
	}
	found := false
	for _, r := range rows {
		if r[0].AsInt() == 7 {
			found = true
		}
	}
	if !found {
		t.Error("recompute must see the appended row")
	}
}

func TestIncrementalUpgradeMatchesRecompute(t *testing.T) {
	const q = "SELECT * FROM hotels WHERE price < 100 SKYLINE OF price MIN, user_rating MAX"
	appends := []types.Row{
		{types.Int(7), types.Int(30), types.Int(6)},    // enters the skyline
		{types.Int(8), types.Int(35), types.Int(10)},   // dominates several cached points
		{types.Int(9), types.Int(999), types.Int(1)},   // dominated on arrival
		{types.Int(10), types.Int(200), types.Int(10)}, // fails the pushed-down filter: skipped
	}

	// Cached session: populate, append with TableChanged, then hit.
	e1, t1 := newHotelEngine(t)
	c1 := New(0)
	runQuery(t, e1, c1, q, physical.Options{})
	for _, r := range appends {
		if _, err := t1.Append(r); err != nil {
			t.Fatal(err)
		}
		up, inv := c1.TableChanged(t1, []types.Row{r})
		if up != 1 || inv != 0 {
			t.Fatalf("append %v: upgraded=%d invalidated=%d, want 1,0", r, up, inv)
		}
	}
	got, m := runQuery(t, e1, c1, q, physical.Options{})
	if m.CacheHits() != 1 {
		t.Fatalf("upgraded entry must serve a hit, got hits=%d misses=%d", m.CacheHits(), m.CacheMisses())
	}
	if m.IncrementalUpgrades() != int64(len(appends)) {
		t.Errorf("the serving query must drain %d pending upgrades, got %d", len(appends), m.IncrementalUpgrades())
	}

	// Cold session over the grown table: the ground truth.
	e2, t2 := newHotelEngine(t)
	for _, r := range appends {
		if _, err := t2.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := runQuery(t, e2, New(0), q, physical.Options{})
	assertIdentical(t, got, want, "incremental upgrade vs cold recompute")
	if s := c1.Stats(); s.Upgrades != int64(len(appends)) {
		t.Errorf("upgrades = %d, want %d", s.Upgrades, len(appends))
	}
}

func TestNullAppendInvalidates(t *testing.T) {
	e, tab := newNullableHotelEngine(t)
	c := New(0)
	const q = "SELECT * FROM hotels SKYLINE OF COMPLETE price MIN, user_rating MAX"
	runQuery(t, e, c, q, physical.Options{})
	nullRow := types.Row{types.Int(7), types.Null, types.Int(9)}
	if _, err := tab.Append(nullRow); err != nil {
		t.Fatal(err)
	}
	up, inv := c.TableChanged(tab, []types.Row{nullRow})
	if up != 0 || inv != 1 {
		t.Errorf("NULL skyline dimension must invalidate: upgraded=%d invalidated=%d", up, inv)
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Errorf("entry must be gone, stats = %+v", s)
	}
	if s := c.Stats(); s.Evictions != 0 {
		t.Errorf("invalidation must not count as eviction, stats = %+v", s)
	}
}

func TestNonMaintainableShapeInvalidatesOnAppend(t *testing.T) {
	e, tab := newHotelEngine(t)
	c := New(0)
	// Grid plans are cacheable but not incrementally maintainable.
	const q = "SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX"
	runQuery(t, e, c, q, physical.Options{Strategy: physical.SkylineGridComplete})
	r := types.Row{types.Int(7), types.Int(30), types.Int(9)}
	if _, err := tab.Append(r); err != nil {
		t.Fatal(err)
	}
	up, inv := c.TableChanged(tab, []types.Row{r})
	if up != 0 || inv != 1 {
		t.Errorf("non-maintainable entry must invalidate: upgraded=%d invalidated=%d", up, inv)
	}
}

// probeFootprints runs q1 then q2 against a generously budgeted cache
// and returns (rowBytes, batchBytes) of each resulting entry.
func probeFootprints(t *testing.T, e *core.Engine, q1, q2 string) (r1, b1, r2, b2 int64) {
	t.Helper()
	probe := New(0)
	runQuery(t, e, probe, q1, physical.Options{})
	runQuery(t, e, probe, q2, physical.Options{})
	if probe.lru.Len() != 2 {
		t.Fatalf("probe must hold 2 entries, has %d", probe.lru.Len())
	}
	newer := probe.lru.Front().Value.(*entry) // q2, most recently stored
	older := probe.lru.Back().Value.(*entry)  // q1
	return older.rowBytes, older.batchBytes, newer.rowBytes, newer.batchBytes
}

func TestLRUShedsSidecarBeforeEviction(t *testing.T) {
	e, _ := newHotelEngine(t)
	const q1 = "SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX"
	const q2 = "SELECT * FROM hotels SKYLINE OF price MIN, id MIN"
	r1, b1, r2, b2 := probeFootprints(t, e, q1, q2)
	if b1 == 0 {
		t.Fatal("probe entry has no sidecar; the shed test needs one")
	}

	// Budget holds both entries exactly iff the older sheds its sidecar.
	c := New(r1 + r2 + b2)
	runQuery(t, e, c, q1, physical.Options{})
	runQuery(t, e, c, q2, physical.Options{})
	s := c.Stats()
	if s.Entries != 2 || s.Evictions != 0 {
		t.Fatalf("both entries must survive via sidecar shedding, stats = %+v", s)
	}
	if s.UsedBytes != r1+r2+b2 {
		t.Errorf("used = %d, want %d (older sidecar shed: %d)", s.UsedBytes, r1+r2+b2, b1)
	}
	if got := c.lru.Back().Value.(*entry); got.batch != nil {
		t.Error("the LRU-oldest entry must have shed its sidecar first")
	}
	if got := c.lru.Front().Value.(*entry); got.batch == nil {
		t.Error("the newer entry must keep its sidecar")
	}

	// The shed entry still serves a hit with bit-identical rows.
	rows, m := runQuery(t, e, c, q1, physical.Options{})
	if m.CacheHits() != 1 {
		t.Fatalf("shed entry must still hit: hits=%d misses=%d", m.CacheHits(), m.CacheMisses())
	}
	want, _ := runQuery(t, e, New(0), q1, physical.Options{})
	assertIdentical(t, rows, want, "shed-sidecar hit vs recompute")

	// A budget too small for even one bare entry stores nothing.
	tiny := New(1)
	runQuery(t, e, tiny, q1, physical.Options{})
	if s := tiny.Stats(); s.Entries != 0 {
		t.Errorf("tiny budget must hold nothing, stats = %+v", s)
	}
}

func TestLRUEvictsOldestWholeEntry(t *testing.T) {
	e, _ := newHotelEngine(t)
	const q1 = "SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX"
	const q2 = "SELECT * FROM hotels SKYLINE OF price MIN, id MIN"
	r1, b1, r2, b2 := probeFootprints(t, e, q1, q2)

	// One byte short of (bare q1 + full q2): after the older entry sheds
	// its sidecar the cache is still over budget, so it is evicted whole.
	_ = b1
	budget := r1 + r2 + b2 - 1
	c := New(budget)
	runQuery(t, e, c, q1, physical.Options{})
	runQuery(t, e, c, q2, physical.Options{})
	s := c.Stats()
	if s.Entries != 1 || s.Evictions != 1 {
		t.Fatalf("oldest entry must be evicted whole, stats = %+v", s)
	}
	if s.UsedBytes > budget {
		t.Errorf("over budget: %d > %d", s.UsedBytes, budget)
	}
	// The survivor is q2; q1 misses, q2 hits.
	_, m := runQuery(t, e, c, q2, physical.Options{})
	if m.CacheHits() != 1 {
		t.Errorf("survivor must hit: hits=%d misses=%d", m.CacheHits(), m.CacheMisses())
	}
	_, m = runQuery(t, e, c, q1, physical.Options{})
	if m.CacheMisses() != 1 {
		t.Errorf("evicted oldest must miss: hits=%d misses=%d", m.CacheHits(), m.CacheMisses())
	}
}

func TestFailedRunNeverPopulates(t *testing.T) {
	e, _ := newHotelEngine(t)
	c := New(0)
	const q = "SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX"
	compiled, err := e.CompileSQL(q, physical.Options{ResultCache: c})
	if err != nil {
		t.Fatal(err)
	}
	ctx := cluster.NewContext(3)
	ctx.Cancel()
	if _, err := e.RunCtx(compiled, ctx); err == nil {
		t.Fatal("canceled run must fail")
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Errorf("a failed run must not populate the cache, stats = %+v", s)
	}
}

// TestLRUShedsEncodedThenSidecarThenEntry walks the whole ladder. Two
// entries, each with sidecar and encoded form, under three budgets, each
// one byte short of what the previous rung would have needed: the older
// entry first loses its text, then its sidecar too, then goes whole — and
// the newer entry is never touched.
func TestLRUShedsEncodedThenSidecarThenEntry(t *testing.T) {
	e, tab := newNullableHotelEngine(t)
	const q1 = "SELECT * FROM hotels SKYLINE OF COMPLETE price MIN, user_rating MAX"
	const q2 = "SELECT * FROM hotels SKYLINE OF COMPLETE price MIN, id MIN"
	r1, b1, r2, b2 := probeFootprints(t, e, q1, q2)
	rows1, _ := runQuery(t, e, New(0), q1, physical.Options{})
	rows2, _ := runQuery(t, e, New(0), q2, physical.Options{})
	// Each entry's text is charged with its row offsets, 4 bytes a row.
	n1 := int64(len(rowsJSON(t, rows1)) + 4*len(rows1))
	n2 := int64(len(rowsJSON(t, rows2)) + 4*len(rows2))
	newer := r2 + b2 + n2

	cases := []struct {
		name                     string
		budget                   int64
		entries                  int
		olderText, olderSidecar  bool
		wantUsed, wantEvictions  int64
		olderStillServesFromRows bool
	}{
		{"text goes first", r1 + b1 + n1 + newer - 1, 2, false, true, r1 + b1 + newer, 0, true},
		{"then the sidecar", r1 + b1 + newer - 1, 2, false, false, r1 + newer, 0, true},
		{"then the entry", r1 + newer - 1, 1, false, false, newer, 1, false},
	}
	for _, tc := range cases {
		c := New(tc.budget)
		serveJSON(t, e, c, q1)
		checkRecordedSizes(t, tc.name+": q1 stored and encoded", c)
		text2, _ := serveJSON(t, e, c, q2)
		checkRecordedSizes(t, tc.name+": q2 stored and encoded", c)
		s := c.Stats()
		if s.Entries != tc.entries || s.Evictions != tc.wantEvictions || s.UsedBytes != tc.wantUsed {
			t.Fatalf("%s: stats = %+v, want %d entries, %d evictions, %d bytes", tc.name, s, tc.entries, tc.wantEvictions, tc.wantUsed)
		}
		if front := c.lru.Front().Value.(*entry); front.batch == nil || !bytes.Equal(front.encoded, text2) {
			t.Errorf("%s: the newer entry must keep sidecar and text", tc.name)
		}
		if tc.entries == 2 {
			back := c.lru.Back().Value.(*entry)
			if (back.encoded != nil) != tc.olderText || (back.batch != nil) != tc.olderSidecar {
				t.Errorf("%s: older entry text=%v sidecar=%v, want %v and %v", tc.name,
					back.encoded != nil, back.batch != nil, tc.olderText, tc.olderSidecar)
			}
		}
		// Whatever was shed, the answer is the same text: re-encoded from
		// the rows of a hit, or recomputed after the eviction.
		text1, m := serveJSON(t, e, c, q1)
		if !bytes.Equal(text1, rowsJSON(t, rows1)) || (m.CacheHits() == 1) != tc.olderStillServesFromRows {
			t.Errorf("%s: q1 after shedding: hits=%d, %d bytes", tc.name, m.CacheHits(), len(text1))
		}
		checkRecordedSizes(t, tc.name+": q1 served again", c)
	}

	// Invalidation gives back every byte, text included.
	c := New(0)
	serveJSON(t, e, c, q1)
	serveJSON(t, e, c, q2)
	if s := c.Stats(); s.UsedBytes != r1+b1+n1+newer {
		t.Fatalf("both entries in full: used = %d, want %d", s.UsedBytes, r1+b1+n1+newer)
	}
	nullRow := types.Row{types.Int(7), types.Null, types.Int(9)}
	if _, err := tab.Append(nullRow); err != nil {
		t.Fatal(err)
	}
	if up, inv := c.TableChanged(tab, []types.Row{nullRow}); up != 0 || inv != 2 {
		t.Fatalf("NULL price: upgraded=%d invalidated=%d, want 0 and 2", up, inv)
	}
	checkRecordedSizes(t, "after invalidation", c)
	if s := c.Stats(); s.Entries != 0 || s.UsedBytes != 0 {
		t.Errorf("after invalidation: stats = %+v, want nothing held", s)
	}
}

// TestRecordedSizesFollowEveryStore: a store made after the governor
// dropped sidecars records no sidecar bytes, and a same-key re-store (what
// a concurrent miss does) replaces every recorded size with the new
// result's and drops the old text. A hit on either state charges its
// query exactly what a walk of the rows and sidecar it serves weighs.
func TestRecordedSizesFollowEveryStore(t *testing.T) {
	e, _ := newHotelEngine(t)
	c := New(0)
	const q = "SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX"
	hitCharge := func(label string) {
		t.Helper()
		en := c.lru.Front().Value.(*entry)
		_, m := runQuery(t, e, c, q, physical.Options{})
		if m.CacheHits() != 1 || m.PeakBytes() != servedWalk(en) {
			t.Fatalf("%s: hits=%d peak=%d, the served rows and sidecar walk to %d",
				label, m.CacheHits(), m.PeakBytes(), servedWalk(en))
		}
	}

	// Populate under a governor that has already dropped sidecars.
	compiled, err := e.CompileSQL(q, physical.Options{ResultCache: c})
	if err != nil {
		t.Fatal(err)
	}
	ctx := cluster.NewContext(3)
	ctx.MemoryBudget = 1 << 20
	ctx.Metrics.Alloc(700 << 10)
	if err := ctx.CheckBudget(); err != nil || !ctx.SidecarsDropped() {
		t.Fatalf("governor must drop sidecars at 70%% of budget: err=%v dropped=%v", err, ctx.SidecarsDropped())
	}
	ctx.Metrics.Free(700 << 10)
	if _, err := e.RunCtx(compiled, ctx); err != nil {
		t.Fatal(err)
	}
	checkRecordedSizes(t, "store after dropped sidecars", c)
	en := c.lru.Front().Value.(*entry)
	if c.lru.Len() != 1 || en.batch != nil {
		t.Fatalf("want one entry without a sidecar, have %d (sidecar %v)", c.lru.Len(), en.batch != nil)
	}
	hitCharge("hit without a sidecar")
	serveJSON(t, e, c, q)
	if en.encoded == nil {
		t.Fatal("a hit that renders text must leave it on the entry")
	}
	checkRecordedSizes(t, "text attached", c)

	// Re-store the same key with a fresh result that carries its sidecar.
	ce := bindExec(t, e, c, q, physical.Options{})
	out, err := ce.child.Execute(cluster.NewContext(3))
	if err != nil {
		t.Fatal(err)
	}
	batch, ok := out.MergedSidecar()
	if !ok {
		t.Fatal("a complete skyline over ints must carry a sidecar")
	}
	if !c.store(cluster.NewContext(3), entryKey(ce.structural, ce.deps), ce.structural, out.Gather(), batch, ce.deps, ce.maint) {
		t.Fatal("same-key re-store refused")
	}
	checkRecordedSizes(t, "same-key re-store", c)
	if c.lru.Len() != 1 || en.batch == nil || en.encoded != nil {
		t.Fatalf("re-store: %d entries, sidecar %v, text %v; want 1, true, false", c.lru.Len(), en.batch != nil, en.encoded != nil)
	}
	hitCharge("hit with a sidecar")
}

// TestEncodedFormNeverOutlivesItsRows: text rendered from a result can
// only land on an entry that still holds that result. A run that took its
// rows before an append and encodes them after it finds the entry re-keyed
// and leaves nothing; the next hit serves, and keeps, the new rows' text.
func TestEncodedFormNeverOutlivesItsRows(t *testing.T) {
	e, tab := newNullableHotelEngine(t)
	c := New(0)
	const q = "SELECT * FROM hotels SKYLINE OF COMPLETE price MIN, user_rating MAX"
	compiled, err := e.CompileSQL(q, physical.Options{ResultCache: c})
	if err != nil {
		t.Fatal(err)
	}
	before, err := e.ExecuteCtx(compiled, cluster.NewContext(3))
	if err != nil {
		t.Fatal(err)
	}
	best := types.Row{types.Int(7), types.Int(1), types.Int(10)} // dominates every hotel
	if _, err := tab.Append(best); err != nil {
		t.Fatal(err)
	}
	if up, inv := c.TableChanged(tab, []types.Row{best}); up != 1 || inv != 0 {
		t.Fatalf("upgraded=%d invalidated=%d, want 1 and 0", up, inv)
	}
	stale, err := before.AppendRowsJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if en := c.lru.Front().Value.(*entry); en.encoded != nil {
		t.Fatalf("text of the pre-append rows (%s) was attached to the upgraded entry", stale)
	}
	fresh, m := serveJSON(t, e, c, q)
	if want := rowsJSON(t, []types.Row{best}); m.CacheHits() != 1 || !bytes.Equal(fresh, want) || bytes.Equal(fresh, stale) {
		t.Fatalf("hit after the append (hits=%d) served %s, want %s", m.CacheHits(), fresh, want)
	}
	if en := c.lru.Front().Value.(*entry); !bytes.Equal(en.encoded, fresh) {
		t.Error("the hit that encoded the new rows must leave their text on the entry")
	}

	// A result JSON cannot carry is refused, and leaves nothing behind: the
	// upgrade that admits the NaN drops the text it cannot splice, and the
	// hit that encodes fails naming the cell.
	nan := types.Row{types.Float(math.NaN()), types.Int(0), types.Int(11)}
	if _, err := tab.Append(nan); err != nil {
		t.Fatal(err)
	}
	if up, inv := c.TableChanged(tab, []types.Row{nan}); up != 1 || inv != 0 {
		t.Fatalf("NaN id: upgraded=%d invalidated=%d, want 1 and 0", up, inv)
	}
	if en := c.lru.Front().Value.(*entry); en.encoded != nil || en.ends != nil {
		t.Fatal("the upgrade kept text for rows JSON cannot carry")
	}
	checkRecordedSizes(t, "NaN admitted", c)
	res, err := e.ExecuteCtx(compiled, cluster.NewContext(3))
	if err != nil {
		t.Fatal(err)
	}
	var cell *types.NonFiniteError
	if _, err := res.AppendRowsJSON(nil); !errors.As(err, &cell) || cell.Row != 0 || cell.Col != 0 {
		t.Fatalf("NaN in the result: err = %v, want a NonFiniteError at row 0 column 0", err)
	}
	if en := c.lru.Front().Value.(*entry); en.encoded != nil {
		t.Error("a refused encode must not reach the entry")
	}
}

// appendDuringScan stands in for a table that grows between a run's cache
// lookup and its scan: before the wrapped plan executes it lets a second,
// undisturbed run of the same plan store its result, then appends.
type appendDuringScan struct {
	physical.Operator
	before func()
}

func (a *appendDuringScan) Execute(ctx *cluster.Context) (*cluster.Dataset, error) {
	a.before()
	return a.Operator.Execute(ctx)
}

// TestOvertakenRunLeavesNoText: a run that missed at version v and whose
// scan then saw version v+1 holds rows its key does not name. Its store is
// refused (PR 10's revalidation) — and the text it encodes must not reach
// the entry a concurrent run stored under that key with the true v rows,
// or the next hit would answer v's row count over v+1's rows.
func TestOvertakenRunLeavesNoText(t *testing.T) {
	e, tab := newHotelEngine(t)
	c := New(0)
	const q = "SELECT * FROM hotels SKYLINE OF price MIN, user_rating MAX"
	overtaken := bindExec(t, e, c, q, physical.Options{})
	best := types.Row{types.Int(7), types.Int(1), types.Int(10)}
	var atV []types.Row
	overtaken.child = &appendDuringScan{Operator: overtaken.child, before: func() {
		atV, _ = runQuery(t, e, c, q, physical.Options{}) // stores under the key of version v
		if _, err := tab.Append(best); err != nil {       // v+1; the cache has not heard yet
			t.Fatal(err)
		}
	}}
	out, err := overtaken.Execute(cluster.NewContext(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Gather(); len(got) != 1 || len(atV) == 1 {
		t.Fatalf("the overtaken run must have scanned the grown table: %d rows, %d at v", len(got), len(atV))
	}
	if out.Encoding != nil {
		t.Fatal("a run whose store was refused must not address the entry under its key")
	}
	en := c.lru.Front().Value.(*entry)
	assertIdentical(t, en.rows, atV, "the entry under v's key")
	if en.encoded != nil {
		t.Error("text of newer rows landed on the entry")
	}
}
