package skysql_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skysql"
	"skysql/internal/datagen"
	"skysql/internal/storage"
)

// TestSegmentStorageSessionBitIdentical is the public-API face of the
// storage contract: a session storing its tables as paged columnar
// segments — zone-map pruning included — must answer every query
// exactly like the in-memory session, on the same mixed workload the
// robustness suite uses.
func TestSegmentStorageSessionBitIdentical(t *testing.T) {
	plain := wideSession(t)
	want, err := plain.Query(wideSkyline)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts []skysql.Option
	}{
		{"segments", []skysql.Option{skysql.WithSegmentStorage(""), skysql.WithSegmentRows(64)}},
		{"segments on disk", []skysql.Option{skysql.WithSegmentStorage(t.TempDir()), skysql.WithSegmentRows(64)}},
	} {
		sess := wideSession(t, tc.opts...)
		got, err := sess.Query(wideSkyline)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if fmt.Sprint(rowsToStrings(got)) != fmt.Sprint(rowsToStrings(want)) {
			t.Errorf("%s: segment-backed rows differ from in-memory:\n got %v\nwant %v", tc.name, got, want)
		}
	}
}

// TestOutOfCoreSpillCompletesBudgetedQuery: with a spill directory armed,
// a budget that forces the governor to degrade must engage the
// spill-to-segments rung first — gather buffers move to temporary
// segment files, SegmentsSpilled lands in the metrics — and the query
// must still return the identical skyline.
func TestOutOfCoreSpillCompletesBudgetedQuery(t *testing.T) {
	free := wideSession(t)
	df, err := free.SQL(wideSkyline)
	if err != nil {
		t.Fatal(err)
	}
	want, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	peak := df.Metrics().PeakBytes()
	if peak == 0 {
		t.Fatal("unbudgeted run recorded no peak bytes")
	}

	sess := wideSession(t,
		skysql.WithMemoryBudget(peak+peak/4),
		skysql.WithSpillDirectory(t.TempDir()))
	bdf, err := sess.SQL(wideSkyline)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bdf.Collect()
	if err != nil {
		t.Fatalf("budgeted collect with spill: %v", err)
	}
	if fmt.Sprint(rowsToStrings(got)) != fmt.Sprint(rowsToStrings(want)) {
		t.Fatalf("spilled rows differ:\n got %v\nwant %v", got, want)
	}
	m := bdf.Metrics()
	// One gather input goes to a temporary segment: the count is a pure
	// function of the partition layout at the budgeted gather.
	if got := m.Count(skysql.SegmentsSpilled); got != 1 {
		t.Errorf("budgeted run spilled %d segments, want 1", got)
	}
	steps := m.Degradations()
	if len(steps) == 0 {
		t.Fatal("budget near the peak never degraded — tighten the test budget")
	}
	if !strings.Contains(steps[0], "spill-to-segments") {
		t.Errorf("first degradation rung %q, want spill-to-segments first (ladder order)", steps[0])
	}
}

// TestMillionPointPruningBitIdentical is the headline acceptance run: a
// filtered skyline over a segment-backed million-point dataset must skip
// segments via zone maps and return exactly the in-memory answer. The
// data is clustered on the filter column (sorted by d1) so the selective
// cut maps onto whole segments.
func TestMillionPointPruningBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("million-point dataset; skipped with -short")
	}
	const n = 1 << 20
	tab := datagen.Synthetic(datagen.Correlated, n, 2, datagen.Config{Seed: 7, Complete: true})
	rows := append([]skysql.Row(nil), tab.Rows...)
	sort.SliceStable(rows, func(i, j int) bool {
		return rows[i][1].AsFloat() < rows[j][1].AsFloat()
	})
	const query = "SELECT * FROM pts WHERE d1 < 0.01 SKYLINE OF COMPLETE d1 MIN, d2 MIN"

	mem := skysql.NewSession()
	t.Cleanup(mem.Close)
	if err := mem.CreateTable("pts", tab.Schema, rows); err != nil {
		t.Fatal(err)
	}
	want, err := mem.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("empty skyline proves nothing")
	}

	seg := skysql.NewSession(skysql.WithSegmentStorage(""))
	t.Cleanup(seg.Close)
	if err := seg.CreateTable("pts", tab.Schema, rows); err != nil {
		t.Fatal(err)
	}
	df, err := seg.SQL(query)
	if err != nil {
		t.Fatal(err)
	}
	got, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rowsToStrings(got)) != fmt.Sprint(rowsToStrings(want)) {
		t.Fatal("segment-backed million-point skyline differs from in-memory")
	}
	// 1M rows at the default 65536-row segments is 16 zone maps; d1 < 0.01
	// on d1-sorted data leaves all but the leading segments provably empty.
	if pruned := df.Metrics().Count(skysql.SegmentsPruned); pruned < 1 {
		t.Errorf("SegmentsPruned = %d, want at least 1 of 16 segments skipped", pruned)
	}
}

// writeScanSegments writes the benchmark's scan_segments table at the
// given size as segment files under dir: independent d=4 data (id,
// d1..d4) in seven segments, the layout the benchmark's smoke run keeps.
// It returns the workload's query, whose id cut prunes three of them.
func writeScanSegments(tb testing.TB, dir string, rows int) string {
	tb.Helper()
	cfg := datagen.Config{Seed: 1, Complete: true}
	w := storage.NewWriter(datagen.SyntheticSchema(4, cfg), dir, "t", rows/7+1)
	if err := datagen.SyntheticStream(datagen.Independent, rows, 4, cfg, w.Append); err != nil {
		tb.Fatal(err)
	}
	if _, err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return fmt.Sprintf("SELECT * FROM t WHERE id >= %d AND d1 < 0.5 SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN", rows/2)
}

// BenchmarkSegmentScan is the micro tier of the on-disk scan: the
// benchmark's scan_segments query shape over file-backed segments.
// ns/row is per table row; run with -benchmem for allocs/op.
func BenchmarkSegmentScan(b *testing.B) {
	const rows = 200000
	dir := b.TempDir()
	query := writeScanSegments(b, dir, rows)
	sess := skysql.NewSession(skysql.WithExecutors(4))
	b.Cleanup(sess.Close)
	if err := sess.OpenSegments("t", dir); err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Query(query); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Query(query); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
}

// TestSegmentScanPeakBelowBoxedSurvivors: the scan_segments query must
// never hold the surviving segments as boxed rows. Its peak accounted
// bytes stay below what those rows take boxed — the first stage reads
// pages into its batch and boxes only the rows its local skylines keep.
func TestSegmentScanPeakBelowBoxedSurvivors(t *testing.T) {
	const rows = 14000
	dir := t.TempDir()
	query := writeScanSegments(t, dir, rows)
	sess := skysql.NewSession(skysql.WithExecutors(4))
	t.Cleanup(sess.Close)
	if err := sess.OpenSegments("t", dir); err != nil {
		t.Fatal(err)
	}
	df, err := sess.SQL(query)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.Collect(); err != nil {
		t.Fatal(err)
	}
	store, err := storage.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var boxed int64
	survivors := 0
	for _, seg := range store.Segments() {
		if seg.Footer.Cols[0].Max < rows/2 {
			continue // the id cut prunes it
		}
		survivors++
		decoded, err := seg.Decode()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range decoded {
			boxed += r.MemSize()
		}
	}
	if pruned := df.Metrics().Count(skysql.SegmentsPruned); pruned != int64(len(store.Segments())-survivors) {
		t.Fatalf("pruned %d segments, want %d", pruned, len(store.Segments())-survivors)
	}
	peak := df.Metrics().PeakBytes()
	if peak >= boxed {
		t.Fatalf("peak %d bytes, not below the %d bytes of the %d surviving segments boxed", peak, boxed, survivors)
	}
	t.Logf("peak %d bytes; the %d surviving segments take %d boxed", peak, survivors, boxed)
}

// TestConcurrentSegmentScans runs several goroutines over one segment
// table, each cycling through query shapes that take the page path, the
// boxed path and both, on one session with a per-query and a global
// memory budget. Every answer must equal the in-memory session's, and
// when the goroutines are done the governor holds no byte.
func TestConcurrentSegmentScans(t *testing.T) {
	const rows = 7000
	dir := t.TempDir()
	queries := []string{
		writeScanSegments(t, dir, rows),
		"SELECT * FROM t SKYLINE OF COMPLETE d1 MIN, d2 MAX",
		"SELECT id, d3 FROM t WHERE d2 > 0.3 SKYLINE OF COMPLETE d3 MIN, id MAX",
		"SELECT * FROM t WHERE d1 + d2 < 1 SKYLINE OF COMPLETE d1 MAX, d4 MIN",
		"SELECT * FROM t WHERE id < 3000 SKYLINE OF COMPLETE d2 MIN, d3 MIN, d4 MIN",
	}
	tab := datagen.Synthetic(datagen.Independent, rows, 4, datagen.Config{Seed: 1, Complete: true})
	mem := skysql.NewSession(skysql.WithExecutors(4))
	t.Cleanup(mem.Close)
	if err := mem.CreateTable("t", tab.Schema, tab.Rows); err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		got, err := mem.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprint(rowsToStrings(got))
	}

	sess := skysql.NewSession(skysql.WithExecutors(4),
		skysql.WithMemoryBudget(64<<20), skysql.WithGlobalMemoryBudget(256<<20))
	t.Cleanup(sess.Close)
	if err := sess.OpenSegments("t", dir); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*len(queries); i++ {
				qi := (g + i) % len(queries)
				got, err := sess.Query(queries[qi])
				if err != nil {
					errs <- fmt.Errorf("%s: %w", queries[qi], err)
					return
				}
				if fmt.Sprint(rowsToStrings(got)) != want[qi] {
					errs <- fmt.Errorf("%s: segment answer differs from the in-memory one", queries[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if live := sess.GovernorStats().LiveBytes; live != 0 {
		t.Errorf("governor holds %d bytes after every query returned", live)
	}
}

// TestSegmentPageBuffersRecycledSafely: file-backed readers return their
// page buffers to a pool when they close, and the next reader reads into
// them. With every released buffer poisoned, a page read through a
// reader after it closed would fail its checksum or change a row. Several
// goroutines run scan_segments-shape queries on one session under
// injected task faults with retries, canceling some mid-round: each
// query either fails canceled or answers exactly as the in-memory session
// does, rows in the same order, and at the end the governor holds nothing.
func TestSegmentPageBuffersRecycledSafely(t *testing.T) {
	storage.SetBufferPoison(true)
	t.Cleanup(func() { storage.SetBufferPoison(false) })
	const rows = 14000
	dir := t.TempDir()
	queries := []string{
		writeScanSegments(t, dir, rows),
		"SELECT * FROM t WHERE d2 > 0.3 AND id < 11000 SKYLINE OF COMPLETE d3 MIN, d1 MAX",
		"SELECT * FROM t WHERE d1 + d2 < 1 AND d4 <= 0.8 SKYLINE OF COMPLETE d1 MAX, d4 MIN",
	}
	tab := datagen.Synthetic(datagen.Independent, rows, 4, datagen.Config{Seed: 1, Complete: true})
	mem := skysql.NewSession(skysql.WithExecutors(4))
	t.Cleanup(mem.Close)
	if err := mem.CreateTable("t", tab.Schema, tab.Rows); err != nil {
		t.Fatal(err)
	}
	render := func(rows []skysql.Row) string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r.String()
		}
		return strings.Join(out, "\n")
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		got, err := mem.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = render(got)
	}

	sess := skysql.NewSession(skysql.WithExecutors(4),
		skysql.WithFaultInjection(skysql.FaultInjection{Seed: 5, FaultRate: 0.2}),
		skysql.WithTaskRetries(12),
		skysql.WithMemoryBudget(64<<20), skysql.WithGlobalMemoryBudget(256<<20))
	t.Cleanup(sess.Close)
	if err := sess.OpenSegments("t", dir); err != nil {
		t.Fatal(err)
	}
	var answered, canceled atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4*len(queries); i++ {
				qi := (g + i) % len(queries)
				ctx, cancel := context.WithCancel(context.Background())
				if i%3 == 2 {
					time.AfterFunc(time.Duration(1+(g*7+i)%5)*200*time.Microsecond, cancel)
				}
				df, err := sess.SQL(queries[qi])
				var got []skysql.Row
				if err == nil {
					got, err = df.CollectContext(ctx)
				}
				stopped := ctx.Err() != nil
				cancel()
				switch {
				case err != nil && stopped:
					canceled.Add(1)
				case err != nil:
					errs <- fmt.Errorf("%s: %w", queries[qi], err)
					return
				case render(got) != want[qi]:
					errs <- fmt.Errorf("%s: segment answer differs from the in-memory one", queries[qi])
					return
				default:
					answered.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if answered.Load() == 0 {
		t.Fatal("no query completed: nothing was checked")
	}
	if live := sess.GovernorStats().LiveBytes; live != 0 {
		t.Errorf("governor holds %d bytes after every query returned", live)
	}
	t.Logf("%d answers checked, %d queries canceled mid-run", answered.Load(), canceled.Load())
}

// TestOpenSegmentsRoundTrip covers the ingest path `datagen -segments`
// uses: stream synthetic rows into a segment directory with the storage
// writer, reopen it footers-first via OpenSegments, and get the same
// query answer as a session holding the rows in memory.
func TestOpenSegmentsRoundTrip(t *testing.T) {
	const n = 3000
	cfg := datagen.Config{Seed: 11, Complete: true}
	tab := datagen.Synthetic(datagen.AntiCorrelated, n, 3, cfg)

	dir := t.TempDir()
	w := storage.NewWriter(tab.Schema, dir, "pts", 512)
	if err := datagen.SyntheticStream(datagen.AntiCorrelated, n, 3, cfg, w.Append); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}

	mem := skysql.NewSession()
	t.Cleanup(mem.Close)
	if err := mem.CreateTable("pts", tab.Schema, tab.Rows); err != nil {
		t.Fatal(err)
	}
	seg := skysql.NewSession()
	t.Cleanup(seg.Close)
	if err := seg.OpenSegments("pts", dir); err != nil {
		t.Fatal(err)
	}

	const query = "SELECT * FROM pts WHERE d1 < 0.5 SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN"
	want, err := mem.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	got, err := seg.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rowsToStrings(got)) != fmt.Sprint(rowsToStrings(want)) {
		t.Fatal("OpenSegments session answered differently from the in-memory session")
	}
}
