package storage

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"skysql/internal/cost"
	"skysql/internal/expr"
	"skysql/internal/types"
)

func floatSchema(names ...string) *types.Schema {
	fields := make([]types.Field, len(names))
	for i, n := range names {
		fields[i] = types.Field{Name: n, Type: types.KindFloat, Nullable: true}
	}
	return types.NewSchema(fields...)
}

// TestWriterSegmentation pins the writer's chunking: segRows rows per
// segment, the remainder in the last one, footer row counts adding up.
func TestWriterSegmentation(t *testing.T) {
	schema := floatSchema("a")
	w := NewWriter(schema, "", "t", 10)
	for i := 0; i < 25; i++ {
		if err := w.Append(types.Row{types.Float(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	store, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(store.Segments()); got != 3 {
		t.Fatalf("25 rows at segRows=10 built %d segments, want 3", got)
	}
	if store.Rows() != 25 {
		t.Fatalf("store rows %d, want 25", store.Rows())
	}
	wantRows := []int{10, 10, 5}
	for i, seg := range store.Segments() {
		if seg.Footer.Rows != wantRows[i] {
			t.Errorf("segment %d rows %d, want %d", i, seg.Footer.Rows, wantRows[i])
		}
	}
}

// TestZoneMapBounds pins the footer zone maps: exact min/max per segment,
// null and NaN counts excluded from the range.
func TestZoneMapBounds(t *testing.T) {
	schema := floatSchema("a")
	rows := []types.Row{
		{types.Float(5)},
		{types.Null},
		{types.Float(math.NaN())},
		{types.Float(-3)},
		{types.Float(11)},
	}
	store, err := FromRows(rows, schema, "", "t", 100)
	if err != nil {
		t.Fatal(err)
	}
	c := store.Segments()[0].Footer.Cols[0]
	if c.Min != -3 || c.Max != 11 {
		t.Errorf("zone map [%g, %g], want [-3, 11]", c.Min, c.Max)
	}
	if c.NullCount != 1 || c.NaNCount != 1 {
		t.Errorf("null/NaN counts %d/%d, want 1/1", c.NullCount, c.NaNCount)
	}
	sk := store.Sketch()
	if sk.Rows != 5 {
		t.Errorf("sketch rows %d, want 5", sk.Rows)
	}
	if !sk.Cols[0].HasNaN {
		t.Error("sketch lost the NaN flag — min-side pruning would be unsound")
	}
	if sk.Cols[0].Min != -3 || sk.Cols[0].Max != 11 {
		t.Errorf("sketch range [%g, %g], want [-3, 11]", sk.Cols[0].Min, sk.Cols[0].Max)
	}
}

// TestMergeStatsAcrossSegments: the store-level sketch must take the
// envelope of the per-segment zone maps and pool null fractions.
func TestMergeStatsAcrossSegments(t *testing.T) {
	schema := floatSchema("a")
	var rows []types.Row
	for i := 0; i < 10; i++ { // segment 1: [0, 9]
		rows = append(rows, types.Row{types.Float(float64(i))})
	}
	for i := 0; i < 10; i++ { // segment 2: [100, 109], two NULLs
		v := types.Value(types.Float(float64(100 + i)))
		if i < 2 {
			v = types.Null
		}
		rows = append(rows, types.Row{v})
	}
	store, err := FromRows(rows, schema, "", "t", 10)
	if err != nil {
		t.Fatal(err)
	}
	sk := store.Sketch()
	if sk.Cols[0].Min != 0 || sk.Cols[0].Max != 109 {
		t.Errorf("merged range [%g, %g], want [0, 109]", sk.Cols[0].Min, sk.Cols[0].Max)
	}
	if got, want := sk.Cols[0].NullFraction, 0.1; math.Abs(got-want) > 1e-9 {
		t.Errorf("merged null fraction %g, want %g", got, want)
	}
	// The merged histogram must preserve total mass (18 non-null values)
	// and keep it bimodal: nothing lands in the empty middle of the range.
	var total, middle float64
	for b, n := range sk.Cols[0].Hist {
		total += n
		lo := sk.Cols[0].Min + float64(b)*(sk.Cols[0].Max-sk.Cols[0].Min)/float64(len(sk.Cols[0].Hist))
		if lo > 15 && lo < 95 {
			middle += n
		}
	}
	if math.Abs(total-18) > 1e-6 {
		t.Errorf("merged histogram mass %g, want 18", total)
	}
	if middle != 0 {
		t.Errorf("merged histogram put %g mass in the empty middle", middle)
	}
}

// TestOpenDirRoundTrip: segments written to disk must reopen from footers
// alone — same schema, same rows, same zone maps — and corrupt or
// mismatched files must be rejected.
func TestOpenDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	schema := types.NewSchema(
		types.Field{Name: "id", Type: types.KindInt},
		types.Field{Name: "v", Type: types.KindFloat, Nullable: true},
	)
	var rows []types.Row
	for i := 0; i < 23; i++ {
		v := types.Value(types.Float(float64(i) / 2))
		if i == 5 {
			v = types.Null
		}
		rows = append(rows, types.Row{types.Int(int64(i)), v})
	}
	if _, err := FromRows(rows, schema, dir, "t", 8); err != nil {
		t.Fatal(err)
	}
	store, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if store.Rows() != 23 || len(store.Segments()) != 3 {
		t.Fatalf("reopened %d rows in %d segments, want 23 in 3", store.Rows(), len(store.Segments()))
	}
	got, err := store.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRows(rows, got); err != nil {
		t.Fatal(err)
	}
	if f := store.Schema().Fields[1]; f.Name != "v" || f.Type != types.KindFloat {
		t.Errorf("reopened schema field %+v, want float column v", f)
	}

	// A truncated file must fail loudly, not decode garbage.
	bad := filepath.Join(dir, "zz-bad.seg")
	if err := os.WriteFile(bad, []byte("SKYSEG1\x00short"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir); err == nil {
		t.Error("OpenDir accepted a truncated segment")
	}
}

// TestSpillSegmentLifecycle: a spill segment round-trips its rows and
// Remove deletes the backing file.
func TestSpillSegmentLifecycle(t *testing.T) {
	dir := t.TempDir()
	schema := floatSchema("a", "b")
	rows := []types.Row{
		{types.Float(1), types.Null},
		{types.Float(math.NaN()), types.Float(-0.0)},
	}
	seg, err := SpillSegment(dir, rows, schema)
	if err != nil {
		t.Fatal(err)
	}
	got, err := seg.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRows(rows, got); err != nil {
		t.Fatal(err)
	}
	if err := seg.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(seg.Path); !os.IsNotExist(err) {
		t.Errorf("spill file %s still exists after Remove", seg.Path)
	}
}

// TestHistogramDeterministic: encoding the same rows twice must produce
// identical footers — prune decisions and selectivity estimates derived
// from them are then replayable.
func TestHistogramDeterministic(t *testing.T) {
	schema := floatSchema("a")
	var rows []types.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, types.Row{types.Float(float64(i*i) / 100)})
	}
	_, f1, err := encodeSegment(rows, schema)
	if err != nil {
		t.Fatal(err)
	}
	_, f2, err := encodeSegment(rows, schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1.Cols[0].Hist) != HistBuckets {
		t.Fatalf("histogram has %d buckets, want %d", len(f1.Cols[0].Hist), HistBuckets)
	}
	for b := range f1.Cols[0].Hist {
		if f1.Cols[0].Hist[b] != f2.Cols[0].Hist[b] {
			t.Fatalf("bucket %d differs across identical encodes: %d vs %d",
				b, f1.Cols[0].Hist[b], f2.Cols[0].Hist[b])
		}
	}
}

// TestHistogramSharpensSkewedSelectivity is the estimator-accuracy
// contract behind the footer histograms: on a skewed column, the
// selectivity estimate made from a footer-fed sketch must land closer to
// the true selectivity than the uniform-range interpolation the
// estimator falls back to without a histogram.
func TestHistogramSharpensSkewedSelectivity(t *testing.T) {
	// 1000 values of x², x uniform in [0, 1): heavily skewed toward 0.
	n := 1000
	rows := make([]types.Row, n)
	vals := make([]float64, n)
	for i := range rows {
		x := float64(i) / float64(n)
		vals[i] = x * x
		rows[i] = types.Row{types.Float(vals[i])}
	}
	store, err := FromRows(rows, floatSchema("a"), "", "t", n)
	if err != nil {
		t.Fatal(err)
	}
	withHist := store.Sketch()
	if len(withHist.Cols[0].Hist) == 0 {
		t.Fatal("footer sketch carries no histogram for a numeric column")
	}
	uniform := *withHist
	uniform.Cols = append([]cost.Column(nil), withHist.Cols...)
	uniform.Cols[0].Hist = nil

	lt := func(cut float64) expr.Expr {
		return expr.NewBinary(expr.OpLt,
			expr.NewBoundRef(0, "a", types.KindFloat, false),
			expr.NewLiteral(types.Float(cut)))
	}
	for _, cut := range []float64{0.1, 0.25, 0.5} {
		truth := 0.0
		for _, v := range vals {
			if v < cut {
				truth++
			}
		}
		truth /= float64(n)
		histEst := cost.Selectivity(lt(cut), withHist)
		uniEst := cost.Selectivity(lt(cut), &uniform)
		if math.Abs(histEst-truth) >= math.Abs(uniEst-truth) {
			t.Errorf("cut %g: histogram estimate %.4f no closer to truth %.4f than uniform %.4f",
				cut, histEst, truth, uniEst)
		}
		if math.Abs(histEst-truth) > 0.05 {
			t.Errorf("cut %g: histogram estimate %.4f off truth %.4f by more than 5%%", cut, histEst, truth)
		}
	}
}
