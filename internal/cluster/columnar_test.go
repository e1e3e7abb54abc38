package cluster

import (
	"math/rand"
	"testing"

	"skysql/internal/skyline"
	"skysql/internal/types"
)

// TestExchangePartitionedChargesShuffleBuffer pins the peak-bytes
// accounting satellite: the driver-side gather buffer of a Grid/Angle/
// Zorder shuffle must show up in the metrics while the exchange runs.
func TestExchangePartitionedChargesShuffleBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := numericRows(rng, 200)
	var want int64
	for _, r := range rows {
		want += r.MemSize()
	}
	for _, dist := range []Distribution{Grid, Angle, Zorder} {
		ctx := NewContext(4)
		if _, err := ctx.ExchangePartitioned(NewDataset(rows), dist, identityKey, []bool{true, true}); err != nil {
			t.Fatalf("%v: %v", dist, err)
		}
		if got := ctx.Metrics.PeakBytes(); got < want {
			t.Errorf("%v: peak bytes %d, want at least the %d-byte shuffle buffer", dist, got, want)
		}
	}
}

// TestAdaptiveUnspecifiedExchange pins the AQE-style partition choice: with
// a rows-per-partition target the rebalance collapses below the executor
// count for small inputs, the decision is recorded, and without a target
// the static behaviour is untouched.
func TestAdaptiveUnspecifiedExchange(t *testing.T) {
	ctx := NewContext(8)
	ctx.TargetRowsPerPartition = 25
	out, err := ctx.Exchange(NewDataset(rows(make([]int64, 100)...)), Unspecified, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Parts) != 4 {
		t.Errorf("parts = %d, want 4 (100 rows / 25 target)", len(out.Parts))
	}
	ds := ctx.Metrics.CostDecisions()
	want := CostDecision{Site: "exchange-target", Choice: "explicit", Rows: 100, Selectivity: -1,
		Detail: "target=25, partitions=4/8"}
	if len(ds) != 1 || ds[0] != want {
		t.Errorf("decisions = %+v", ds)
	}
	// Large inputs keep full parallelism.
	ctx2 := NewContext(4)
	ctx2.TargetRowsPerPartition = 25
	out2, err := ctx2.Exchange(NewDataset(rows(make([]int64, 400)...)), Unspecified, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out2.Parts) != 4 {
		t.Errorf("large input parts = %d, want 4", len(out2.Parts))
	}
}

// decodedRows builds a dataset partition plus its aligned sidecar batch.
func decodedRows(t *testing.T, tag string, vals ...int64) ([]types.Row, *skyline.Batch) {
	t.Helper()
	rs := rows(vals...)
	pts := make([]skyline.Point, len(rs))
	for i, r := range rs {
		pts[i] = skyline.Point{Dims: r, Row: r}
	}
	b, ok := skyline.DecodeBatch(pts, []skyline.Dir{skyline.Min}, false, nil)
	if !ok {
		t.Fatal("decode refused")
	}
	b.Tag = tag
	return rs, b
}

// TestAllTuplesExchangeMergesSidecars pins the decode-reuse across the
// gather: an AllTuples exchange over sidecar-carrying partitions emits one
// partition with one merged batch aligned to the gathered rows.
func TestAllTuplesExchangeMergesSidecars(t *testing.T) {
	r1, b1 := decodedRows(t, "tag", 3, 1)
	r2, b2 := decodedRows(t, "tag", 2)
	in := &Dataset{Parts: [][]types.Row{r1, r2}, Batches: []*skyline.Batch{b1, b2}}
	ctx := NewContext(2)
	out, err := ctx.Exchange(in, AllTuples, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Parts) != 1 || len(out.Parts[0]) != 3 {
		t.Fatalf("gather shape: %v", out.Parts)
	}
	merged := out.BatchAt(0)
	if merged == nil || merged.Len() != 3 || merged.Tag != "tag" {
		t.Fatalf("merged sidecar missing or misaligned: %v", merged)
	}
	// A partition without a sidecar poisons the merge: rows only.
	in2 := &Dataset{Parts: [][]types.Row{r1, r2}, Batches: []*skyline.Batch{b1, nil}}
	out2, err := ctx.Exchange(in2, AllTuples, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out2.BatchAt(0) != nil {
		t.Error("partial sidecars must not merge")
	}
}

// TestColumnarBucketParityMaxDims pins the bit-identity of boxed vs
// columnar bucket assignment on MAX dimensions, including the 1-ulp trap:
// 1-(4-0)/5 and (5-4)/5 differ in the last bit, so the columnar path must
// replay the boxed "(v-min)/span then flip" arithmetic on the exactly
// recovered raw values rather than normalizing the negated column
// directly.
func TestColumnarBucketParityMaxDims(t *testing.T) {
	mkDataset := func(vals [][]float64) (*Dataset, *skyline.Batch) {
		rs := make([]types.Row, len(vals))
		pts := make([]skyline.Point, len(vals))
		for i, v := range vals {
			row := make(types.Row, len(v))
			for d, f := range v {
				row[d] = types.Float(f)
			}
			rs[i] = row
			pts[i] = skyline.Point{Dims: row, Row: row}
		}
		dirs := make([]skyline.Dir, len(vals[0]))
		for d := range dirs {
			dirs[d] = skyline.Max
		}
		b, ok := skyline.DecodeBatch(pts, dirs, false, nil)
		if !ok {
			t.Fatal("decode refused")
		}
		return NewDataset(rs), b
	}
	cases := [][][]float64{
		// The ulp case: MAX dim over [0,5], value 4, 5 buckets.
		{{0}, {1}, {2}, {3}, {4}, {5}},
		// Two MAX dims with mixed spans and repeated extremes.
		{{0, 5}, {4, 0}, {5, 2.5}, {2.5, 4}, {1, 1}, {4, 4}, {0, 0}},
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		vals := make([][]float64, 40)
		for i := range vals {
			vals[i] = []float64{float64(rng.Intn(6)), rng.Float64() * 5}
		}
		cases = append(cases, vals)
	}
	for ci, vals := range cases {
		minimize := make([]bool, len(vals[0])) // all false: MAX orientation
		for _, dist := range []Distribution{Grid, Angle, Zorder} {
			in, batch := mkDataset(vals)
			boxedCtx := NewContext(5)
			boxed, err := boxedCtx.ExchangePartitioned(in, dist, identityKey, minimize)
			if err != nil {
				t.Fatalf("case %d %v boxed: %v", ci, dist, err)
			}
			colCtx := NewContext(5)
			col, err := colCtx.ExchangePartitionedColumnar(in.Gather(), batch, dist)
			if err != nil {
				t.Fatalf("case %d %v columnar: %v", ci, dist, err)
			}
			if len(boxed.Parts) != len(col.Parts) {
				t.Fatalf("case %d %v: %d boxed partitions vs %d columnar", ci, dist, len(boxed.Parts), len(col.Parts))
			}
			for p := range boxed.Parts {
				bs, cs := rowsAsStrings(boxed.Parts[p]), rowsAsStrings(col.Parts[p])
				if bs != cs {
					t.Fatalf("case %d %v partition %d differs:\nboxed    %s\ncolumnar %s", ci, dist, p, bs, cs)
				}
			}
		}
	}
}

func rowsAsStrings(rs []types.Row) string {
	out := ""
	for _, r := range rs {
		out += r.String() + ";"
	}
	return out
}
