package skyline

import (
	"fmt"
	"math/rand"
	"testing"

	"skysql/internal/types"
)

// randBatchPoints generates points exercising every decode feature: MIN and
// MAX numeric dimensions (ints and floats), a DIFF dimension mixing value
// kinds, and NULLs in any position.
func randBatchPoints(rng *rand.Rand, n int, withNull bool) []Point {
	pts := make([]Point, n)
	for i := range pts {
		dims := make(types.Row, 3)
		for d := 0; d < 2; d++ {
			switch {
			case withNull && rng.Float64() < 0.15:
				dims[d] = types.Null
			case rng.Intn(2) == 0:
				dims[d] = types.Int(int64(rng.Intn(6)))
			default:
				dims[d] = types.Float(float64(rng.Intn(6)))
			}
		}
		switch {
		case withNull && rng.Float64() < 0.15:
			dims[2] = types.Null
		case rng.Intn(3) == 0:
			dims[2] = types.Str(fmt.Sprintf("s%d", rng.Intn(3)))
		case rng.Intn(2) == 0:
			dims[2] = types.Int(int64(rng.Intn(3)))
		default:
			dims[2] = types.Float(float64(rng.Intn(3)))
		}
		pts[i] = Point{Dims: dims, Row: dims}
	}
	return pts
}

var sliceDirs = []Dir{Min, Max, Diff}

// assertBatchEquiv checks got against a fresh decode of the same points:
// identical pairwise dominance classifications and identical algorithm
// emissions.
func assertBatchEquiv(t *testing.T, label string, got, fresh *Batch) {
	t.Helper()
	if got.Len() != fresh.Len() {
		t.Fatalf("%s: length %d vs fresh %d", label, got.Len(), fresh.Len())
	}
	for i := 0; i < got.Len(); i++ {
		for j := 0; j < got.Len(); j++ {
			if g, f := got.CompareDecoded(i, j), fresh.CompareDecoded(i, j); g != f {
				t.Fatalf("%s: CompareDecoded(%d,%d) = %v, fresh %v", label, i, j, g, f)
			}
		}
	}
	for _, distinct := range []bool{false, true} {
		g, f := got.BNL(distinct), fresh.BNL(distinct)
		if fmt.Sprint(g) != fmt.Sprint(f) {
			t.Fatalf("%s: BNL(distinct=%v) = %v, fresh %v", label, distinct, g, f)
		}
	}
	if g, f := got.SFS(false), fresh.SFS(false); fmt.Sprint(g) != fmt.Sprint(f) {
		t.Fatalf("%s: SFS = %v, fresh %v", label, g, f)
	}
}

// TestMergeBatchesEquivalentToFreshDecode is the re-bucketing property: a
// batch scattered into random buckets with Select, then gathered back with
// MergeBatches, must be indistinguishable from decoding the re-ordered
// points fresh — NULL masks, MAX negation, and re-mapped DIFF intern ids
// included.
func TestMergeBatchesEquivalentToFreshDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, incomplete := range []bool{false, true} {
		for trial := 0; trial < 60; trial++ {
			pts := randBatchPoints(rng, 1+rng.Intn(50), trial%2 == 1)
			src, ok := DecodeBatch(pts, sliceDirs, incomplete, nil)
			if !ok {
				t.Fatal("decode refused decodable data")
			}
			src.Tag = "test"
			// Scatter into k random buckets (the exchange's Select step)...
			k := 1 + rng.Intn(4)
			buckets := make([][]int, k)
			for i := range pts {
				b := rng.Intn(k)
				buckets[b] = append(buckets[b], i)
			}
			var parts []*Batch
			var order []int
			for _, idx := range buckets {
				if len(idx) == 0 {
					continue
				}
				parts = append(parts, src.Select(idx))
				order = append(order, idx...)
			}
			if len(parts) == 0 {
				continue
			}
			// ...and gather them back (the AllTuples merge).
			merged, ok := MergeBatches(parts)
			if !ok {
				t.Fatal("MergeBatches refused compatible batches")
			}
			fresh, ok := DecodeBatch(src.Points(order), sliceDirs, incomplete, nil)
			if !ok {
				t.Fatal("fresh decode refused")
			}
			assertBatchEquiv(t, fmt.Sprintf("incomplete=%v trial %d", incomplete, trial), merged, fresh)
		}
	}
}

// TestSliceAndSelectEquivalentToFreshDecode covers the two single-batch
// re-slicing primitives against fresh decodes of the same point subsets.
func TestSliceAndSelectEquivalentToFreshDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		pts := randBatchPoints(rng, 2+rng.Intn(50), trial%2 == 0)
		src, ok := DecodeBatch(pts, sliceDirs, false, nil)
		if !ok {
			t.Fatal("decode refused decodable data")
		}
		lo := rng.Intn(len(pts))
		hi := lo + rng.Intn(len(pts)-lo)
		fresh, ok := DecodeBatch(pts[lo:hi], sliceDirs, false, nil)
		if hi > lo {
			if !ok {
				t.Fatal("fresh decode refused")
			}
			assertBatchEquiv(t, fmt.Sprintf("slice trial %d", trial), src.Slice(lo, hi), fresh)
		}
		var idx []int
		for i := range pts {
			if rng.Intn(2) == 0 {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		fresh, ok = DecodeBatch(src.Points(idx), sliceDirs, false, nil)
		if !ok {
			t.Fatal("fresh decode refused")
		}
		assertBatchEquiv(t, fmt.Sprintf("select trial %d", trial), src.Select(idx), fresh)
	}
}

// TestMergeBatchesRemapsDiffInternIds pins the intern re-mapping with a
// deterministic case where the two batches interned the same strings under
// swapped ids.
func TestMergeBatchesRemapsDiffInternIds(t *testing.T) {
	mk := func(vals ...string) []Point {
		pts := make([]Point, len(vals))
		for i, v := range vals {
			dims := types.Row{types.Int(int64(i)), types.Str(v)}
			pts[i] = Point{Dims: dims, Row: dims}
		}
		return pts
	}
	dirs := []Dir{Min, Diff}
	a, ok := DecodeBatch(mk("x", "y"), dirs, false, nil) // x=1, y=2
	if !ok {
		t.Fatal("decode a")
	}
	b, ok := DecodeBatch(mk("y", "x"), dirs, false, nil) // y=1, x=2
	if !ok {
		t.Fatal("decode b")
	}
	merged, ok := MergeBatches([]*Batch{a, b})
	if !ok {
		t.Fatal("merge refused")
	}
	// Points 0 ("x") and 3 ("x") share a DIFF group: 0 dominates 3 on the
	// MIN dimension. Points 0 ("x") and 1 ("y") must stay incomparable.
	if rel := merged.CompareDecoded(0, 3); rel != LeftDominates {
		t.Errorf("x-group dominance = %v, want LeftDominates", rel)
	}
	if rel := merged.CompareDecoded(0, 1); rel != Incomparable {
		t.Errorf("cross-group = %v, want Incomparable", rel)
	}
	// Merged point 1 is ("y", min=1) from a; point 2 is ("y", min=0) from
	// b: the b point wins within the y group.
	if rel := merged.CompareDecoded(1, 2); rel != RightDominates {
		t.Errorf("y-group dominance = %v, want RightDominates", rel)
	}
}

// TestMergeBatchesDiffKeysAcrossBigIntBatches is the differential for DIFF
// keys across merged batches: a batch holding an int beyond 2⁵³ must key
// its small ints exactly as a batch without one does, or a 5 from each
// lands in two DIFF groups and a dominated row survives the merge. A merge
// that would put a big int and a float it may equal in one DIFF column is
// refused, as decode refuses such a column.
func TestMergeBatchesDiffKeysAcrossBigIntBatches(t *testing.T) {
	mk := func(rows ...[2]types.Value) []Point {
		pts := make([]Point, len(rows))
		for i, r := range rows {
			dims := types.Row{r[0], r[1]}
			pts[i] = Point{Dims: dims, Row: dims}
		}
		return pts
	}
	dirs := []Dir{Diff, Min}
	big := types.Int(maxExactInt + 1)
	a := mk([2]types.Value{types.Int(5), types.Int(1)}, [2]types.Value{big, types.Int(0)})
	b := mk([2]types.Value{types.Int(5), types.Int(0)})
	ba, ok := DecodeBatch(a, dirs, false, nil)
	if !ok {
		t.Fatal("decode a")
	}
	bb, ok := DecodeBatch(b, dirs, false, nil)
	if !ok {
		t.Fatal("decode b")
	}
	merged, ok := MergeBatches([]*Batch{ba, bb})
	if !ok {
		t.Fatal("merge refused")
	}
	all := append(append([]Point(nil), a...), b...)
	want, err := BNL(all, dirs, false, Compare, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := merged.Points(merged.BNL(false))
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merged kernel skyline %v, boxed BNL %v", got, want)
	}

	bf, ok := DecodeBatch(mk([2]types.Value{types.Float(float64(maxExactInt)), types.Int(0)}), dirs, false, nil)
	if !ok {
		t.Fatal("decode float batch")
	}
	if _, ok := MergeBatches([]*Batch{ba, bf}); ok {
		t.Error("merge must refuse a DIFF column holding a big int and a float it may equal")
	}
}

// TestMergeBatchesRejectsMismatchedShapes pins the compatibility guard.
func TestMergeBatchesRejectsMismatchedShapes(t *testing.T) {
	pts := randBatchPoints(rand.New(rand.NewSource(1)), 5, false)
	a, _ := DecodeBatch(pts, sliceDirs, false, nil)
	b, _ := DecodeBatch(pts, sliceDirs, true, nil)
	if _, ok := MergeBatches([]*Batch{a, b}); ok {
		t.Error("merge must refuse mixed dominance definitions")
	}
	c, _ := DecodeBatch(pts, sliceDirs, false, nil)
	c.Tag = "other"
	if _, ok := MergeBatches([]*Batch{a, c}); ok {
		t.Error("merge must refuse mismatched tags")
	}
	if _, ok := MergeBatches(nil); ok {
		t.Error("merge must refuse empty input")
	}
}

// TestDecodeBatchCountsDecodes pins the BatchesDecoded counter: successful
// decodes increment it, refusals do not.
func TestDecodeBatchCountsDecodes(t *testing.T) {
	var stats Stats
	pts := randBatchPoints(rand.New(rand.NewSource(2)), 10, false)
	if _, ok := DecodeBatch(pts, sliceDirs, false, &stats); !ok {
		t.Fatal("decode refused")
	}
	if _, ok := DecodeBatch(pts, sliceDirs, true, &stats); !ok {
		t.Fatal("decode refused")
	}
	bad := []Point{{Dims: types.Row{types.Str("x")}, Row: nil}}
	if _, ok := DecodeBatch(bad, []Dir{Min}, false, &stats); ok {
		t.Fatal("string MIN dimension must refuse")
	}
	if got := stats.BatchesDecoded(); got != 2 {
		t.Errorf("BatchesDecoded = %d, want 2", got)
	}
}
