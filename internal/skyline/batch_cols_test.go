package skyline

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"skysql/internal/types"
)

// numericPoints generates purely numeric MIN/MAX points (the shape the
// column bindings serve).
func numericPoints(rng *rand.Rand, n int, withNull bool) []Point {
	pts := make([]Point, n)
	for i := range pts {
		dims := make(types.Row, 2)
		for d := range dims {
			switch {
			case withNull && rng.Float64() < 0.2:
				dims[d] = types.Null
			case rng.Intn(2) == 0:
				dims[d] = types.Int(int64(rng.Intn(9) - 4))
			default:
				dims[d] = types.Float(float64(rng.Intn(9)-4) / 2)
			}
		}
		pts[i] = Point{Dims: dims, Row: dims}
	}
	return pts
}

// TestColumnRoundTrip pins the binding contract: a bound column
// materializes the raw row values exactly — MAX negation undone, NULL mask
// faithful — and survives Slice, Select, and Filter.
func TestColumnRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 80; trial++ {
		pts := numericPoints(rng, 2+rng.Intn(40), trial%2 == 1)
		dirs := []Dir{Min, Max}
		b, ok := DecodeBatch(pts, dirs, false, nil)
		if !ok {
			t.Fatal("numeric points must decode")
		}
		b.BindColumn(0, 0, false)
		b.BindColumn(1, 1, true)
		check := func(label string, bb *Batch, want []Point) {
			t.Helper()
			for ord := 0; ord < 2; ord++ {
				vals, nulls, ok := bb.Column(ord)
				if !ok {
					t.Fatalf("%s: ordinal %d lost its binding", label, ord)
				}
				for i, p := range want {
					v := p.Dims[ord]
					isNull := nulls != nil && nulls[i]
					if v.IsNull() != isNull {
						t.Fatalf("%s: ordinal %d row %d null = %v, want %v", label, ord, i, isNull, v.IsNull())
					}
					if !v.IsNull() && vals[i] != v.AsFloat() {
						t.Fatalf("%s: ordinal %d row %d = %v, want %v", label, ord, i, vals[i], v.AsFloat())
					}
				}
			}
		}
		check("decoded", b, pts)
		if len(pts) >= 3 {
			check("slice", b.Slice(1, len(pts)-1), pts[1:len(pts)-1])
		}
		sel := make([]bool, len(pts))
		var kept []Point
		for i := range sel {
			if rng.Intn(2) == 0 {
				sel[i] = true
				kept = append(kept, pts[i])
			}
		}
		check("filter", b.Filter(sel), kept)
	}
}

// TestFilterMatchesSelect pins that the selection-vector form reduces to
// the Select index machinery exactly.
func TestFilterMatchesSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pts := randBatchPoints(rng, 40, true)
	b, ok := DecodeBatch(pts, sliceDirs, false, nil)
	if !ok {
		t.Fatal("points must decode")
	}
	sel := make([]bool, b.Len())
	var idx []int
	for i := range sel {
		if rng.Intn(3) != 0 {
			sel[i] = true
			idx = append(idx, i)
		}
	}
	assertBatchEquiv(t, "filter vs select", b.Filter(sel), b.Select(idx))
}

// TestAppendComputedColumnSurvivesReslicing pins that appended columns
// follow the batch through Slice/Select with the right values.
func TestAppendComputedColumnSurvivesReslicing(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := numericPoints(rng, 30, false)
	b, ok := DecodeBatch(pts, []Dir{Min, Max}, false, nil)
	if !ok {
		t.Fatal("numeric points must decode")
	}
	vals := make([]float64, b.Len())
	for i := range vals {
		vals[i] = float64(i) * 1.5
	}
	b.AppendComputedColumn(5, vals, nil)
	got, _, ok := b.Slice(10, 20).Column(5)
	if !ok || got[0] != 15 || got[9] != 28.5 {
		t.Fatalf("sliced computed column = %v (ok=%v)", got, ok)
	}
	sub := b.Select([]int{29, 0, 7})
	got, _, ok = sub.Column(5)
	if !ok || fmt.Sprint(got) != fmt.Sprint([]float64{43.5, 0, 10.5}) {
		t.Fatalf("selected computed column = %v (ok=%v)", got, ok)
	}
	if sub.MemSize() <= b.Select([]int{29, 0, 7}).MemSize()-1 {
		// MemSize must count the computed column (identical Select → equal).
		t.Fatal("MemSize inconsistent across identical selects")
	}
}

// TestWithRowsRebinds pins the projection hook: the returned batch wraps
// the new rows and re-keys bindings through the ordinal map.
func TestWithRowsRebinds(t *testing.T) {
	pts := []Point{
		{Dims: types.Row{types.Int(3), types.Int(1)}, Row: types.Row{types.Int(3), types.Int(1)}},
		{Dims: types.Row{types.Int(2), types.Int(5)}, Row: types.Row{types.Int(2), types.Int(5)}},
	}
	b, ok := DecodeBatch(pts, []Dir{Min, Max}, false, nil)
	if !ok {
		t.Fatal("decode")
	}
	b.BindColumn(0, 0, false)
	b.BindColumn(1, 1, true)
	rows := []types.Row{{types.Int(1)}, {types.Int(5)}}
	nb := b.WithRows(rows, map[int]int{0: 1}) // new ordinal 0 = old ordinal 1
	if nb == nil {
		t.Fatal("WithRows refused aligned rows")
	}
	got := nb.Points([]int{0, 1})
	if got[0].Row[0].AsInt() != 1 || got[1].Row[0].AsInt() != 5 {
		t.Fatalf("WithRows rows = %v", got)
	}
	vals, _, ok := nb.Column(0)
	if !ok || vals[0] != 1 || vals[1] != 5 {
		t.Fatalf("rebound column = %v (ok=%v)", vals, ok)
	}
	if nb.HasColumn(1) {
		t.Fatal("unmapped binding must be dropped")
	}
	if b.WithRows([]types.Row{{types.Int(1)}}, nil) != nil {
		t.Fatal("misaligned WithRows must refuse")
	}
}

// TestSFSZorderMatchesEntropySkyline is the presort ablation contract: the
// Z-order presort computes the same skyline SET as the entropy presort
// (emission order may differ), and the columnar and boxed variants of the
// Z-order presort emit identical rows in identical order.
func TestSFSZorderMatchesEntropySkyline(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 80; trial++ {
		withNull := trial%3 == 0
		pts := randBatchPoints(rng, 1+rng.Intn(60), withNull)
		for _, distinct := range []bool{false, true} {
			label := fmt.Sprintf("trial %d distinct=%v", trial, distinct)
			b, ok := DecodeBatch(pts, sliceDirs, false, nil)
			if !ok {
				t.Fatalf("%s: points must decode", label)
			}
			zIdx := b.SFSZorder(distinct)
			boxed, err := SFSZorder(pts, sliceDirs, distinct, nil)
			if err != nil {
				t.Fatalf("%s: boxed zorder: %v", label, err)
			}
			if len(boxed) != len(zIdx) {
				t.Fatalf("%s: kernel %d rows, boxed %d", label, len(zIdx), len(boxed))
			}
			kernelPts := b.Points(zIdx)
			for i := range boxed {
				if fmt.Sprint(boxed[i].Dims) != fmt.Sprint(kernelPts[i].Dims) {
					t.Fatalf("%s: row %d: kernel %v, boxed %v", label, i, kernelPts[i].Dims, boxed[i].Dims)
				}
			}
			// Same skyline set as the entropy presort.
			entropy := b.SFS(distinct)
			if got, want := sortedIdx(zIdx), sortedIdx(entropy); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: zorder skyline %v != entropy skyline %v", label, got, want)
			}
			// And the same set as plain BNL (ground truth).
			if !distinct {
				bnl := b.BNL(false)
				if got, want := sortedIdx(zIdx), sortedIdx(bnl); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: zorder skyline %v != BNL skyline %v", label, got, want)
				}
			}
		}
	}
}

func sortedIdx(idx []int) []int {
	out := append([]int(nil), idx...)
	sort.Ints(out)
	return out
}

// TestWithoutDimsKeepsColumnsAndRows: the copy runs every batch algorithm
// to the same indices and emits the same rows; only the boxed dimension
// vectors are gone, and MemSize — which never counted them — is unchanged.
func TestWithoutDimsKeepsColumnsAndRows(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		pts := numericPoints(rng, 2+rng.Intn(60), false)
		b, ok := DecodeBatch(pts, []Dir{Min, Max}, false, nil)
		if !ok {
			t.Fatal("numeric points must decode")
		}
		b.Tag = "clause"
		bare := b.WithoutDims()
		if bare.Len() != b.Len() || bare.Tag != b.Tag || bare.MemSize() != b.MemSize() {
			t.Fatalf("copy: len %d tag %q mem %d, original %d %q %d", bare.Len(), bare.Tag, bare.MemSize(), b.Len(), b.Tag, b.MemSize())
		}
		want, got := b.BNL(false), bare.BNL(false)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("BNL over the copy %v, over the original %v", got, want)
		}
		for i, p := range bare.Points(got) {
			if p.Dims != nil || fmt.Sprint(p.Row) != fmt.Sprint(pts[want[i]].Row) {
				t.Fatalf("point %d of the copy: dims %v row %v, want no dims and row %v", i, p.Dims, p.Row, pts[want[i]].Row)
			}
		}
		if b.Points([]int{0})[0].Dims == nil {
			t.Fatal("the original must keep its dimension vectors")
		}
	}
}
