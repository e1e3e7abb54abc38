package skyline

import (
	"fmt"
	"math"
	"math/rand"
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

// TestWithoutPointsKeepsColumns: the copy runs every batch algorithm to
// the same indices and carries no points; MemSize — which never counted
// them — is unchanged, SelectRows gives the kept indices points back,
// and a merge with a batch that has points carries none.
func TestWithoutPointsKeepsColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		pts := numericPoints(rng, 2+rng.Intn(60), false)
		b, ok := DecodeBatch(pts, []Dir{Min, Max}, false, nil)
		if !ok {
			t.Fatal("numeric points must decode")
		}
		b.Tag = "clause"
		bare := b.WithoutPoints()
		if bare.Len() != b.Len() || bare.Tag != b.Tag || bare.MemSize() != b.MemSize() || bare.pts != nil {
			t.Fatalf("copy: len %d tag %q mem %d points %d, original %d %q %d", bare.Len(), bare.Tag, bare.MemSize(), len(bare.pts), b.Len(), b.Tag, b.MemSize())
		}
		want, got := b.BNL(false), bare.BNL(false)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("BNL over the copy %v, over the original %v", got, want)
		}
		rows := make([]types.Row, len(got))
		for i, j := range got {
			rows[i] = pts[j].Row
		}
		for i, p := range bare.SelectRows(got, rows).pts {
			if fmt.Sprint(p.Row) != fmt.Sprint(pts[want[i]].Row) {
				t.Fatalf("point %d of the selection: row %v, want %v", i, p.Row, pts[want[i]].Row)
			}
		}
		if b.Points([]int{0})[0].Dims == nil {
			t.Fatal("the original must keep its points")
		}
		for _, in := range [][]*Batch{{bare, b}, {b, bare}} {
			m, ok := MergeBatches(in)
			if !ok || m.Len() != 2*b.Len() || m.pts != nil {
				t.Fatalf("merge of a batch without points: ok=%v len=%d points=%d", ok, m.Len(), len(m.pts))
			}
		}
		if m, _ := MergeBatches([]*Batch{bare.Slice(0, 0), b}); len(m.pts) != b.Len() {
			t.Fatalf("an empty batch without points must not drop the others': %d points, want %d", len(m.pts), b.Len())
		}
	}
}

// columnFill serves dense columns to Gather: cols[d][k] is dimension d of
// point k, NULL where nulls[d][k] is set (nulls[d] may be nil).
func columnFill(cols [][]float64, nulls [][]bool) Fill {
	return func(d int, dst []float64, stride int, negate bool) ([]int, bool) {
		var null []int
		for k, f := range cols[d] {
			switch {
			case nulls[d] != nil && nulls[d][k]:
				null = append(null, k)
			case negate:
				dst[k*stride] = -1 * f
			default:
				dst[k*stride] = f
			}
		}
		return null, true
	}
}

// TestGatherMatchesDecodeBatch: a batch gathered from dense columns is
// the batch DecodeBatch builds from the same values boxed — the same
// normalized vectors and null masks, so every kernel returns the same
// indices under both dominance definitions — and SelectRows hands the
// kept points the rows the caller boxed for them. NaN, DIFF and a fill
// that refuses, which DecodeBatch would refuse or need boxed values for,
// are refused.
func TestGatherMatchesDecodeBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	dirs := []Dir{Min, Max}
	for trial := 0; trial < 80; trial++ {
		pts := numericPoints(rng, rng.Intn(60), trial%2 == 1)
		cols := [][]float64{make([]float64, len(pts)), make([]float64, len(pts))}
		nulls := [][]bool{make([]bool, len(pts)), nil}
		for i, p := range pts {
			for d, v := range p.Dims {
				switch {
				case v.IsNull() && d == 0:
					nulls[0][i] = true
				case v.IsNull():
					if nulls[1] == nil {
						nulls[1] = make([]bool, len(pts))
					}
					nulls[1][i] = true
				default:
					cols[d][i], _ = v.OrderKey()
				}
			}
		}
		for _, incomplete := range []bool{false, true} {
			want, ok := DecodeBatch(pts, dirs, incomplete, nil)
			if !ok {
				t.Fatal("numeric points must decode")
			}
			var stats Stats
			got, ok := Gather(len(pts), dirs, incomplete, &stats, columnFill(cols, nulls))
			if !ok || got.Len() != want.Len() || stats.BatchesDecoded() != 1 {
				t.Fatalf("Gather ok=%v len=%d decoded=%d, want %d points, one decode", ok, got.Len(), stats.BatchesDecoded(), want.Len())
			}
			for i := 0; i < want.Len(); i++ {
				if fmt.Sprint(got.NumRow(i)) != fmt.Sprint(want.NumRow(i)) || got.NullBits(i) != want.NullBits(i) {
					t.Fatalf("point %d: %v/%b, want %v/%b", i, got.NumRow(i), got.NullBits(i), want.NumRow(i), want.NullBits(i))
				}
			}
			var gotIdx, wantIdx []int
			if incomplete {
				gotIdx, wantIdx = got.GlobalIncomplete(false), want.GlobalIncomplete(false)
			} else {
				gotIdx, wantIdx = got.BNL(false), want.BNL(false)
			}
			if fmt.Sprint(gotIdx) != fmt.Sprint(wantIdx) {
				t.Fatalf("incomplete=%v: kernel kept %v, want %v", incomplete, gotIdx, wantIdx)
			}
			rows := make([]types.Row, len(gotIdx))
			for j, i := range gotIdx {
				rows[j] = pts[i].Row
			}
			kept := got.SelectRows(gotIdx, rows)
			for j, p := range kept.Points(rangeIndices(0, kept.Len())) {
				if fmt.Sprint(p.Row) != fmt.Sprint(rows[j]) {
					t.Fatalf("kept point %d wraps %v, want %v", j, p.Row, rows[j])
				}
			}
		}
	}
	if _, ok := Gather(2, []Dir{Max}, false, nil, columnFill([][]float64{{1, math.NaN()}}, [][]bool{nil})); ok {
		t.Error("Gather accepted NaN in a MAX dimension")
	}
	if _, ok := Gather(1, []Dir{Diff}, false, nil, columnFill([][]float64{{1}}, [][]bool{nil})); ok {
		t.Error("Gather accepted a DIFF dimension")
	}
	refuse := func(int, []float64, int, bool) ([]int, bool) { return nil, false }
	if _, ok := Gather(1, []Dir{Min}, false, nil, refuse); ok {
		t.Error("Gather accepted a batch its fill refused")
	}
}
