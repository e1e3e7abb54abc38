package physical

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"skysql/internal/cluster"
	"skysql/internal/expr"
	"skysql/internal/skyline"
	"skysql/internal/types"
)

// TestDecodeRowsMatchesDecodeBatch holds the row gather (gatherDims) to
// evalPoints + DecodeBatch: on every input the boxed decode accepts, the
// gather builds the same batch, index for index and bit for bit; on every
// input it refuses or fails to evaluate, the gather refuses too; and the
// local skyline answers or fails exactly as with the kernel off, error text
// included.
func TestDecodeRowsMatchesDecodeBatch(t *testing.T) {
	ref := func(i int, k types.Kind) expr.Expr { return expr.NewBoundRef(i, fmt.Sprintf("c%d", i), k, true) }
	i0, f1, f2 := ref(0, types.KindInt), ref(1, types.KindFloat), ref(2, types.KindFloat)
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	const big = types.MaxExactFloatInt
	row := func(vs ...types.Value) types.Row { return types.Row(vs) }
	plain := []types.Row{
		row(types.Int(3), types.Float(negZero), types.Float(1)),
		row(types.Int(-2), types.Float(0), types.Float(inf)),
		row(types.Int(3), types.Float(-inf), types.Float(-inf)),
		row(types.Int(0), types.Float(2.5), types.Float(negZero)),
		row(types.Int(3), types.Float(negZero), types.Float(1)),
	}
	withNulls := append(slices.Clone(plain),
		row(types.Null, types.Float(1), types.Float(2)),
		row(types.Int(1), types.Null, types.Null),
		row(types.Null, types.Null, types.Null))
	cases := []struct {
		name string
		rows []types.Row
		dims []BoundDim
	}{
		{"min-max-negzero-inf", plain, []BoundDim{{i0, skyline.Min}, {f1, skyline.Max}, {f2, skyline.Min}}},
		{"all-max", plain, []BoundDim{{f2, skyline.Max}, {i0, skyline.Max}}},
		{"nulls", withNulls, []BoundDim{{i0, skyline.Min}, {f1, skyline.Max}, {f2, skyline.Min}}},
		{"expressions", withNulls, []BoundDim{
			{expr.NewBinary(expr.OpAdd, i0, f1), skyline.Min},
			{expr.NewNegate(f2), skyline.Max},
			{expr.NewAlias(f1, "x"), skyline.Min},
		}},
		{"nan", append(slices.Clone(plain), row(types.Int(1), types.Float(math.NaN()), types.Float(0))),
			[]BoundDim{{i0, skyline.Min}, {f1, skyline.Min}}},
		{"nan-from-expression", append(slices.Clone(plain), row(types.Int(1), types.Float(inf), types.Float(-inf))),
			[]BoundDim{{expr.NewBinary(expr.OpAdd, f1, f2), skyline.Min}}},
		{"ints-at-2^53", []types.Row{
			row(types.Int(big-1), types.Float(0), types.Float(0)),
			row(types.Int(-big), types.Float(1), types.Float(0)),
			row(types.Int(big), types.Float(2), types.Float(0)),
		}, []BoundDim{{i0, skyline.Min}, {f1, skyline.Max}}},
		{"int-beyond-2^53", []types.Row{
			row(types.Int(big-1), types.Float(0), types.Float(0)),
			row(types.Int(big+1), types.Float(1), types.Float(0)),
		}, []BoundDim{{i0, skyline.Min}, {f1, skyline.Max}}},
		{"int-below-minus-2^53", []types.Row{
			row(types.Int(-big-1), types.Float(1), types.Float(0)),
		}, []BoundDim{{f1, skyline.Max}, {i0, skyline.Min}}},
		{"diff", withNulls, []BoundDim{{i0, skyline.Diff}, {f1, skyline.Min}}},
		{"string", []types.Row{
			row(types.Int(1), types.Float(1), types.Float(0)),
			row(types.Str("x"), types.Float(1), types.Float(0)),
		}, []BoundDim{{f1, skyline.Min}, {ref(0, types.KindString), skyline.Min}}},
		// Row 3's first dimension and row 1's second both fail: evaluated
		// row by row, row 1's error comes first.
		{"errors", []types.Row{
			row(types.Int(1), types.Float(1), types.Float(0)),
			row(types.Int(2), types.Float(1), types.Bool(true)),
			row(types.Int(3), types.Float(1), types.Float(0)),
			row(types.Str("s"), types.Float(1), types.Float(0)),
		}, []BoundDim{
			{expr.NewBinary(expr.OpAdd, ref(0, types.KindInt), f1), skyline.Min},
			{expr.NewNegate(f2), skyline.Max},
		}},
	}
	for _, tc := range cases {
		for _, incomplete := range []bool{false, true} {
			label := fmt.Sprintf("%s/incomplete=%v", tc.name, incomplete)
			dirs := dirsOf(tc.dims)
			var want *skyline.Batch
			pts, evalErr := evalPoints(tc.rows, tc.dims)
			if evalErr == nil {
				want, _ = skyline.DecodeBatch(pts, dirs, incomplete, nil)
			}
			got := gatherDims(tc.rows, tc.dims, dirs, incomplete, nil)
			switch {
			case want == nil && got != nil:
				t.Errorf("%s: the gather decoded what evalPoints + DecodeBatch refuse (eval error %v)", label, evalErr)
			case want != nil && tc.dims[0].Dir != skyline.Diff && got == nil:
				t.Errorf("%s: the gather refused what DecodeBatch decodes", label)
			case want != nil && got != nil:
				sameBatch(t, label, got, want)
			}
			checkLocalSkyline(t, label, tc.rows, tc.dims, incomplete)
		}
	}
}

// sameBatch asserts two batches decode the same points identically: the
// normalized vectors bit for bit (−0 stays −0), the null masks, and the
// local skyline a BNL pass keeps.
func sameBatch(t *testing.T, label string, got, want *skyline.Batch) {
	t.Helper()
	if got.Len() != want.Len() || got.NumDims() != want.NumDims() || got.KeyDims() != want.KeyDims() ||
		got.HasNulls() != want.HasNulls() || got.Incomplete() != want.Incomplete() ||
		!slices.Equal(got.Dirs(), want.Dirs()) {
		t.Fatalf("%s: gathered batch shape differs from the decoded one", label)
	}
	for i := 0; i < got.Len(); i++ {
		g, w := got.NumRow(i), want.NumRow(i)
		for k := range w {
			if math.Float64bits(g[k]) != math.Float64bits(w[k]) {
				t.Fatalf("%s: point %d dimension %d gathered as %v, decoded as %v", label, i, k, g[k], w[k])
			}
		}
		if got.NullBits(i) != want.NullBits(i) {
			t.Fatalf("%s: point %d null bits %b, decoded %b", label, i, got.NullBits(i), want.NullBits(i))
		}
	}
	for _, distinct := range []bool{false, true} {
		if g, w := got.BNL(distinct), want.BNL(distinct); !slices.Equal(g, w) {
			t.Fatalf("%s: BNL(distinct=%v) keeps %v over the gather, %v over the decode", label, distinct, g, w)
		}
	}
}

// checkLocalSkyline runs the local skyline over rows with the kernel on
// and off: the same rows in the same order, or the same error.
func checkLocalSkyline(t *testing.T, label string, rows []types.Row, dims []BoundDim, incomplete bool) {
	t.Helper()
	run := func(disable bool) ([]types.Row, *skyline.Batch, error) {
		l := &LocalSkylineExec{Dims: dims, Incomplete: incomplete, DisableKernel: disable}
		return l.PartitionTransformColumnar(cluster.NewContext(1))(0, rows, nil)
	}
	got, b, err := run(false)
	want, _, boxedErr := run(true)
	if fmt.Sprint(err) != fmt.Sprint(boxedErr) {
		t.Fatalf("%s: kernel error %v, boxed error %v", label, err, boxedErr)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: kernel keeps %v, boxed %v", label, got, want)
	}
	if b != nil && b.Len() != len(got) {
		t.Fatalf("%s: sidecar of %d points for %d rows", label, b.Len(), len(got))
	}
	if b != nil {
		if runs, _ := b.Runs(); (runs != nil) == incomplete {
			t.Fatalf("%s: sidecar runs %v under incomplete=%v", label, runs, incomplete)
		}
	}
}
