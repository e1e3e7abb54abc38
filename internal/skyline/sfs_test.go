package skyline

import (
	"fmt"
	"math"
	"testing"

	"skysql/internal/types"
)

// sfsRepros are inputs on which a presort by the plain sum of the
// normalized dimensions is not dominance-compatible, under MIN, MIN: the
// sums tie — at −Inf, or under rounding at 1e17 — and a stable sort keeps
// the dominated first point ahead of its dominator. BNL keeps only point 1.
var sfsRepros = []struct {
	name string
	vecs [][]float64
}{
	{"infinite-sums", [][]float64{{math.Inf(-1), 7}, {math.Inf(-1), 1}}},
	{"rounded-sums", [][]float64{{1e17, 1}, {1e17, 0}}},
}

// TestSFSPresortDominanceCompatible: on both repro inputs every SFS — boxed,
// kernel, parallel twin — returns what BNL returns, distinct both ways.
func TestSFSPresortDominanceCompatible(t *testing.T) {
	dirs := []Dir{Min, Min}
	for _, c := range sfsRepros {
		pts := make([]Point, len(c.vecs))
		for i, v := range c.vecs {
			dims := types.Row{types.Float(v[0]), types.Float(v[1])}
			pts[i] = Point{Dims: dims, Row: types.Row{types.Int(int64(i))}}
		}
		for _, distinct := range []bool{false, true} {
			boxed, err := SFS(pts, dirs, distinct, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(boxed) != 1 || boxed[0].Row[0].AsInt() != 1 {
				t.Errorf("%s distinct=%v: boxed SFS kept %v, want point 1", c.name, distinct, boxed)
			}
			b, ok := DecodeBatch(pts, dirs, false, nil)
			if !ok {
				t.Fatal("decode failed")
			}
			par, err := b.SFSParallel(distinct, 1, goRunner)
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string][]int{"Batch.SFS": b.SFS(distinct), "SFSParallel": par, "Batch.BNL": b.BNL(distinct)} {
				if fmt.Sprint(got) != "[1]" {
					t.Errorf("%s distinct=%v: %s = %v, want [1]", c.name, distinct, name, got)
				}
			}
		}
	}
}
