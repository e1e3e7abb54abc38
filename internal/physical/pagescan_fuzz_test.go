package physical

import (
	"fmt"
	"math"
	"testing"

	"skysql/internal/cluster"
	"skysql/internal/expr"
	"skysql/internal/skyline"
	"skysql/internal/storage"
	"skysql/internal/types"
)

// pageBytes hands out a fuzz input one byte at a time, zeros past its end.
type pageBytes struct {
	data []byte
	pos  int
}

func (c *pageBytes) next() int {
	if c.pos >= len(c.data) {
		return 0
	}
	c.pos++
	return int(c.data[c.pos-1])
}

func (c *pageBytes) pick(vals []types.Value) types.Value { return vals[c.next()%len(vals)] }

const pageBig = types.MaxExactFloatInt

var (
	negZero = math.Copysign(0, -1)
	// The int column's values: NULL, zeros, and integers at and beyond
	// ±2⁵³. The float column's: NULL, NaN, ±Inf and -0. The mixed column
	// holds both kinds, so its page is boxed unless the input keeps it to
	// one; the string and bool columns are only ever boxed into the rows.
	pageInts   = []types.Value{types.Int(0), types.Int(1), types.Int(-1), types.Int(7), types.Int(pageBig), types.Int(-pageBig), types.Null, types.Int(pageBig + 1), types.Int(-pageBig - 1)}
	pageFloats = []types.Value{types.Float(0.5), types.Float(negZero), types.Float(0), types.Float(1.5), types.Float(7), types.Null, types.Float(math.Inf(1)), types.Float(math.Inf(-1)), types.Float(math.NaN())}
	pageMixed  = []types.Value{types.Int(3), types.Float(2.5), types.Null, types.Float(math.Inf(-1)), types.Float(negZero), types.Int(0), types.Int(pageBig + 1)}
	pageLits   = []types.Value{types.Int(0), types.Float(negZero), types.Int(1), types.Float(0.5), types.Int(7), types.Float(2.5), types.Int(3), types.Int(pageBig), types.Int(-pageBig), types.Float(math.Inf(1)), types.Float(math.Inf(-1)), types.Float(math.NaN())}
	pageOps    = []expr.BinaryOp{expr.OpEq, expr.OpNeq, expr.OpLt, expr.OpLeq, expr.OpGt, expr.OpGeq}
	pageSchema = types.NewSchema(
		types.Field{Name: "i", Type: types.KindInt, Nullable: true},
		types.Field{Name: "f", Type: types.KindFloat, Nullable: true},
		types.Field{Name: "m", Type: types.KindFloat, Nullable: true},
		types.Field{Name: "s", Type: types.KindString},
		types.Field{Name: "b", Type: types.KindBool},
	)
)

func pageRef(col int) *expr.BoundRef {
	f := pageSchema.Fields[col]
	return expr.NewBoundRef(col, f.Name, f.Type, true)
}

// pageCase decodes a fuzz input into rows, filters (conjunctions of
// column-vs-literal comparisons in every operator and orientation, plus
// one conjunct of another form), skyline dimensions and a morsel.
func pageCase(data []byte) (rows []types.Row, filters []expr.Expr, dims []BoundDim, lo, hi int) {
	c := &pageBytes{data: data}
	rows = make([]types.Row, 1+c.next()%40)
	for i := range rows {
		rows[i] = types.Row{c.pick(pageInts), c.pick(pageFloats), c.pick(pageMixed),
			types.Str([]string{"a", "b"}[c.next()%2]), types.Bool(c.next()%2 == 0)}
	}
	other := []expr.Expr{
		expr.NewBinary(expr.OpLt, expr.NewBinary(expr.OpAdd, pageRef(0), pageRef(1)), expr.NewLiteral(types.Float(2))),
		expr.NewIsNull(pageRef(1), true),
		expr.NewBinary(expr.OpOr, expr.NewBinary(expr.OpLt, pageRef(0), pageRef(2)), expr.NewBinary(expr.OpGt, pageRef(1), expr.NewLiteral(types.Float(0.5)))),
		expr.NewBinary(expr.OpNeq, pageRef(2), pageRef(1)),
	}[c.next()%4]
	n := 1 + c.next()%4
	at := c.next() % (n + 1)
	var conjs []expr.Expr
	for k := 0; k < n; k++ {
		if k == at {
			conjs = append(conjs, other)
		}
		ref, op, lit := pageRef(c.next()%3), pageOps[c.next()%len(pageOps)], expr.NewLiteral(c.pick(pageLits))
		if c.next()%2 == 0 {
			conjs = append(conjs, expr.NewBinary(op, ref, lit))
		} else {
			conjs = append(conjs, expr.NewBinary(op, lit, ref))
		}
	}
	if at == n {
		conjs = append(conjs, other)
	}
	// One filter, or two stacked, as a chain of filters would fuse.
	split := c.next() % len(conjs)
	for _, part := range [][]expr.Expr{conjs[:split], conjs[split:]} {
		if len(part) == 0 {
			continue
		}
		cond := part[0]
		for _, e := range part[1:] {
			cond = expr.NewBinary(expr.OpAnd, cond, e)
		}
		filters = append(filters, cond)
	}
	for d := 1 + c.next()%3; d > 0; d-- {
		dims = append(dims, BoundDim{E: pageRef(c.next() % 3), Dir: []skyline.Dir{skyline.Min, skyline.Max}[c.next()%2]})
	}
	lo = c.next() % len(rows)
	hi = lo + 1 + c.next()%(len(rows)-lo)
	return rows, filters, dims, lo, hi
}

// FuzzPageScan: bytes → a segment of int, float and mixed nullable
// columns (NULL, NaN, ±Inf, -0, integers at and beyond ±2⁵³, so float,
// int and boxed pages) plus string and bool columns, filters and a morsel.
// The page path — conjuncts its zone maps prove full dropped, comparisons
// with a constant on the page bytes, the rest on the vectorized engine,
// dimensions gathered into the batch — either refuses the morsel or keeps
// exactly the rows the boxed EvalPredicate keeps, in order, bit for bit,
// with the batch DecodeBatch builds from them, index for index. It may
// refuse only when the morsel holds an integer beyond ±2⁵³ or a value the
// batch refuses. The committed corpus under testdata/fuzz/FuzzPageScan
// runs as part of `go test`.
func FuzzPageScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{12, 3, 1, 2, 0, 1, 5, 8, 2, 1, 0, 0, 4, 6, 3, 1, 1, 2, 0, 3, 2, 1, 0, 7, 1, 1, 2, 3, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, filters, dims, lo, hi := pageCase(data)
		var ops []NarrowOperator
		for _, cond := range filters {
			ops = append(ops, &FilterExec{Cond: cond})
		}
		ps := planPageScan(ops, &DecodeSink{Dims: dims, Tag: "fuzz"}, pageSchema, true)
		if ps == nil {
			t.Fatalf("%v: no page plan for filters the engine vectorizes", filters)
		}
		store, err := storage.FromRows(rows, pageSchema, "", "fuzz", 0)
		if err != nil {
			t.Fatal(err)
		}
		seg := store.Segments()[0]
		r := seg.NewReader(nil)
		defer r.Close()
		got, b, ok, err := ps.forSegment(seg).run(cluster.NewContext(1), r, lo, hi, nil)
		if err != nil {
			t.Fatalf("%v: %v", filters, err)
		}

		var want []types.Row
		var pts []skyline.Point
		big := false
		for _, row := range rows[lo:hi] {
			for _, v := range row[:3] {
				big = big || (v.Kind() == types.KindInt && (v.AsInt() > pageBig || v.AsInt() < -pageBig))
			}
			pass := true
			for _, cond := range filters {
				keep, err := expr.EvalPredicate(cond, row)
				if err != nil {
					t.Fatalf("%s: boxed evaluation failed on %v: %v", cond, row, err)
				}
				pass = pass && keep
			}
			if pass {
				p := skyline.Point{Row: row, Dims: make(types.Row, len(dims))}
				for d, dim := range dims {
					p.Dims[d] = row[dim.E.(*expr.BoundRef).Index]
				}
				want, pts = append(want, row), append(pts, p)
			}
		}
		wantB, decodes := skyline.DecodeBatch(pts, dirsOf(dims), false, nil)
		label := fmt.Sprintf("filters %v dims %v rows [%d,%d) of %v", filters, dims, lo, hi, rows)
		if !ok {
			if decodes && !big {
				t.Fatalf("%s: the page path refused a morsel it can serve", label)
			}
			return
		}
		if !decodes {
			t.Fatalf("%s: the page path served a batch DecodeBatch refuses", label)
		}
		assertSameBits(t, label, want, got)
		if b.Len() != wantB.Len() {
			t.Fatalf("%s: batch of %d points, want %d", label, b.Len(), wantB.Len())
		}
		for i := 0; i < b.Len(); i++ {
			g, w := b.NumRow(i), wantB.NumRow(i)
			for d := range w {
				if math.Float64bits(g[d]) != math.Float64bits(w[d]) {
					t.Fatalf("%s: point %d is %v, want %v", label, i, g, w)
				}
			}
			if b.NullBits(i) != wantB.NullBits(i) {
				t.Fatalf("%s: point %d nulls %b, want %b", label, i, b.NullBits(i), wantB.NullBits(i))
			}
		}
	})
}
