package expr

import (
	"fmt"
	"math"
	"testing"

	"skysql/internal/types"
)

// bigExact is 2⁵³, the largest integer magnitude the vectorized engine
// accepts.
const bigExact = types.MaxExactFloatInt

// predicateCase decodes fuzz bytes into columns and a predicate over them.
//
// Byte 0: bits 0–1 give the column count (1–3), bit 2+c makes column c a
// float column (else int). Byte 1: 1 + byte%32 rows. Then one byte per row
// and column, row-major (colValue), then the predicate tokens (predicate).
// Exhausted input reads as zeros, so every byte string is a case.
type predicateCase struct {
	data  []byte
	nCols int
}

func (c *predicateCase) next() byte {
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return b
}

// colValue maps a byte onto a column value: NULL, NaN, ±Inf, −0, ints at
// and beyond ±2⁵³ (a column holding one beyond is refused, as the engine's
// column extraction refuses it), and small ints or halves otherwise.
func colValue(v byte, float bool) types.Value {
	switch v % 16 {
	case 0:
		return types.Null
	case 1:
		if float {
			return types.Float(math.NaN())
		}
	case 2:
		if float {
			return types.Float(math.Inf(1))
		}
		return types.Int(bigExact)
	case 3:
		if float {
			return types.Float(math.Inf(-1))
		}
		return types.Int(-bigExact)
	case 4:
		if float {
			return types.Float(math.Copysign(0, -1))
		}
	case 5:
		if float {
			return types.Float(float64(bigExact))
		}
		return types.Int(bigExact + 1)
	case 6:
		if !float {
			return types.Int(-bigExact - 1)
		}
	}
	n := int64(v%16) - 10
	if !float {
		return types.Int(n)
	}
	f := float64(n)
	if v&0x80 != 0 {
		f += 0.5
	}
	return types.Float(f)
}

// literal maps a byte onto a literal: NULL, NaN, ±Inf, −0, the ints ±2⁵³
// and 2⁵³+1 (statically refused), 0.5, and small ints or quarters.
func literal(v byte) Expr {
	var val types.Value
	switch v % 16 {
	case 0:
		val = types.Null
	case 1:
		val = types.Float(math.NaN())
	case 2:
		val = types.Float(math.Inf(1))
	case 3:
		val = types.Float(math.Inf(-1))
	case 4:
		val = types.Float(math.Copysign(0, -1))
	case 5:
		val = types.Int(bigExact)
	case 6:
		val = types.Int(-bigExact)
	case 7:
		val = types.Int(bigExact + 1)
	case 8:
		val = types.Float(0.5)
	default:
		n := int64(v%16) - 12
		if v&0x80 != 0 {
			val = types.Float(float64(n) + 0.25)
		} else {
			val = types.Int(n)
		}
	}
	return NewLiteral(val)
}

var (
	fuzzCmpOps   = []BinaryOp{OpEq, OpNeq, OpLt, OpLeq, OpGt, OpGeq}
	fuzzArithOps = []BinaryOp{OpAdd, OpSub, OpMul, OpDiv, OpMod}
)

// predicate reads a boolean node: token%6 picks a comparison (operator
// token, then two numeric nodes), NOT, IS [NOT] NULL (numeric node, then
// a token whose low bit negates), AND, OR, or a TRUE/FALSE/NULL literal.
// At depth 0 every node is a comparison.
func (c *predicateCase) predicate(depth int) Expr {
	k := c.next() % 6
	if depth == 0 {
		k = 0
	}
	switch k {
	case 1:
		return NewNot(c.predicate(depth - 1))
	case 2:
		e := c.numeric(depth - 1)
		return NewIsNull(e, c.next()&1 != 0)
	case 3:
		return NewBinary(OpAnd, c.predicate(depth-1), c.predicate(depth-1))
	case 4:
		return NewBinary(OpOr, c.predicate(depth-1), c.predicate(depth-1))
	case 5:
		return NewLiteral([]types.Value{types.Bool(true), types.Bool(false), types.Null}[c.next()%3])
	}
	op := fuzzCmpOps[c.next()%6]
	l := c.numeric(depth - 1)
	return NewBinary(op, l, c.numeric(depth-1))
}

// numeric reads a numeric node: token%4 picks a column (index token), a
// literal (value token), arithmetic (operator token, two nodes) or a
// negation; below depth 0 the last two become a column and a literal.
func (c *predicateCase) numeric(depth int) Expr {
	switch c.next() % 4 {
	case 1:
		return literal(c.next())
	case 2:
		if depth > 0 {
			op := fuzzArithOps[c.next()%5]
			l := c.numeric(depth - 1)
			return NewBinary(op, l, c.numeric(depth-1))
		}
	case 3:
		if depth > 0 {
			return NewNegate(c.numeric(depth - 1))
		}
		return literal(c.next())
	}
	i := int(c.next()) % c.nCols
	return NewBoundRef(i, fmt.Sprintf("c%d", i), types.KindNull, true)
}

// vectorCase builds the boxed rows, the column source the engine would
// build from them, and the predicate.
func vectorCase(data []byte) (*sliceSource, []types.Row, *types.Schema, Expr) {
	c := &predicateCase{data: data}
	shape := c.next()
	c.nCols = min(int(shape&3)+1, 3)
	rows := make([]types.Row, 1+int(c.next())%32)
	fields := make([]types.Field, c.nCols)
	for j := range fields {
		kind := types.KindInt
		if shape&(4<<j) != 0 {
			kind = types.KindFloat
		}
		fields[j] = types.Field{Name: fmt.Sprintf("c%d", j), Type: kind, Nullable: true}
	}
	for i := range rows {
		rows[i] = make(types.Row, c.nCols)
		for j := range rows[i] {
			rows[i][j] = colValue(c.next(), fields[j].Type == types.KindFloat)
		}
	}
	src := &sliceSource{n: len(rows), cols: map[int][]float64{}, nulls: map[int][]bool{}}
column:
	for j := range fields {
		vals, nulls := make([]float64, len(rows)), make([]bool, len(rows))
		for i, row := range rows {
			switch v := row[j]; {
			case v.IsNull():
				nulls[i] = true
			case v.Kind() == types.KindInt && (v.AsInt() > bigExact || v.AsInt() < -bigExact):
				continue column // no dense column: the engine boxes these rows
			default:
				vals[i] = v.AsFloat()
			}
		}
		src.cols[j], src.nulls[j] = vals, nulls
	}
	schema := types.NewSchema(fields...)
	return src, rows, schema, bindRefs(c.predicate(4), schema)
}

// FuzzVectorPredicate: bytes → columns and a predicate tree; the vectorized
// EvalPredicate either refuses (statically or with ErrNotVectorized) or
// selects exactly the rows the boxed EvalPredicate selects. The committed
// corpus under testdata/fuzz/FuzzVectorPredicate runs as part of `go test`.
func FuzzVectorPredicate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 3, 1, 2, 4, 0, 0, 2, 0, 0, 1, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		src, rows, schema, e := vectorCase(data)
		if !CanVectorize(e, schema) {
			return
		}
		sel, err := NewVectorEvaluator(src).EvalPredicate(e)
		if err == ErrNotVectorized {
			return
		}
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		for i, row := range rows {
			want, err := EvalPredicate(e, row)
			if err != nil {
				t.Fatalf("%s: boxed evaluation of a vectorizable predicate failed on %v: %v", e, row, err)
			}
			if sel[i] != want {
				t.Fatalf("%s row %d %v: boxed %v, vectorized %v", e, i, row, want, sel[i])
			}
		}
	})
}
