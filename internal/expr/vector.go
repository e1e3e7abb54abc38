package expr

// This file implements the vectorized expression engine: column-at-a-time
// evaluation of resolved expression trees over dense float64 columns with
// null masks, the batch-at-a-time twin of the row-wise Eval path. It serves
// the columnar data plane of the physical layer — filters become selection
// bitmaps over a decoded skyline.Batch, projections become computed columns
// — so a batch decoded once at the scan survives the whole narrow pipeline.
//
// The engine follows the decode-refusal contract of the columnar dominance
// kernel: it only ever evaluates expressions whose vectorized result is
// bit-for-bit identical to the boxed Eval/EvalPredicate result, refusing
// everything else so the boxed path transparently serves it. Refusal is
// two-level:
//
//   - CanVectorize is the static probe: it accepts column references of
//     numeric kinds, numeric/boolean/NULL literals, the arithmetic and
//     comparison operators, AND/OR/NOT three-valued logic, unary minus, and
//     IS [NOT] NULL. Strings, CASE, IN, scalar functions, aggregates, and
//     integer literals beyond ±2⁵³ (where the boxed exact int64 comparison
//     and a float64 comparison can disagree) are refused.
//   - ErrNotVectorized is the runtime refusal: a referenced ordinal has no
//     dense column in the batch, or an integer-typed arithmetic result
//     leaves the ±2⁵³ exactness range (the boxed path wraps int64 there
//     while float64 rounds). Callers fall back to the boxed row loop.
//
// Bit-identity notes mirrored from the boxed implementations: comparisons
// replicate CompareValues' NaN total order (NaN = NaN, NaN below
// everything), division and modulo by zero yield NULL (never Inf), AND/OR
// implement Kleene three-valued logic (eager evaluation is observationally
// identical to the boxed short-circuit because no vectorizable node can
// produce a runtime error), and NULL propagates through arithmetic,
// comparisons, and negation. A comparison with a non-NULL, non-NaN literal
// on either side does not broadcast the literal: the other side is compared
// against the scalar, one loop per operator, under the same order.

import (
	"errors"
	"fmt"
	"math"

	"skysql/internal/types"
)

// ErrNotVectorized is the runtime refusal of the vectorized engine: the
// expression passed the static CanVectorize probe but this particular batch
// cannot be served exactly (missing dense column, integer result beyond the
// float64-exact range). Callers must fall back to the boxed Eval path.
var ErrNotVectorized = errors.New("expr: not vectorizable on this batch")

// ColumnSource provides the dense columns of one batch to the vectorized
// engine. Column returns the raw (not direction-normalized) float64 values
// of the input-row ordinal ord plus a null mask (nil when the column has no
// NULLs); ok=false when the ordinal has no dense column, which surfaces as
// ErrNotVectorized.
type ColumnSource interface {
	NumRows() int
	Column(ord int) (vals []float64, nulls []bool, ok bool)
}

// vclass is the static value class of a vectorizable node.
type vclass int

const (
	vnone vclass = iota // not vectorizable
	vnum                // numeric (float64 column)
	vbool               // boolean (selection column)
	vnull               // NULL literal: fits numeric and boolean positions
)

// CanVectorize is the static capability probe: it reports whether e can be
// evaluated by the vectorized engine against rows of the given schema. The
// probe is necessary but not sufficient — a batch may still refuse at
// runtime with ErrNotVectorized (see the file comment) — and deliberately
// conservative: anything non-numeric, unsupported (Case/In/functions/
// aggregates), or inexact under float64 is served by the boxed Eval.
func CanVectorize(e Expr, schema *types.Schema) bool {
	return classOf(e, schema) != vnone
}

// classOf computes the static value class of a node, vnone when any part of
// the tree is not vectorizable.
func classOf(e Expr, schema *types.Schema) vclass {
	switch n := e.(type) {
	case *BoundRef:
		if schema == nil || n.Index < 0 || n.Index >= schema.Len() {
			return vnone
		}
		typ := n.Typ
		if typ == types.KindNull {
			typ = schema.Fields[n.Index].Type
		}
		if typ == types.KindInt || typ == types.KindFloat {
			return vnum
		}
		return vnone
	case *Literal:
		switch n.Value.Kind() {
		case types.KindNull:
			return vnull
		case types.KindFloat:
			return vnum
		case types.KindInt:
			if i := n.Value.AsInt(); i > types.MaxExactFloatInt || i < -types.MaxExactFloatInt {
				return vnone // exact int64 comparison semantics would be lost
			}
			return vnum
		case types.KindBool:
			return vbool
		}
		return vnone
	case *Alias:
		return classOf(n.Child, schema)
	case *Negate:
		if c := classOf(n.Child, schema); c == vnum || c == vnull {
			return vnum
		}
		return vnone
	case *Not:
		if c := classOf(n.Child, schema); c == vbool || c == vnull {
			return vbool
		}
		return vnone
	case *IsNull:
		if classOf(n.Child, schema) != vnone {
			return vbool
		}
		return vnone
	case *Binary:
		l, r := classOf(n.L, schema), classOf(n.R, schema)
		if l == vnone || r == vnone {
			return vnone
		}
		switch {
		case n.Op == OpAnd || n.Op == OpOr:
			if (l == vbool || l == vnull) && (r == vbool || r == vnull) {
				return vbool
			}
		case n.Op.IsComparison():
			if (l == vnum || l == vnull) && (r == vnum || r == vnull) {
				return vbool
			}
		default: // arithmetic
			if (l == vnum || l == vnull) && (r == vnum || r == vnull) {
				return vnum
			}
		}
		return vnone
	}
	return vnone
}

// VectorEvaluator evaluates vectorizable expressions over one batch.
// Bytes accumulates the scratch column buffers allocated during
// evaluation, so callers can charge them to peak-bytes accounting.
type VectorEvaluator struct {
	src   ColumnSource
	Bytes int64
}

// NewVectorEvaluator creates an evaluator over the given column source.
func NewVectorEvaluator(src ColumnSource) *VectorEvaluator {
	return &VectorEvaluator{src: src}
}

func (v *VectorEvaluator) newFloats() []float64 {
	v.Bytes += int64(v.src.NumRows()) * 8
	return make([]float64, v.src.NumRows())
}

func (v *VectorEvaluator) newBools() []bool {
	v.Bytes += int64(v.src.NumRows())
	return make([]bool, v.src.NumRows())
}

// EvalNumeric evaluates a numeric-class expression into a dense column plus
// null mask (nil when no slot is NULL).
func (v *VectorEvaluator) EvalNumeric(e Expr) (vals []float64, nulls []bool, err error) {
	return v.evalNum(e)
}

// EvalPredicate evaluates a boolean-class expression into a selection
// bitmap with SQL WHERE semantics: NULL counts as false. It is the
// vectorized twin of EvalPredicate.
func (v *VectorEvaluator) EvalPredicate(e Expr) ([]bool, error) {
	sel, nulls, err := v.evalBool(e)
	if err != nil {
		return nil, err
	}
	if nulls != nil {
		for i, n := range nulls {
			if n {
				sel[i] = false
			}
		}
	}
	return sel, nil
}

// MaterializeNumeric converts a numeric result column back into boxed
// values of the expression's static kind — exactly the values the boxed
// Eval would have produced (integer results beyond the float64-exact range
// are refused at evaluation time, so the int64 conversion is exact).
func MaterializeNumeric(kind types.Kind, vals []float64, nulls []bool) []types.Value {
	out := make([]types.Value, len(vals))
	for i, f := range vals {
		if nulls != nil && nulls[i] {
			out[i] = types.Null
			continue
		}
		if kind == types.KindInt {
			out[i] = types.Int(int64(f))
		} else {
			out[i] = types.Float(f)
		}
	}
	return out
}

// MaterializeBool converts a boolean result column into boxed values.
func MaterializeBool(vals []bool, nulls []bool) []types.Value {
	out := make([]types.Value, len(vals))
	for i, b := range vals {
		if nulls != nil && nulls[i] {
			out[i] = types.Null
			continue
		}
		out[i] = types.Bool(b)
	}
	return out
}

// evalNum evaluates a numeric-class node.
func (v *VectorEvaluator) evalNum(e Expr) ([]float64, []bool, error) {
	switch n := e.(type) {
	case *BoundRef:
		vals, nulls, ok := v.src.Column(n.Index)
		if !ok {
			return nil, nil, ErrNotVectorized
		}
		return vals, nulls, nil
	case *Literal:
		vals := v.newFloats()
		if n.Value.IsNull() {
			nulls := v.newBools()
			for i := range nulls {
				nulls[i] = true
			}
			return vals, nulls, nil
		}
		f := n.Value.AsFloat()
		for i := range vals {
			vals[i] = f
		}
		return vals, nil, nil
	case *Alias:
		return v.evalNum(n.Child)
	case *Negate:
		cv, cn, err := v.evalNum(n.Child)
		if err != nil {
			return nil, nil, err
		}
		out := v.newFloats()
		for i, f := range cv {
			out[i] = -f
		}
		if n.DataType() == types.KindInt {
			normalizeIntZeros(out)
		}
		return out, cn, nil
	case *Binary:
		return v.evalArith(n)
	}
	return nil, nil, fmt.Errorf("expr: vectorized evaluation of unsupported node %T", e)
}

// evalArith evaluates a vectorized arithmetic node with the boxed
// NULL-propagation and zero-divisor semantics.
func (v *VectorEvaluator) evalArith(b *Binary) ([]float64, []bool, error) {
	lv, ln, err := v.evalNum(b.L)
	if err != nil {
		return nil, nil, err
	}
	rv, rn, err := v.evalNum(b.R)
	if err != nil {
		return nil, nil, err
	}
	out := v.newFloats()
	nulls := mergeNulls(v, ln, rn)
	switch b.Op {
	case OpAdd:
		for i := range out {
			out[i] = lv[i] + rv[i]
		}
	case OpSub:
		for i := range out {
			out[i] = lv[i] - rv[i]
		}
	case OpMul:
		for i := range out {
			out[i] = lv[i] * rv[i]
		}
	case OpDiv:
		// Boxed: division by zero is NULL, never Inf. The mask is written
		// to, so it must not alias an operand's (possibly shared) mask.
		nulls = copyNulls(v, nulls)
		for i := range out {
			if rv[i] == 0 {
				nulls[i] = true
				continue
			}
			out[i] = lv[i] / rv[i]
		}
	case OpMod:
		nulls = copyNulls(v, nulls)
		for i := range out {
			if rv[i] == 0 {
				nulls[i] = true
				continue
			}
			out[i] = math.Mod(lv[i], rv[i])
		}
	default:
		return nil, nil, fmt.Errorf("expr: vectorized evaluation of unsupported arithmetic %s", b.Op)
	}
	// Exactness guard for integer-typed results: the boxed path computes
	// exact (wrapping) int64 arithmetic, which float64 reproduces only while
	// the result magnitude stays below 2⁵³. math.Mod on exact integer
	// operands is always exact (|result| < |divisor| ≤ 2⁵³), but the guard
	// is kept uniform — refusal is always safe. The same loop normalizes
	// negative zeros: int64 arithmetic has no -0 (e.g. boxed -5*0 = +0),
	// while the float ops produce one, and the sign would propagate through
	// later multiplications.
	if b.DataType() == types.KindInt {
		for i, f := range out {
			if nulls != nil && nulls[i] {
				continue
			}
			if f >= float64(types.MaxExactFloatInt) || f <= -float64(types.MaxExactFloatInt) {
				return nil, nil, ErrNotVectorized
			}
			if f == 0 {
				out[i] = 0
			}
		}
	}
	return out, nulls, nil
}

// normalizeIntZeros replaces -0 with +0 in an integer-typed result column
// (int64 semantics have a single zero).
func normalizeIntZeros(out []float64) {
	for i, f := range out {
		if f == 0 {
			out[i] = 0
		}
	}
}

// evalBool evaluates a boolean-class node into (values, nulls).
func (v *VectorEvaluator) evalBool(e Expr) ([]bool, []bool, error) {
	switch n := e.(type) {
	case *Literal:
		vals := v.newBools()
		if n.Value.IsNull() {
			nulls := v.newBools()
			for i := range nulls {
				nulls[i] = true
			}
			return vals, nulls, nil
		}
		bv := n.Value.AsBool()
		for i := range vals {
			vals[i] = bv
		}
		return vals, nil, nil
	case *Alias:
		return v.evalBool(n.Child)
	case *Not:
		cv, cn, err := v.evalBool(n.Child)
		if err != nil {
			return nil, nil, err
		}
		out := v.newBools()
		for i, b := range cv {
			out[i] = !b
		}
		return out, cn, nil
	case *IsNull:
		return v.evalIsNull(n)
	case *Binary:
		if n.Op == OpAnd || n.Op == OpOr {
			return v.evalLogical(n)
		}
		if n.Op.IsComparison() {
			return v.evalCompare(n)
		}
	}
	return nil, nil, fmt.Errorf("expr: vectorized evaluation of unsupported boolean node %T", e)
}

// evalIsNull evaluates IS [NOT] NULL over the child's null mask; the result
// is never NULL itself.
func (v *VectorEvaluator) evalIsNull(n *IsNull) ([]bool, []bool, error) {
	var cn []bool
	var err error
	if isBoolClass(n.Child) {
		_, cn, err = v.evalBool(n.Child)
	} else {
		_, cn, err = v.evalNum(n.Child)
	}
	if err != nil {
		return nil, nil, err
	}
	out := v.newBools()
	for i := range out {
		isNull := cn != nil && cn[i]
		out[i] = isNull != n.Negated
	}
	return out, nil, nil
}

// evalCompare evaluates a vectorized comparison, replicating the boxed
// CompareValues semantics: NULL propagates, and NaN follows the boxed total
// order (NaN = NaN, NaN below every number). A side that is a non-NULL,
// non-NaN literal is not broadcast into a column: the other side is
// compared against it in place (compareConst).
func (v *VectorEvaluator) evalCompare(b *Binary) ([]bool, []bool, error) {
	if c, ok := ConstOperand(b.R); ok {
		return v.compareConst(b.Op, b.L, c)
	}
	if c, ok := ConstOperand(b.L); ok {
		return v.compareConst(b.Op.Mirrored(), b.R, c)
	}
	lv, ln, err := v.evalNum(b.L)
	if err != nil {
		return nil, nil, err
	}
	rv, rn, err := v.evalNum(b.R)
	if err != nil {
		return nil, nil, err
	}
	out := v.newBools()
	nulls := mergeNulls(v, ln, rn)
	for i := range out {
		if nulls != nil && nulls[i] {
			continue
		}
		c := compareFloats(lv[i], rv[i])
		switch b.Op {
		case OpEq:
			out[i] = c == 0
		case OpNeq:
			out[i] = c != 0
		case OpLt:
			out[i] = c < 0
		case OpLeq:
			out[i] = c <= 0
		case OpGt:
			out[i] = c > 0
		case OpGeq:
			out[i] = c >= 0
		}
	}
	return out, nulls, nil
}

// ConstOperand returns the value of a comparison operand that is a
// non-NULL, non-NaN literal: the constant a comparison is evaluated
// against in place. It is meant for trees that passed CanVectorize, whose
// literal operands are numeric, and integer ones within ±2⁵³, where the
// conversion is exact.
func ConstOperand(e Expr) (float64, bool) {
	lit, ok := e.(*Literal)
	if !ok || lit.Value.IsNull() {
		return 0, false
	}
	c := lit.Value.AsFloat()
	return c, c == c
}

// compareConst evaluates e op c with the operator switch out of the row
// loop. Against a c that is not NaN, compareFloats(x, c) is the plain float
// comparison except that a NaN x sorts below c, so only < and <= must admit
// NaN slots (and <> does, as x != c). The result carries e's null mask;
// its values under NULL slots are left as computed, since EvalPredicate,
// the three-valued operators and MaterializeBool read the mask first.
func (v *VectorEvaluator) compareConst(op BinaryOp, e Expr, c float64) ([]bool, []bool, error) {
	xs, nulls, err := v.evalNum(e)
	if err != nil {
		return nil, nil, err
	}
	out := v.newBools()
	switch op {
	case OpEq:
		for i, x := range xs {
			out[i] = x == c
		}
	case OpNeq:
		for i, x := range xs {
			out[i] = x != c
		}
	case OpLt:
		for i, x := range xs {
			out[i] = x < c || x != x
		}
	case OpLeq:
		for i, x := range xs {
			out[i] = x <= c || x != x
		}
	case OpGt:
		for i, x := range xs {
			out[i] = x > c
		}
	case OpGeq:
		for i, x := range xs {
			out[i] = x >= c
		}
	}
	return out, nulls, nil
}

// isBoolClass reports whether a vectorizable node produces booleans. It is
// the structural (schema-free) form of classOf, valid on trees that already
// passed the static probe: column references are always numeric there.
func isBoolClass(e Expr) bool {
	switch n := e.(type) {
	case *Literal:
		return n.Value.Kind() == types.KindBool
	case *Alias:
		return isBoolClass(n.Child)
	case *Not, *IsNull:
		return true
	case *Binary:
		return n.Op == OpAnd || n.Op == OpOr || n.Op.IsComparison()
	}
	return false
}

// compareFloats replicates the numeric branch of types.CompareValues,
// including its NaN total order.
func compareFloats(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case math.IsNaN(a) && math.IsNaN(b):
		return 0
	case math.IsNaN(a):
		return -1
	case math.IsNaN(b):
		return 1
	}
	return 0
}

// evalLogical evaluates AND/OR under Kleene three-valued logic. Both sides
// are evaluated eagerly; this is observationally identical to the boxed
// short-circuit because vectorizable nodes cannot raise runtime errors
// (refusals abandon the whole vectorized attempt).
func (v *VectorEvaluator) evalLogical(b *Binary) ([]bool, []bool, error) {
	lv, ln, err := v.evalBool(b.L)
	if err != nil {
		return nil, nil, err
	}
	rv, rn, err := v.evalBool(b.R)
	if err != nil {
		return nil, nil, err
	}
	out := v.newBools()
	var nulls []bool
	and := b.Op == OpAnd
	for i := range out {
		lNull := ln != nil && ln[i]
		rNull := rn != nil && rn[i]
		var val, null bool
		switch {
		case !lNull && !rNull:
			if and {
				val = lv[i] && rv[i]
			} else {
				val = lv[i] || rv[i]
			}
		case and && ((!lNull && !lv[i]) || (!rNull && !rv[i])):
			val = false // FALSE AND NULL = FALSE
		case !and && ((!lNull && lv[i]) || (!rNull && rv[i])):
			val = true // TRUE OR NULL = TRUE
		default:
			null = true
		}
		if null {
			if nulls == nil {
				nulls = v.newBools()
			}
			nulls[i] = true
			continue
		}
		out[i] = val
	}
	return out, nulls, nil
}

// copyNulls returns a private, writable copy of a null mask (fresh and
// all-false when mask is nil).
func copyNulls(v *VectorEvaluator, mask []bool) []bool {
	out := v.newBools()
	copy(out, mask)
	return out
}

// mergeNulls ORs two null masks (either may be nil).
func mergeNulls(v *VectorEvaluator, a, b []bool) []bool {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	out := v.newBools()
	for i := range out {
		out[i] = a[i] || b[i]
	}
	return out
}
