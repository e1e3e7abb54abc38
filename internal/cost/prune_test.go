package cost

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"skysql/internal/expr"
	"skysql/internal/types"
)

func lt(col int, lit float64) expr.Expr {
	return expr.NewBinary(expr.OpLt, fref(col), expr.NewLiteral(types.Float(lit)))
}

func cmp(op expr.BinaryOp, col int, lit float64) expr.Expr {
	return expr.NewBinary(op, fref(col), expr.NewLiteral(types.Float(lit)))
}

// zoneTable builds a one-column sketch with the given zone map.
func zoneTable(min, max float64, rows int) *Table {
	return &Table{Rows: rows, Cols: []Column{{Min: min, Max: max, Numeric: true}}}
}

// TestProvablyEmptyComparisons pins the zone-map pruning rules on a
// segment whose column spans [10, 20].
func TestProvablyEmptyComparisons(t *testing.T) {
	z := zoneTable(10, 20, 100)
	cases := []struct {
		name string
		e    expr.Expr
		want bool
	}{
		{"lt below range", cmp(expr.OpLt, 0, 5), true},
		// col < min is truly empty, but the ulp safety margin widens both
		// sides of the boundary comparison, so exact-boundary literals stay
		// conservatively un-pruned.
		{"lt at min stays conservative", cmp(expr.OpLt, 0, 10), false},
		{"lt inside", cmp(expr.OpLt, 0, 15), false},
		{"le below range", cmp(expr.OpLeq, 0, 5), true},
		{"le at min keeps boundary row", cmp(expr.OpLeq, 0, 10), false},
		{"gt above range", cmp(expr.OpGt, 0, 25), true},
		{"gt at max stays conservative", cmp(expr.OpGt, 0, 20), false},
		{"gt inside", cmp(expr.OpGt, 0, 15), false},
		{"ge above range", cmp(expr.OpGeq, 0, 25), true},
		{"ge at max keeps boundary row", cmp(expr.OpGeq, 0, 20), false},
		{"eq below", cmp(expr.OpEq, 0, 5), true},
		{"eq above", cmp(expr.OpEq, 0, 25), true},
		{"eq inside", cmp(expr.OpEq, 0, 15), false},
	}
	for _, c := range cases {
		if got := ProvablyEmpty(c.e, z); got != c.want {
			t.Errorf("%s: ProvablyEmpty = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestProvablyEmptyFlippedOperands: literal-on-the-left comparisons must
// normalize, mirroring rangeSelectivity.
func TestProvablyEmptyFlippedOperands(t *testing.T) {
	z := zoneTable(10, 20, 100)
	// 25 < col ⇔ col > 25: provably empty on [10, 20].
	e := expr.NewBinary(expr.OpLt, expr.NewLiteral(types.Float(25)), fref(0))
	if !ProvablyEmpty(e, z) {
		t.Error("25 < col must prune a [10, 20] zone")
	}
	// 15 < col ⇔ col > 15: not empty.
	e = expr.NewBinary(expr.OpLt, expr.NewLiteral(types.Float(15)), fref(0))
	if ProvablyEmpty(e, z) {
		t.Error("15 < col must not prune a [10, 20] zone")
	}
}

// TestProvablyEmptyNaNGuards: NaN sorts below every number in the
// engine's total order, so a segment containing NaN satisfies col < lit
// for any literal — min-side pruning must be disabled by HasNaN while
// max-side pruning and equality stay sound.
func TestProvablyEmptyNaNGuards(t *testing.T) {
	z := zoneTable(10, 20, 100)
	z.Cols[0].HasNaN = true
	if ProvablyEmpty(cmp(expr.OpLt, 0, 5), z) {
		t.Error("col < 5 pruned a NaN-bearing zone: NaN < 5 is true in the total order")
	}
	if ProvablyEmpty(cmp(expr.OpLeq, 0, 5), z) {
		t.Error("col <= 5 pruned a NaN-bearing zone")
	}
	if !ProvablyEmpty(cmp(expr.OpGt, 0, 25), z) {
		t.Error("col > 25 must still prune: NaN never exceeds a finite literal")
	}
	if !ProvablyEmpty(cmp(expr.OpEq, 0, 5), z) {
		t.Error("col = 5 must still prune: NaN never equals a finite literal")
	}
	// A NaN literal proves nothing.
	if ProvablyEmpty(cmp(expr.OpLt, 0, math.NaN()), z) {
		t.Error("NaN literal must never prune")
	}
}

// TestProvablyEmptyNullAndNonNumeric: an all-NULL column never passes a
// comparison (NULL-valued predicate), so it prunes; a non-numeric column
// must never prune, since a mixed-kind comparison errors at runtime and
// pruning would swallow the error.
func TestProvablyEmptyNullAndNonNumeric(t *testing.T) {
	allNull := &Table{Rows: 10, Cols: []Column{{
		Min: math.Inf(1), Max: math.Inf(-1), Numeric: true, NullFraction: 1,
	}}}
	if !ProvablyEmpty(lt(0, 5), allNull) {
		t.Error("an all-NULL column must prune any comparison")
	}
	nonNum := &Table{Rows: 10, Cols: []Column{{Numeric: false}}}
	if ProvablyEmpty(lt(0, 1e18), nonNum) {
		t.Error("a non-numeric column must never prune (comparison may error)")
	}
	empty := zoneTable(10, 20, 0)
	if ProvablyEmpty(lt(0, 5), empty) {
		t.Error("a zero-row sketch proves nothing")
	}
}

// TestProvablyEmptyConnectives: AND prunes when either side does, OR only
// when both do; IsNull prunes against a null-free column and its negation
// against an all-NULL one.
func TestProvablyEmptyConnectives(t *testing.T) {
	z := zoneTable(10, 20, 100)
	emptyCmp := cmp(expr.OpLt, 0, 5)
	liveCmp := cmp(expr.OpLt, 0, 15)
	and := expr.NewBinary(expr.OpAnd, liveCmp, emptyCmp)
	if !ProvablyEmpty(and, z) {
		t.Error("AND with one empty side must prune")
	}
	orBoth := expr.NewBinary(expr.OpOr, emptyCmp, cmp(expr.OpGt, 0, 25))
	if !ProvablyEmpty(orBoth, z) {
		t.Error("OR of two empty sides must prune")
	}
	orHalf := expr.NewBinary(expr.OpOr, emptyCmp, liveCmp)
	if ProvablyEmpty(orHalf, z) {
		t.Error("OR with one live side must not prune")
	}
	if !ProvablyEmpty(expr.NewIsNull(fref(0), false), z) {
		t.Error("IS NULL must prune a null-free zone")
	}
}

// TestProvablyEmptyUlpMargin: literals within a couple of ulps of the
// zone bound must not prune — the footer's float64 bounds are exact here,
// but the margin guards against any representation drift.
func TestProvablyEmptyUlpMargin(t *testing.T) {
	min := 10.0
	z := zoneTable(min, 20, 100)
	justBelow := math.Nextafter(min, math.Inf(-1))
	if ProvablyEmpty(cmp(expr.OpLt, 0, justBelow), z) {
		t.Error("a literal one ulp below min must stay un-pruned inside the safety margin")
	}
}

// TestProvablyFullMatchesRows: whenever ProvablyFull says a comparison
// keeps every row of a sketch, the boxed evaluation keeps every row. It
// walks every operator, with the literal on either side, over columns
// that put a literal on the zone's min or max, hold one NULL or one NaN,
// reach ±Inf, mix -0 with +0, and hold integers at 2⁵³±1 — and it checks
// that the rule fires where it should, so the implication is not vacuous.
func TestProvablyFullMatchesRows(t *testing.T) {
	big := types.MaxExactFloatInt
	negZero := math.Copysign(0, -1)
	columns := map[string][]types.Value{
		"range":   {types.Float(10), types.Float(15), types.Float(20)},
		"null":    {types.Float(10), types.Null, types.Float(20)},
		"nan":     {types.Float(10), types.Float(math.NaN()), types.Float(20)},
		"inf":     {types.Float(math.Inf(-1)), types.Float(0), types.Float(math.Inf(1))},
		"zeros":   {types.Float(negZero), types.Float(0)},
		"negzero": {types.Float(negZero)},
		"const":   {types.Int(5), types.Int(5)},
		"big":     {types.Int(big - 1), types.Int(big), types.Int(big + 1)},
		"bigonly": {types.Int(big + 1), types.Int(big + 3)},
		"mixed":   {types.Int(1), types.Float(2.5)},
	}
	lits := []types.Value{
		types.Float(10), types.Float(20), types.Float(15), types.Float(5), types.Float(25),
		types.Float(negZero), types.Float(0), types.Int(0), types.Int(5), types.Float(5),
		types.Float(math.Inf(1)), types.Float(math.Inf(-1)), types.Float(2.5), types.Int(1),
		types.Int(big - 1), types.Int(big), types.Int(big + 1), types.Int(big + 2), types.Int(big + 3),
		types.Float(float64(big)), types.Float(math.NaN()),
	}
	ops := []expr.BinaryOp{expr.OpEq, expr.OpNeq, expr.OpLt, expr.OpLeq, expr.OpGt, expr.OpGeq}
	fired := map[string]bool{}
	for name, vals := range columns {
		rows := make([]types.Row, len(vals))
		for i, v := range vals {
			rows[i] = types.Row{v}
		}
		sketch := Sketch(rows, 1)
		ref := expr.NewBoundRef(0, "c", vals[0].Kind(), name == "null")
		for _, op := range ops {
			for _, lit := range lits {
				for _, e := range []expr.Expr{
					expr.NewBinary(op, ref, expr.NewLiteral(lit)),
					expr.NewBinary(op, expr.NewLiteral(lit), ref),
				} {
					if !ProvablyFull(e, sketch) {
						continue
					}
					fired[fmt.Sprintf("%s %s", name, e)] = true
					for _, row := range rows {
						if ok, err := expr.EvalPredicate(e, row); err != nil || !ok {
							t.Fatalf("%s over %s: ProvablyFull, but row %v evaluates %v (%v)", e, name, row, ok, err)
						}
					}
				}
			}
		}
	}
	for _, want := range []string{
		"range (c#0 < 25.0)", "range (c#0 >= 5)", "range (5 < c#0)", "range (c#0 <> 25.0)",
		"nan (c#0 < 25.0)", "nan (c#0 <> 5)", "const (c#0 = 5)", "negzero (c#0 = 0)",
		"zeros (c#0 < 5)", "bigonly (c#0 > 5)", "big (c#0 >= 5)",
	} {
		if !fired[want] {
			t.Errorf("ProvablyFull did not fire on %s", want)
		}
	}
	for key := range fired {
		if strings.HasPrefix(key, "null ") {
			t.Errorf("ProvablyFull fired on a column with a NULL: %s", key)
		}
	}
}

// TestProvablyFullConnectives: AND is full when both sides are, OR when
// either is; IS NOT NULL is full on a null-free column, IS NULL on an
// all-NULL one, and a TRUE literal always.
func TestProvablyFullConnectives(t *testing.T) {
	z := zoneTable(10, 20, 100)
	full, live := cmp(expr.OpLt, 0, 25), cmp(expr.OpLt, 0, 15)
	if !ProvablyFull(expr.NewBinary(expr.OpAnd, full, cmp(expr.OpGt, 0, 5)), z) {
		t.Error("AND of two full sides must be full")
	}
	if ProvablyFull(expr.NewBinary(expr.OpAnd, full, live), z) {
		t.Error("AND with a live side must not be full")
	}
	if !ProvablyFull(expr.NewBinary(expr.OpOr, live, full), z) {
		t.Error("OR with a full side must be full")
	}
	if !ProvablyFull(expr.NewIsNull(fref(0), true), z) || ProvablyFull(expr.NewIsNull(fref(0), false), z) {
		t.Error("IS NOT NULL must be full on a null-free zone, IS NULL must not")
	}
	if !ProvablyFull(expr.NewLiteral(types.Bool(true)), z) || ProvablyFull(expr.NewLiteral(types.Bool(false)), z) {
		t.Error("TRUE is full, FALSE is not")
	}
	if ProvablyFull(full, zoneTable(10, 20, 0)) || ProvablyFull(full, nil) {
		t.Error("an empty or missing sketch proves nothing")
	}
}
