package expr

import (
	"fmt"
	"math"
	"strings"

	"skysql/internal/types"
)

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators.
const (
	OpAdd BinaryOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNeq
	OpLt
	OpLeq
	OpGt
	OpGeq
	OpAnd
	OpOr
)

var binaryOpNames = map[BinaryOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNeq: "<>", OpLt: "<", OpLeq: "<=", OpGt: ">", OpGeq: ">=",
	OpAnd: "AND", OpOr: "OR",
}

// String returns the SQL spelling of the operator.
func (op BinaryOp) String() string { return binaryOpNames[op] }

// IsComparison reports whether the operator is one of = <> < <= > >=.
func (op BinaryOp) IsComparison() bool { return op >= OpEq && op <= OpGeq }

// Mirrored returns the comparison that holds with the operands swapped
// (a < b ⇔ b > a); every other operator is returned unchanged.
func (op BinaryOp) Mirrored() BinaryOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLeq:
		return OpGeq
	case OpGt:
		return OpLt
	case OpGeq:
		return OpLeq
	}
	return op
}

// Binary applies a binary operator to two sub-expressions with SQL NULL
// semantics (three-valued logic for AND/OR; NULL-propagating otherwise).
type Binary struct {
	Op   BinaryOp
	L, R Expr
}

// NewBinary creates a binary expression.
func NewBinary(op BinaryOp, l, r Expr) *Binary { return &Binary{Op: op, L: l, R: r} }

func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

func (b *Binary) Children() []Expr { return []Expr{b.L, b.R} }
func (b *Binary) WithChildren(c []Expr) Expr {
	return &Binary{Op: b.Op, L: c[0], R: c[1]}
}
func (b *Binary) Resolved() bool { return b.L.Resolved() && b.R.Resolved() }

func (b *Binary) DataType() types.Kind {
	switch {
	case b.Op.IsComparison(), b.Op == OpAnd, b.Op == OpOr:
		return types.KindBool
	case b.L.DataType() == types.KindFloat || b.R.DataType() == types.KindFloat || b.Op == OpDiv:
		return types.KindFloat
	case b.L.DataType() == types.KindInt && b.R.DataType() == types.KindInt:
		return types.KindInt
	default:
		return types.KindFloat
	}
}

func (b *Binary) Nullable() bool { return b.L.Nullable() || b.R.Nullable() }

func (b *Binary) Eval(row types.Row) (types.Value, error) {
	if b.Op == OpAnd || b.Op == OpOr {
		return b.evalLogical(row)
	}
	lv, err := b.L.Eval(row)
	if err != nil {
		return types.Null, err
	}
	rv, err := b.R.Eval(row)
	if err != nil {
		return types.Null, err
	}
	if lv.IsNull() || rv.IsNull() {
		return types.Null, nil
	}
	if b.Op.IsComparison() {
		c, ok := types.CompareValues(lv, rv)
		if !ok {
			return types.Null, fmt.Errorf("expr: cannot compare %s and %s", lv.Kind(), rv.Kind())
		}
		switch b.Op {
		case OpEq:
			return types.Bool(c == 0), nil
		case OpNeq:
			return types.Bool(c != 0), nil
		case OpLt:
			return types.Bool(c < 0), nil
		case OpLeq:
			return types.Bool(c <= 0), nil
		case OpGt:
			return types.Bool(c > 0), nil
		case OpGeq:
			return types.Bool(c >= 0), nil
		}
	}
	return evalArith(b.Op, lv, rv)
}

// evalLogical implements SQL three-valued AND/OR with short-circuiting.
func (b *Binary) evalLogical(row types.Row) (types.Value, error) {
	lv, err := b.L.Eval(row)
	if err != nil {
		return types.Null, err
	}
	// Short-circuit.
	if !lv.IsNull() {
		lb, err := toBool(lv)
		if err != nil {
			return types.Null, err
		}
		if b.Op == OpAnd && !lb {
			return types.Bool(false), nil
		}
		if b.Op == OpOr && lb {
			return types.Bool(true), nil
		}
	}
	rv, err := b.R.Eval(row)
	if err != nil {
		return types.Null, err
	}
	if rv.IsNull() {
		// FALSE AND NULL handled above; TRUE AND NULL = NULL, etc.
		return types.Null, nil
	}
	rb, err := toBool(rv)
	if err != nil {
		return types.Null, err
	}
	if lv.IsNull() {
		// NULL AND FALSE = FALSE; NULL OR TRUE = TRUE; otherwise NULL.
		if b.Op == OpAnd && !rb {
			return types.Bool(false), nil
		}
		if b.Op == OpOr && rb {
			return types.Bool(true), nil
		}
		return types.Null, nil
	}
	return types.Bool(rb), nil
}

func toBool(v types.Value) (bool, error) {
	if v.Kind() != types.KindBool {
		return false, fmt.Errorf("expr: expected BOOLEAN, got %s", v.Kind())
	}
	return v.AsBool(), nil
}

func evalArith(op BinaryOp, lv, rv types.Value) (types.Value, error) {
	if !lv.IsNumeric() || !rv.IsNumeric() {
		return types.Null, fmt.Errorf("expr: arithmetic on non-numeric kinds %s, %s", lv.Kind(), rv.Kind())
	}
	intOp := lv.Kind() == types.KindInt && rv.Kind() == types.KindInt && op != OpDiv
	if intOp {
		a, c := lv.AsInt(), rv.AsInt()
		switch op {
		case OpAdd:
			return types.Int(a + c), nil
		case OpSub:
			return types.Int(a - c), nil
		case OpMul:
			return types.Int(a * c), nil
		case OpMod:
			if c == 0 {
				return types.Null, nil
			}
			return types.Int(a % c), nil
		}
	}
	a, c := lv.AsFloat(), rv.AsFloat()
	switch op {
	case OpAdd:
		return types.Float(a + c), nil
	case OpSub:
		return types.Float(a - c), nil
	case OpMul:
		return types.Float(a * c), nil
	case OpDiv:
		if c == 0 {
			return types.Null, nil
		}
		return types.Float(a / c), nil
	case OpMod:
		if c == 0 {
			return types.Null, nil
		}
		return types.Float(math.Mod(a, c)), nil
	}
	return types.Null, fmt.Errorf("expr: unsupported arithmetic operator %s", op)
}

// Not negates a boolean child with NULL propagation.
type Not struct {
	Child Expr
}

// NewNot creates a NOT expression.
func NewNot(child Expr) *Not { return &Not{Child: child} }

func (n *Not) Eval(row types.Row) (types.Value, error) {
	v, err := n.Child.Eval(row)
	if err != nil {
		return types.Null, err
	}
	if v.IsNull() {
		return types.Null, nil
	}
	b, err := toBool(v)
	if err != nil {
		return types.Null, err
	}
	return types.Bool(!b), nil
}

func (n *Not) String() string             { return "NOT " + n.Child.String() }
func (n *Not) Children() []Expr           { return []Expr{n.Child} }
func (n *Not) WithChildren(c []Expr) Expr { return &Not{Child: c[0]} }
func (n *Not) Resolved() bool             { return n.Child.Resolved() }
func (n *Not) DataType() types.Kind       { return types.KindBool }
func (n *Not) Nullable() bool             { return n.Child.Nullable() }

// Negate is unary minus.
type Negate struct {
	Child Expr
}

// NewNegate creates a unary-minus expression.
func NewNegate(child Expr) *Negate { return &Negate{Child: child} }

func (n *Negate) Eval(row types.Row) (types.Value, error) {
	v, err := n.Child.Eval(row)
	if err != nil || v.IsNull() {
		return types.Null, err
	}
	switch v.Kind() {
	case types.KindInt:
		return types.Int(-v.AsInt()), nil
	case types.KindFloat:
		return types.Float(-v.AsFloat()), nil
	}
	return types.Null, fmt.Errorf("expr: cannot negate %s", v.Kind())
}

func (n *Negate) String() string {
	s := n.Child.String()
	if strings.HasPrefix(s, "-") {
		return "- " + s // "--" would start a comment
	}
	return "-" + s
}
func (n *Negate) Children() []Expr           { return []Expr{n.Child} }
func (n *Negate) WithChildren(c []Expr) Expr { return &Negate{Child: c[0]} }
func (n *Negate) Resolved() bool             { return n.Child.Resolved() }
func (n *Negate) DataType() types.Kind       { return n.Child.DataType() }
func (n *Negate) Nullable() bool             { return n.Child.Nullable() }

// IsNull tests a child for NULL (IS NULL / IS NOT NULL). Never returns NULL
// itself. It is also the predicate the incomplete-data exchange uses to
// build the null bitmap (paper §5.7).
type IsNull struct {
	Child   Expr
	Negated bool // true for IS NOT NULL
}

// NewIsNull creates an IS [NOT] NULL predicate.
func NewIsNull(child Expr, negated bool) *IsNull {
	return &IsNull{Child: child, Negated: negated}
}

func (i *IsNull) Eval(row types.Row) (types.Value, error) {
	v, err := i.Child.Eval(row)
	if err != nil {
		return types.Null, err
	}
	return types.Bool(v.IsNull() != i.Negated), nil
}

func (i *IsNull) String() string {
	if i.Negated {
		return i.Child.String() + " IS NOT NULL"
	}
	return i.Child.String() + " IS NULL"
}
func (i *IsNull) Children() []Expr           { return []Expr{i.Child} }
func (i *IsNull) WithChildren(c []Expr) Expr { return &IsNull{Child: c[0], Negated: i.Negated} }
func (i *IsNull) Resolved() bool             { return i.Child.Resolved() }
func (i *IsNull) DataType() types.Kind       { return types.KindBool }
func (i *IsNull) Nullable() bool             { return false }

// SplitConjuncts flattens nested ANDs into a list of conjuncts.
func SplitConjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// JoinConjuncts combines predicates with AND; nil for an empty list.
func JoinConjuncts(es []Expr) Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = NewBinary(OpAnd, out, e)
	}
	return out
}

// EvalPredicate evaluates a boolean expression against a row; NULL counts
// as false (SQL WHERE semantics).
func EvalPredicate(e Expr, row types.Row) (bool, error) {
	v, err := e.Eval(row)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	return toBool(v)
}
