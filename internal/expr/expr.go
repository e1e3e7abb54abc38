// Package expr implements the expression trees evaluated by the engine:
// column references, literals, arithmetic/comparison/boolean operators,
// scalar functions, aggregate functions, and — following the paper — skyline
// dimension expressions that wrap an arbitrary child expression together
// with a MIN/MAX/DIFF direction.
//
// Expressions follow Spark's two-phase model: the parser produces
// *unresolved* Column nodes; the analyzer rewrites them into *bound*
// ordinal references against the child plan's schema. Only fully resolved
// trees can be evaluated.
package expr

import (
	"fmt"
	"strings"
	"unicode"

	"skysql/internal/types"
)

// Expr is a node in an expression tree.
type Expr interface {
	// Eval evaluates the expression against a row. Calling Eval on an
	// unresolved expression returns an error.
	Eval(row types.Row) (types.Value, error)
	// String renders the expression as SQL-ish text. Two expressions with
	// equal String() are treated as semantically equal by the analyzer.
	String() string
	// Children returns the direct sub-expressions.
	Children() []Expr
	// WithChildren returns a copy of the node with the children replaced.
	// len(children) must match len(Children()).
	WithChildren(children []Expr) Expr
	// Resolved reports whether the node and all children are resolved.
	Resolved() bool
	// DataType returns the result kind, or types.KindNull when unknown.
	DataType() types.Kind
	// Nullable reports whether the expression may evaluate to NULL.
	Nullable() bool
}

// Transform rewrites an expression bottom-up: children first, then the node
// itself is passed to fn. fn may return the node unchanged.
func Transform(e Expr, fn func(Expr) Expr) Expr {
	children := e.Children()
	if len(children) > 0 {
		newChildren := make([]Expr, len(children))
		changed := false
		for i, c := range children {
			newChildren[i] = Transform(c, fn)
			if newChildren[i] != c {
				changed = true
			}
		}
		if changed {
			e = e.WithChildren(newChildren)
		}
	}
	return fn(e)
}

// Walk visits every node of the tree in pre-order.
func Walk(e Expr, fn func(Expr)) {
	fn(e)
	for _, c := range e.Children() {
		Walk(c, fn)
	}
}

// ContainsAggregate reports whether the tree contains an Aggregate node.
func ContainsAggregate(e Expr) bool {
	found := false
	Walk(e, func(n Expr) {
		if _, ok := n.(*Aggregate); ok {
			found = true
		}
	})
	return found
}

// allResolved reports whether every expression in the slice is resolved.
func allResolved(es []Expr) bool {
	for _, e := range es {
		if !e.Resolved() {
			return false
		}
	}
	return true
}

// keywords are the SQL dialect's reserved words (matched case-insensitively
// on unquoted identifiers). They live here, beside the renderers, so that
// a name that is one renders quoted.
var keywords = map[string]bool{
	"select": true, "distinct": true, "from": true, "where": true,
	"group": true, "by": true, "having": true, "order": true, "limit": true,
	"asc": true, "desc": true, "and": true, "or": true, "not": true,
	"exists": true, "is": true, "null": true, "true": true, "false": true,
	"join": true, "inner": true, "left": true, "right": true, "full": true,
	"outer": true, "cross": true, "on": true, "using": true, "as": true,
	"skyline": true, "of": true, "complete": true,
	"min": true, "max": true, "diff": true,
	"between": true, "in": true,
	"case": true, "when": true, "then": true, "else": true, "end": true,
}

// IsKeyword reports whether the identifier is a reserved word.
func IsKeyword(s string) bool { return keywords[strings.ToLower(s)] }

// Ident renders a column, qualifier, alias or table name so that the
// parser reads it back as the same name: bare when it is a plain
// lower-case identifier that is not a reserved word, double-quoted
// otherwise (back-quoted if it holds a double quote).
func Ident(name string) string {
	plain := name != "" && !IsKeyword(name) && strings.ToLower(name) == name
	for i, r := range name {
		if !(unicode.IsLetter(r) || r == '_' || (i > 0 && unicode.IsDigit(r))) {
			plain = false
			break
		}
	}
	switch {
	case plain:
		return name
	case strings.Contains(name, `"`):
		return "`" + name + "`"
	}
	return `"` + name + `"`
}

// Column is an unresolved column reference produced by the parser.
type Column struct {
	Qualifier string
	Name      string
}

// NewColumn creates an unresolved column reference.
func NewColumn(qualifier, name string) *Column {
	return &Column{Qualifier: strings.ToLower(qualifier), Name: strings.ToLower(name)}
}

func (c *Column) Eval(types.Row) (types.Value, error) {
	return types.Null, fmt.Errorf("expr: unresolved column %s", c)
}

func (c *Column) String() string {
	if c.Qualifier == "" {
		return Ident(c.Name)
	}
	return Ident(c.Qualifier) + "." + Ident(c.Name)
}

func (c *Column) Children() []Expr         { return nil }
func (c *Column) WithChildren([]Expr) Expr { return c }
func (c *Column) Resolved() bool           { return false }
func (c *Column) DataType() types.Kind     { return types.KindNull }
func (c *Column) Nullable() bool           { return true }

// BoundRef is a resolved reference to an ordinal of the input row.
type BoundRef struct {
	Index     int
	Name      string // display name, carried through for output schemas
	Qualifier string // table binding of the referenced field, if any
	Typ       types.Kind
	Null      bool
}

// NewBoundRef creates a resolved ordinal reference.
func NewBoundRef(index int, name string, typ types.Kind, nullable bool) *BoundRef {
	return &BoundRef{Index: index, Name: name, Typ: typ, Null: nullable}
}

func (b *BoundRef) Eval(row types.Row) (types.Value, error) {
	if b.Index < 0 || b.Index >= len(row) {
		return types.Null, fmt.Errorf("expr: bound ref #%d out of range for row of width %d", b.Index, len(row))
	}
	return row[b.Index], nil
}

func (b *BoundRef) String() string           { return fmt.Sprintf("%s#%d", b.Name, b.Index) }
func (b *BoundRef) Children() []Expr         { return nil }
func (b *BoundRef) WithChildren([]Expr) Expr { return b }
func (b *BoundRef) Resolved() bool           { return true }
func (b *BoundRef) DataType() types.Kind     { return b.Typ }
func (b *BoundRef) Nullable() bool           { return b.Null }

// Literal is a constant value.
type Literal struct {
	Value types.Value
}

// NewLiteral creates a literal expression.
func NewLiteral(v types.Value) *Literal { return &Literal{Value: v} }

func (l *Literal) Eval(types.Row) (types.Value, error) { return l.Value, nil }
func (l *Literal) String() string {
	if l.Value.Kind() == types.KindString {
		// Escape embedded quotes so the rendering re-parses.
		return "'" + strings.ReplaceAll(l.Value.AsString(), "'", "''") + "'"
	}
	if l.Value.Kind() == types.KindFloat {
		// A DOUBLE renders in a form that lexes as one: 1.0, not 1, which
		// would read back as BIGINT (and -0.0, not -0, which is 0). NaN and
		// ±Inf have no literal form and are left as they are.
		s := l.Value.String()
		if !strings.ContainsAny(s, ".eEnN") {
			s += ".0"
		}
		return s
	}
	return l.Value.String()
}
func (l *Literal) Children() []Expr         { return nil }
func (l *Literal) WithChildren([]Expr) Expr { return l }
func (l *Literal) Resolved() bool           { return true }
func (l *Literal) DataType() types.Kind     { return l.Value.Kind() }
func (l *Literal) Nullable() bool           { return l.Value.IsNull() }

// Alias names the result of a child expression (SELECT expr AS name). The
// optional Qualifier lets analyzer-generated aliases keep the table binding
// of the column they forward (used when desugaring USING joins).
type Alias struct {
	Child     Expr
	Name      string
	Qualifier string
}

// NewAlias wraps child under the given output name.
func NewAlias(child Expr, name string) *Alias {
	return &Alias{Child: child, Name: strings.ToLower(name)}
}

// NewQualifiedAlias wraps child under a name that keeps a table qualifier.
func NewQualifiedAlias(child Expr, qualifier, name string) *Alias {
	return &Alias{Child: child, Name: strings.ToLower(name), Qualifier: strings.ToLower(qualifier)}
}

func (a *Alias) Eval(row types.Row) (types.Value, error) { return a.Child.Eval(row) }
func (a *Alias) String() string                          { return a.Child.String() + " AS " + Ident(a.Name) }
func (a *Alias) Children() []Expr                        { return []Expr{a.Child} }
func (a *Alias) WithChildren(c []Expr) Expr {
	return &Alias{Child: c[0], Name: a.Name, Qualifier: a.Qualifier}
}
func (a *Alias) Resolved() bool       { return a.Child.Resolved() }
func (a *Alias) DataType() types.Kind { return a.Child.DataType() }
func (a *Alias) Nullable() bool       { return a.Child.Nullable() }

// Star is the `*` or `t.*` projection item. It is expanded by the analyzer
// and never evaluated.
type Star struct {
	Qualifier string
}

func (s *Star) Eval(types.Row) (types.Value, error) {
	return types.Null, fmt.Errorf("expr: star must be expanded by the analyzer")
}
func (s *Star) String() string {
	if s.Qualifier == "" {
		return "*"
	}
	return Ident(s.Qualifier) + ".*"
}
func (s *Star) Children() []Expr         { return nil }
func (s *Star) WithChildren([]Expr) Expr { return s }
func (s *Star) Resolved() bool           { return false }
func (s *Star) DataType() types.Kind     { return types.KindNull }
func (s *Star) Nullable() bool           { return true }

// OutputQualifier derives the table qualifier an expression contributes to
// a schema field (empty for computed expressions).
func OutputQualifier(e Expr) string {
	switch n := e.(type) {
	case *Alias:
		return n.Qualifier
	case *Column:
		return n.Qualifier
	case *BoundRef:
		return n.Qualifier
	case *SkylineDimension:
		return OutputQualifier(n.Child)
	}
	return ""
}

// OutputName derives the column name an expression contributes to a schema.
func OutputName(e Expr) string {
	switch n := e.(type) {
	case *Alias:
		return n.Name
	case *Column:
		return n.Name
	case *BoundRef:
		return n.Name
	case *SkylineDimension:
		return OutputName(n.Child)
	default:
		return strings.ToLower(e.String())
	}
}
