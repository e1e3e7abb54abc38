package sql

import (
	"fmt"
	"strings"

	"skysql/internal/expr"
	"skysql/internal/types"
)

// SelectStmt is the AST of a SELECT statement, including the optional
// skyline clause.
type SelectStmt struct {
	Distinct bool
	Items    []expr.Expr // projection list; may contain *expr.Star, *expr.Alias
	From     TableRef
	Where    expr.Expr // nil when absent
	GroupBy  []expr.Expr
	Having   expr.Expr // nil when absent
	Skyline  *SkylineClause
	OrderBy  []OrderItem
	Limit    int64 // -1 when absent
}

// SkylineClause is the parsed `SKYLINE OF [DISTINCT] [COMPLETE] dims` clause.
type SkylineClause struct {
	Distinct bool
	Complete bool
	Dims     []*expr.SkylineDimension
}

// String renders the clause back to SQL.
func (s *SkylineClause) String() string {
	var sb strings.Builder
	sb.WriteString("SKYLINE OF ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	if s.Complete {
		sb.WriteString("COMPLETE ")
	}
	parts := make([]string, len(s.Dims))
	for i, d := range s.Dims {
		parts[i] = d.String()
	}
	sb.WriteString(strings.Join(parts, ", "))
	return sb.String()
}

// OrderItem is one ORDER BY element.
type OrderItem struct {
	E    expr.Expr
	Desc bool
}

// TableRef is a node of the FROM clause.
type TableRef interface {
	tableRef()
	String() string
}

// TableName references a catalog table, optionally aliased.
type TableName struct {
	Name  string
	Alias string
}

func (*TableName) tableRef() {}

func (t *TableName) String() string {
	if t.Alias != "" {
		return expr.Ident(t.Name) + " AS " + expr.Ident(t.Alias)
	}
	return expr.Ident(t.Name)
}

// Binding returns the qualifier the table contributes to the namespace.
func (t *TableName) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// SubqueryRef is a derived table: (SELECT ...) alias.
type SubqueryRef struct {
	Select *SelectStmt
	Alias  string
}

func (*SubqueryRef) tableRef() {}

func (s *SubqueryRef) String() string { return "(subquery) AS " + expr.Ident(s.Alias) }

// JoinType enumerates join flavours.
type JoinType int

// Join types.
const (
	JoinInner JoinType = iota
	JoinLeftOuter
	JoinRightOuter
	JoinCross
)

// String returns the SQL name of the join type.
func (j JoinType) String() string {
	switch j {
	case JoinInner:
		return "INNER JOIN"
	case JoinLeftOuter:
		return "LEFT OUTER JOIN"
	case JoinRightOuter:
		return "RIGHT OUTER JOIN"
	case JoinCross:
		return "CROSS JOIN"
	}
	return "JOIN"
}

// JoinRef is a join between two table references with either an ON
// predicate or a USING column list.
type JoinRef struct {
	Type  JoinType
	Left  TableRef
	Right TableRef
	On    expr.Expr // nil for USING/CROSS
	Using []string  // nil for ON/CROSS
}

func (*JoinRef) tableRef() {}

func (j *JoinRef) String() string {
	s := fmt.Sprintf("%s %s %s", j.Left, j.Type, j.Right)
	switch {
	case j.On != nil:
		s += " ON " + j.On.String()
	case len(j.Using) > 0:
		s += " USING (" + identList(j.Using) + ")"
	}
	return s
}

// Exists is an EXISTS/NOT EXISTS subquery predicate appearing in WHERE or
// HAVING. It implements expr.Expr so it can sit inside predicate trees; it
// is decorrelated into an anti/semi join by the plan builder and therefore
// never evaluated directly.
type Exists struct {
	Subquery *SelectStmt
	Negated  bool
}

// Eval always errors: Exists must be planned as a join.
func (e *Exists) Eval(types.Row) (types.Value, error) {
	return types.Null, fmt.Errorf("sql: EXISTS must be planned as a semi/anti join")
}

func (e *Exists) String() string {
	body := "EXISTS(" + e.Subquery.String() + ")"
	if e.Negated {
		return "NOT " + body
	}
	return body
}

func (e *Exists) Children() []expr.Expr              { return nil }
func (e *Exists) WithChildren([]expr.Expr) expr.Expr { return e }
func (e *Exists) Resolved() bool                     { return false }
func (e *Exists) DataType() types.Kind               { return types.KindBool }
func (e *Exists) Nullable() bool                     { return false }
