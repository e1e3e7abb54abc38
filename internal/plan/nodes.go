package plan

import (
	"fmt"
	"strings"

	"skysql/internal/catalog"
	"skysql/internal/expr"
	"skysql/internal/types"
)

// UnresolvedRelation is a table reference the analyzer has not yet looked
// up in the catalog.
type UnresolvedRelation struct {
	Name  string
	Alias string
}

// Binding returns the qualifier the relation will contribute.
func (u *UnresolvedRelation) Binding() string {
	if u.Alias != "" {
		return u.Alias
	}
	return u.Name
}

func (u *UnresolvedRelation) Schema() *types.Schema    { return types.NewSchema() }
func (u *UnresolvedRelation) Children() []Node         { return nil }
func (u *UnresolvedRelation) WithChildren([]Node) Node { return u }
func (u *UnresolvedRelation) Resolved() bool           { return false }
func (u *UnresolvedRelation) String() string {
	return fmt.Sprintf("UnresolvedRelation %s", (&UnresolvedRelation{Name: u.Name, Alias: u.Alias}).Binding())
}

// Scan reads a catalog table. The schema is qualified with the binding
// (alias or table name) so references like o.price resolve.
type Scan struct {
	Table   *catalog.Table
	Binding string
	// Version is the table's version when the scan was bound, read before
	// anything else of the table was: a plan built from this scan describes
	// the table no later than that.
	Version int64
	schema  *types.Schema
}

// NewScan creates a scan over a table under the given binding qualifier.
func NewScan(t *catalog.Table, binding string) *Scan {
	if binding == "" {
		binding = t.Name
	}
	return &Scan{Table: t, Binding: binding, Version: t.Version(), schema: t.Schema.WithQualifier(binding)}
}

func (s *Scan) Schema() *types.Schema    { return s.schema }
func (s *Scan) Children() []Node         { return nil }
func (s *Scan) WithChildren([]Node) Node { return s }
func (s *Scan) Resolved() bool           { return true }
func (s *Scan) String() string {
	return fmt.Sprintf("Scan %s AS %s (%d rows)", s.Table.Name, s.Binding, s.Table.RowCount())
}

// OneRow produces a single empty row; it is the child of FROM-less SELECTs.
type OneRow struct{}

func (o *OneRow) Schema() *types.Schema    { return types.NewSchema() }
func (o *OneRow) Children() []Node         { return nil }
func (o *OneRow) WithChildren([]Node) Node { return o }
func (o *OneRow) Resolved() bool           { return true }
func (o *OneRow) String() string           { return "OneRow" }

// Project evaluates a list of expressions over each input row.
type Project struct {
	Exprs []expr.Expr
	Child Node
}

// NewProject creates a projection.
func NewProject(exprs []expr.Expr, child Node) *Project {
	return &Project{Exprs: exprs, Child: child}
}

func (p *Project) Schema() *types.Schema { return schemaFromExprs(p.Exprs) }
func (p *Project) Children() []Node      { return []Node{p.Child} }
func (p *Project) WithChildren(c []Node) Node {
	return &Project{Exprs: p.Exprs, Child: c[0]}
}
func (p *Project) Resolved() bool {
	return exprsResolved(p.Exprs)
}
func (p *Project) String() string { return "Project [" + exprListString(p.Exprs) + "]" }

// Filter keeps rows for which the condition evaluates to TRUE. It serves
// both WHERE and HAVING clauses.
type Filter struct {
	Cond  expr.Expr
	Child Node
}

// NewFilter creates a filter.
func NewFilter(cond expr.Expr, child Node) *Filter { return &Filter{Cond: cond, Child: child} }

func (f *Filter) Schema() *types.Schema { return f.Child.Schema() }
func (f *Filter) Children() []Node      { return []Node{f.Child} }
func (f *Filter) WithChildren(c []Node) Node {
	return &Filter{Cond: f.Cond, Child: c[0]}
}
func (f *Filter) Resolved() bool { return f.Cond.Resolved() }
func (f *Filter) String() string { return "Filter " + f.Cond.String() }

// JoinType enumerates logical join flavours, including the semi/anti joins
// the NOT EXISTS reference rewrite decorrelates into.
type JoinType int

// Logical join types.
const (
	InnerJoin JoinType = iota
	LeftOuterJoin
	RightOuterJoin
	CrossJoin
	LeftSemiJoin
	LeftAntiJoin
)

// String returns the join type name.
func (j JoinType) String() string {
	switch j {
	case InnerJoin:
		return "Inner"
	case LeftOuterJoin:
		return "LeftOuter"
	case RightOuterJoin:
		return "RightOuter"
	case CrossJoin:
		return "Cross"
	case LeftSemiJoin:
		return "LeftSemi"
	case LeftAntiJoin:
		return "LeftAnti"
	}
	return "?"
}

// Join combines two inputs. Using is the not-yet-desugared USING column
// list; the analyzer rewrites it into an ON condition plus a projection.
type Join struct {
	Type  JoinType
	Left  Node
	Right Node
	Cond  expr.Expr // nil for cross joins
	Using []string
}

// NewJoin creates a join node.
func NewJoin(jt JoinType, left, right Node, cond expr.Expr) *Join {
	return &Join{Type: jt, Left: left, Right: right, Cond: cond}
}

func (j *Join) Schema() *types.Schema {
	switch j.Type {
	case LeftSemiJoin, LeftAntiJoin:
		return j.Left.Schema()
	}
	left := j.Left.Schema()
	right := j.Right.Schema()
	if j.Type == LeftOuterJoin {
		right = nullableCopy(right)
	}
	if j.Type == RightOuterJoin {
		left = nullableCopy(left)
	}
	return left.Concat(right)
}

func nullableCopy(s *types.Schema) *types.Schema {
	out := &types.Schema{Fields: make([]types.Field, len(s.Fields))}
	copy(out.Fields, s.Fields)
	for i := range out.Fields {
		out.Fields[i].Nullable = true
	}
	return out
}

func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }
func (j *Join) WithChildren(c []Node) Node {
	return &Join{Type: j.Type, Left: c[0], Right: c[1], Cond: j.Cond, Using: j.Using}
}
func (j *Join) Resolved() bool {
	if len(j.Using) > 0 {
		return false // must be desugared first
	}
	return j.Cond == nil || j.Cond.Resolved()
}
func (j *Join) String() string {
	s := fmt.Sprintf("Join %s", j.Type)
	if j.Cond != nil {
		s += " ON " + j.Cond.String()
	}
	if len(j.Using) > 0 {
		s += " USING (" + strings.Join(j.Using, ", ") + ")"
	}
	return s
}

// Aggregate groups the input by the grouping expressions and computes the
// output expressions, which may contain expr.Aggregate calls (Spark's
// aggregateExpressions). With no grouping expressions it is a global
// aggregation producing one row.
type Aggregate struct {
	Groups  []expr.Expr
	Outputs []expr.Expr
	Child   Node
}

// NewAggregate creates an aggregation node.
func NewAggregate(groups, outputs []expr.Expr, child Node) *Aggregate {
	return &Aggregate{Groups: groups, Outputs: outputs, Child: child}
}

func (a *Aggregate) Schema() *types.Schema { return schemaFromExprs(a.Outputs) }
func (a *Aggregate) Children() []Node      { return []Node{a.Child} }
func (a *Aggregate) WithChildren(c []Node) Node {
	return &Aggregate{Groups: a.Groups, Outputs: a.Outputs, Child: c[0]}
}
func (a *Aggregate) Resolved() bool {
	return exprsResolved(a.Groups) && exprsResolved(a.Outputs)
}
func (a *Aggregate) String() string {
	return fmt.Sprintf("Aggregate groups=[%s] outputs=[%s]",
		exprListString(a.Groups), exprListString(a.Outputs))
}

// SkylineOperator is the logical node of the paper (§5.2): a single node
// with a single child, carrying the skyline dimensions and the DISTINCT /
// COMPLETE flags from the SKYLINE OF clause.
type SkylineOperator struct {
	Distinct bool
	Complete bool
	Dims     []*expr.SkylineDimension
	Child    Node
}

// NewSkylineOperator creates a skyline node.
func NewSkylineOperator(distinct, complete bool, dims []*expr.SkylineDimension, child Node) *SkylineOperator {
	return &SkylineOperator{Distinct: distinct, Complete: complete, Dims: dims, Child: child}
}

func (s *SkylineOperator) Schema() *types.Schema { return s.Child.Schema() }
func (s *SkylineOperator) Children() []Node      { return []Node{s.Child} }
func (s *SkylineOperator) WithChildren(c []Node) Node {
	return &SkylineOperator{Distinct: s.Distinct, Complete: s.Complete, Dims: s.Dims, Child: c[0]}
}
func (s *SkylineOperator) Resolved() bool {
	for _, d := range s.Dims {
		if !d.Resolved() {
			return false
		}
	}
	return true
}
func (s *SkylineOperator) String() string {
	var flags []string
	if s.Distinct {
		flags = append(flags, "DISTINCT")
	}
	if s.Complete {
		flags = append(flags, "COMPLETE")
	}
	fl := ""
	if len(flags) > 0 {
		fl = " " + strings.Join(flags, " ")
	}
	return fmt.Sprintf("Skyline%s [%s]", fl, exprListString(s.Dims))
}

// MissingInput returns the skyline-dimension column names that the child
// schema does not provide (paper Listing 6's missingInput).
func (s *SkylineOperator) MissingInput() []string {
	var missing []string
	child := s.Child.Schema()
	for _, d := range s.Dims {
		expr.Walk(d, func(e expr.Expr) {
			if c, ok := e.(*expr.Column); ok {
				if _, err := child.Resolve(c.Qualifier, c.Name); err != nil {
					missing = append(missing, c.String())
				}
			}
		})
	}
	return missing
}

// SortOrder is one ORDER BY key.
type SortOrder struct {
	E    expr.Expr
	Desc bool
}

// String renders the sort key.
func (o SortOrder) String() string {
	if o.Desc {
		return o.E.String() + " DESC"
	}
	return o.E.String() + " ASC"
}

// Sort orders the input by the given keys (NULLs first on ASC, mirroring
// NULLS FIRST semantics).
type Sort struct {
	Orders []SortOrder
	Child  Node
}

// NewSort creates a sort node.
func NewSort(orders []SortOrder, child Node) *Sort { return &Sort{Orders: orders, Child: child} }

func (s *Sort) Schema() *types.Schema { return s.Child.Schema() }
func (s *Sort) Children() []Node      { return []Node{s.Child} }
func (s *Sort) WithChildren(c []Node) Node {
	return &Sort{Orders: s.Orders, Child: c[0]}
}
func (s *Sort) Resolved() bool {
	for _, o := range s.Orders {
		if !o.E.Resolved() {
			return false
		}
	}
	return true
}
func (s *Sort) String() string { return "Sort [" + exprListString(s.Orders) + "]" }

// Limit keeps the first N rows.
type Limit struct {
	N     int64
	Child Node
}

// NewLimit creates a limit node.
func NewLimit(n int64, child Node) *Limit { return &Limit{N: n, Child: child} }

func (l *Limit) Schema() *types.Schema      { return l.Child.Schema() }
func (l *Limit) Children() []Node           { return []Node{l.Child} }
func (l *Limit) WithChildren(c []Node) Node { return &Limit{N: l.N, Child: c[0]} }
func (l *Limit) Resolved() bool             { return true }
func (l *Limit) String() string             { return fmt.Sprintf("Limit %d", l.N) }

// Distinct removes duplicate rows (SELECT DISTINCT).
type Distinct struct {
	Child Node
}

// NewDistinct creates a distinct node.
func NewDistinct(child Node) *Distinct { return &Distinct{Child: child} }

func (d *Distinct) Schema() *types.Schema      { return d.Child.Schema() }
func (d *Distinct) Children() []Node           { return []Node{d.Child} }
func (d *Distinct) WithChildren(c []Node) Node { return &Distinct{Child: c[0]} }
func (d *Distinct) Resolved() bool             { return true }
func (d *Distinct) String() string             { return "Distinct" }

// SubqueryAlias names a derived table; the analyzer re-qualifies the
// child's schema under the alias.
type SubqueryAlias struct {
	Alias string
	Child Node
}

// NewSubqueryAlias creates a derived-table alias node.
func NewSubqueryAlias(alias string, child Node) *SubqueryAlias {
	return &SubqueryAlias{Alias: strings.ToLower(alias), Child: child}
}

func (s *SubqueryAlias) Schema() *types.Schema {
	if s.Alias == "" {
		return s.Child.Schema()
	}
	return s.Child.Schema().WithQualifier(s.Alias)
}
func (s *SubqueryAlias) Children() []Node { return []Node{s.Child} }
func (s *SubqueryAlias) WithChildren(c []Node) Node {
	return &SubqueryAlias{Alias: s.Alias, Child: c[0]}
}
func (s *SubqueryAlias) Resolved() bool { return true }
func (s *SubqueryAlias) String() string { return "SubqueryAlias " + s.Alias }

// schemaFromExprs derives an output schema from projection expressions.
func schemaFromExprs(exprs []expr.Expr) *types.Schema {
	fields := make([]types.Field, 0, len(exprs))
	for _, e := range exprs {
		fields = append(fields, types.Field{
			Name:      expr.OutputName(e),
			Qualifier: expr.OutputQualifier(e),
			Type:      e.DataType(),
			Nullable:  e.Nullable(),
		})
	}
	return types.NewSchema(fields...)
}

func exprsResolved(es []expr.Expr) bool {
	for _, e := range es {
		if !e.Resolved() {
			return false
		}
	}
	return true
}

// ExtremumFilter keeps the rows attaining the minimum (or maximum) of one
// expression. It is the plan the optimizer's single-dimension skyline
// rewrite produces (§5.4): an O(n) scalar-extremum pass followed by an
// O(n) selection, preferred by the paper over sort-and-take.
type ExtremumFilter struct {
	E     expr.Expr
	Max   bool
	Child Node
}

// NewExtremumFilter creates an extremum filter.
func NewExtremumFilter(e expr.Expr, max bool, child Node) *ExtremumFilter {
	return &ExtremumFilter{E: e, Max: max, Child: child}
}

func (x *ExtremumFilter) Schema() *types.Schema { return x.Child.Schema() }
func (x *ExtremumFilter) Children() []Node      { return []Node{x.Child} }
func (x *ExtremumFilter) WithChildren(c []Node) Node {
	return &ExtremumFilter{E: x.E, Max: x.Max, Child: c[0]}
}
func (x *ExtremumFilter) Resolved() bool { return x.E.Resolved() }
func (x *ExtremumFilter) String() string {
	dir := "MIN"
	if x.Max {
		dir = "MAX"
	}
	return fmt.Sprintf("ExtremumFilter %s(%s)", dir, x.E)
}
