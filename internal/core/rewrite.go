package core

import (
	"fmt"
	"strings"

	"skysql/internal/expr"
	"skysql/internal/sql"
)

// RefDim is one skyline dimension of a reference rewriting.
type RefDim struct {
	Col string
	Dir expr.SkylineDir
}

// ReferenceRewrite generates the plain-SQL formulation of a skyline query
// (paper Listing 4): the outer query selects from the relation under alias
// o and eliminates dominated tuples with a NOT EXISTS subquery under alias
// i. relation may be a table name or a parenthesized subquery; selectList
// holds the output columns (empty means *).
//
// When incomplete is true the dominance conditions follow the
// incomplete-data definition of §3 — every comparison is restricted to
// dimensions where both tuples are non-NULL — via IS NULL escapes. With
// incomplete=false the generated SQL is byte-for-byte the shape of
// Listing 4.
func ReferenceRewrite(relation string, selectList []string, dims []RefDim, incomplete bool) string {
	sel := "*"
	if len(selectList) > 0 {
		sel = strings.Join(selectList, ", ")
	}
	var weak []string   // "at least as good" / DIFF-equality conjuncts
	var strict []string // "strictly better" disjuncts
	for _, d := range dims {
		i, o := "i."+expr.Ident(d.Col), "o."+expr.Ident(d.Col)
		var weakOp, strictOp string
		switch d.Dir {
		case expr.SkyMin:
			weakOp, strictOp = "<=", "<"
		case expr.SkyMax:
			weakOp, strictOp = ">=", ">"
		case expr.SkyDiff:
			weakOp = "="
		}
		if incomplete {
			guard := fmt.Sprintf("%s IS NULL OR %s IS NULL", i, o)
			weak = append(weak, fmt.Sprintf("(%s OR %s %s %s)", guard, i, weakOp, o))
			if strictOp != "" {
				strict = append(strict, fmt.Sprintf("(%s IS NOT NULL AND %s IS NOT NULL AND %s %s %s)", i, o, i, strictOp, o))
			}
		} else {
			weak = append(weak, fmt.Sprintf("%s %s %s", i, weakOp, o))
			if strictOp != "" {
				strict = append(strict, fmt.Sprintf("%s %s %s", i, strictOp, o))
			}
		}
	}
	cond := strings.Join(weak, " AND ")
	if len(strict) > 0 {
		cond += " AND (" + strings.Join(strict, " OR ") + ")"
	}
	return fmt.Sprintf("SELECT %s FROM %s AS o WHERE NOT EXISTS(SELECT * FROM %s AS i WHERE %s)",
		sel, relation, relation, cond)
}

// RewriteSkylineStatement converts a parsed skyline query of the simple
// shape SELECT cols FROM <table> [WHERE ...] SKYLINE OF dims into its plain-SQL
// reference formulation. WHERE conditions are folded into a derived table
// so they apply to both the outer and the inner relation, exactly as the
// paper's Listing 4 places "condition(s)" on both sides. incomplete
// selects the null-aware dominance conditions.
func RewriteSkylineStatement(query string, incomplete bool) (string, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return "", err
	}
	if stmt.Skyline == nil {
		return "", fmt.Errorf("core: query has no SKYLINE clause")
	}
	if len(stmt.GroupBy) > 0 || stmt.Having != nil {
		return "", fmt.Errorf("core: reference rewriting supports only SELECT-FROM-WHERE skyline queries; fold aggregates into a derived table")
	}
	var relation string
	switch from := stmt.From.(type) {
	case *sql.TableName:
		relation = expr.Ident(from.Name)
	case *sql.SubqueryRef:
		relation = "(" + from.Select.String() + ")"
	default:
		return "", fmt.Errorf("core: unsupported FROM shape %T", stmt.From)
	}
	dims := make([]RefDim, len(stmt.Skyline.Dims))
	for i, d := range stmt.Skyline.Dims {
		col, ok := d.Child.(*expr.Column)
		if !ok {
			return "", fmt.Errorf("core: reference rewriting requires plain column dimensions, got %s", d.Child)
		}
		dims[i] = RefDim{Col: col.Name, Dir: d.Dir}
	}
	var sel []string
	for _, it := range stmt.Items {
		switch e := it.(type) {
		case *expr.Star:
			// keep "*"
		case *expr.Column:
			sel = append(sel, expr.Ident(e.Name))
		case *expr.Alias:
			sel = append(sel, e.Child.String()+" AS "+expr.Ident(e.Name))
		default:
			sel = append(sel, it.String())
		}
	}
	rel := relation
	if stmt.Where != nil {
		rel = fmt.Sprintf("(SELECT * FROM %s WHERE %s)", relation, renderExpr(stmt.Where))
	}
	return ReferenceRewrite(rel, sel, dims, incomplete), nil
}

// renderExpr renders an unresolved expression back to parsable SQL.
func renderExpr(e expr.Expr) string { return e.String() }
