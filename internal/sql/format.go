package sql

import (
	"fmt"
	"strings"

	"skysql/internal/expr"
)

// String renders the statement back to parsable SQL. It is used by the
// reference-rewrite generator to place derived tables into the Listing 4
// template, and round-trips through Parse.
func (s *SelectStmt) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	items := make([]string, len(s.Items))
	for i, it := range s.Items {
		items[i] = it.String()
	}
	sb.WriteString(strings.Join(items, ", "))
	if s.From != nil {
		sb.WriteString(" FROM ")
		sb.WriteString(formatTableRef(s.From))
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		gs := make([]string, len(s.GroupBy))
		for i, g := range s.GroupBy {
			gs[i] = g.String()
		}
		sb.WriteString(" GROUP BY ")
		sb.WriteString(strings.Join(gs, ", "))
	}
	if s.Having != nil {
		sb.WriteString(" HAVING ")
		sb.WriteString(s.Having.String())
	}
	if s.Skyline != nil {
		sb.WriteString(" ")
		sb.WriteString(s.Skyline.String())
	}
	if len(s.OrderBy) > 0 {
		os := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			os[i] = o.E.String()
			if o.Desc {
				os[i] += " DESC"
			}
		}
		sb.WriteString(" ORDER BY ")
		sb.WriteString(strings.Join(os, ", "))
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
	}
	return sb.String()
}

func formatTableRef(r TableRef) string {
	switch t := r.(type) {
	case *TableName:
		return t.String()
	case *SubqueryRef:
		out := "(" + t.Select.String() + ")"
		if t.Alias != "" {
			out += " AS " + expr.Ident(t.Alias)
		}
		return out
	case *JoinRef:
		out := formatTableRef(t.Left)
		if t.Type == JoinCross && t.On == nil && len(t.Using) == 0 {
			return out + " CROSS JOIN " + formatTableRef(t.Right)
		}
		out += " " + t.Type.String() + " " + formatTableRef(t.Right)
		switch {
		case t.On != nil:
			out += " ON " + t.On.String()
		case len(t.Using) > 0:
			out += " USING (" + identList(t.Using) + ")"
		}
		return out
	}
	return fmt.Sprintf("<%T>", r)
}

// identList renders names as a comma-separated list of identifiers.
func identList(names []string) string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = expr.Ident(n)
	}
	return strings.Join(out, ", ")
}
