package sql

import (
	"fmt"
	"strconv"
	"strings"

	"skysql/internal/expr"
	"skysql/internal/types"
)

// Parser turns a token stream into an AST.
type Parser struct {
	toks []Token
	pos  int
}

// Parse parses a single SELECT statement (an optional trailing semicolon is
// allowed).
func Parse(src string) (*SelectStmt, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	p.acceptOp(";")
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.cur().Text)
	}
	return stmt, nil
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) atEOF() bool { return p.cur().Type == tokEOF }

func (p *Parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: parse error at offset %d: %s", p.cur().Pos, fmt.Sprintf(format, args...))
}

// acceptKeyword consumes the given keyword if present.
func (p *Parser) acceptKeyword(kw string) bool {
	if p.cur().Type == tokIdent && !p.cur().Quoted && p.cur().Text == kw {
		p.pos++
		return true
	}
	return false
}

// expectKeyword consumes the keyword or errors.
func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %q", strings.ToUpper(kw), p.cur().Text)
	}
	return nil
}

// acceptOp consumes the symbolic token if present.
func (p *Parser) acceptOp(op string) bool {
	if p.cur().Type == tokOp && p.cur().Text == op {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errorf("expected %q, found %q", op, p.cur().Text)
	}
	return nil
}

// peekKeyword reports whether the current token is the given keyword.
func (p *Parser) peekKeyword(kw string) bool {
	return p.cur().Type == tokIdent && !p.cur().Quoted && p.cur().Text == kw
}

// identifier consumes a non-reserved identifier.
func (p *Parser) identifier() (string, error) {
	t := p.cur()
	if t.Type != tokIdent {
		return "", p.errorf("expected identifier, found %q", t.Text)
	}
	if expr.IsKeyword(t.Text) && !t.Quoted {
		return "", p.errorf("reserved word %q cannot be used as an identifier", t.Text)
	}
	p.pos++
	return t.Text, nil
}

// parseSelect parses SELECT ... [skyline] [order by] [limit].
func (p *Parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	stmt.Distinct = p.acceptKeyword("distinct")

	// Projection list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}

	if p.acceptKeyword("from") {
		from, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		stmt.From = from
	}

	if p.acceptKeyword("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}

	if p.acceptKeyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}

	if p.acceptKeyword("having") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
	}

	if p.peekKeyword("skyline") {
		sc, err := p.parseSkylineClause()
		if err != nil {
			return nil, err
		}
		stmt.Skyline = sc
	}

	if p.acceptKeyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{E: e}
			if p.acceptKeyword("desc") {
				item.Desc = true
			} else {
				p.acceptKeyword("asc")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}

	if p.acceptKeyword("limit") {
		t := p.cur()
		if t.Type != tokNumber {
			return nil, p.errorf("expected LIMIT count, found %q", t.Text)
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errorf("invalid LIMIT %q", t.Text)
		}
		p.pos++
		stmt.Limit = n
	}
	return stmt, nil
}

// parseSkylineClause parses the paper's grammar (Listing 5):
//
//	SKYLINE OF [DISTINCT] [COMPLETE] item (',' item)*
//	item: expression (MIN | MAX | DIFF)
func (p *Parser) parseSkylineClause() (*SkylineClause, error) {
	if err := p.expectKeyword("skyline"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("of"); err != nil {
		return nil, err
	}
	sc := &SkylineClause{}
	sc.Distinct = p.acceptKeyword("distinct")
	sc.Complete = p.acceptKeyword("complete")
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		var dir expr.SkylineDir
		switch {
		case p.acceptKeyword("min"):
			dir = expr.SkyMin
		case p.acceptKeyword("max"):
			dir = expr.SkyMax
		case p.acceptKeyword("diff"):
			dir = expr.SkyDiff
		default:
			return nil, p.errorf("skyline dimension %s must be followed by MIN, MAX or DIFF", e)
		}
		sc.Dims = append(sc.Dims, expr.NewSkylineDimension(e, dir))
		if !p.acceptOp(",") {
			break
		}
	}
	return sc, nil
}

// parseSelectItem parses one projection item: *, t.*, or expr [AS alias].
func (p *Parser) parseSelectItem() (expr.Expr, error) {
	if p.acceptOp("*") {
		return &expr.Star{}, nil
	}
	// t.* lookahead
	if p.cur().Type == tokIdent && (p.cur().Quoted || !expr.IsKeyword(p.cur().Text)) &&
		p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Type == tokOp && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Type == tokOp && p.toks[p.pos+2].Text == "*" {
		q := p.cur().Text
		p.pos += 3
		return &expr.Star{Qualifier: q}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("as") {
		name, err := p.identifier()
		if err != nil {
			return nil, err
		}
		return expr.NewAlias(e, name), nil
	}
	// Implicit alias: expr name
	if p.cur().Type == tokIdent && (p.cur().Quoted || !expr.IsKeyword(p.cur().Text)) {
		name := p.cur().Text
		p.pos++
		return expr.NewAlias(e, name), nil
	}
	return e, nil
}

// parseTableRef parses a FROM item with any number of joins.
func (p *Parser) parseTableRef() (TableRef, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		jt, isJoin, err := p.parseJoinType()
		if err != nil {
			return nil, err
		}
		if !isJoin {
			// Comma-style cross join.
			if p.acceptOp(",") {
				right, err := p.parseTablePrimary()
				if err != nil {
					return nil, err
				}
				left = &JoinRef{Type: JoinCross, Left: left, Right: right}
				continue
			}
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		j := &JoinRef{Type: jt, Left: left, Right: right}
		switch {
		case jt == JoinCross:
			// no condition
		case p.acceptKeyword("on"):
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			j.On = cond
		case p.acceptKeyword("using"):
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			for {
				col, err := p.identifier()
				if err != nil {
					return nil, err
				}
				j.Using = append(j.Using, col)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		default:
			return nil, p.errorf("%s requires ON or USING", jt)
		}
		left = j
	}
}

// parseJoinType consumes a join-type prefix if one is present.
func (p *Parser) parseJoinType() (JoinType, bool, error) {
	switch {
	case p.acceptKeyword("join"):
		return JoinInner, true, nil
	case p.acceptKeyword("inner"):
		if err := p.expectKeyword("join"); err != nil {
			return 0, false, err
		}
		return JoinInner, true, nil
	case p.acceptKeyword("left"):
		p.acceptKeyword("outer")
		if err := p.expectKeyword("join"); err != nil {
			return 0, false, err
		}
		return JoinLeftOuter, true, nil
	case p.acceptKeyword("right"):
		p.acceptKeyword("outer")
		if err := p.expectKeyword("join"); err != nil {
			return 0, false, err
		}
		return JoinRightOuter, true, nil
	case p.acceptKeyword("cross"):
		if err := p.expectKeyword("join"); err != nil {
			return 0, false, err
		}
		return JoinCross, true, nil
	}
	return 0, false, nil
}

// parseTablePrimary parses a base table, derived table, or parenthesized
// join.
func (p *Parser) parseTablePrimary() (TableRef, error) {
	if p.acceptOp("(") {
		if p.peekKeyword("select") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			p.acceptKeyword("as")
			alias := ""
			if p.cur().Type == tokIdent && (p.cur().Quoted || !expr.IsKeyword(p.cur().Text)) {
				alias, _ = p.identifier()
			}
			return &SubqueryRef{Select: sub, Alias: alias}, nil
		}
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return ref, nil
	}
	name, err := p.identifier()
	if err != nil {
		return nil, err
	}
	t := &TableName{Name: name}
	if p.acceptKeyword("as") {
		alias, err := p.identifier()
		if err != nil {
			return nil, err
		}
		t.Alias = alias
	} else if p.cur().Type == tokIdent && (p.cur().Quoted || !expr.IsKeyword(p.cur().Text)) {
		t.Alias, _ = p.identifier()
	}
	return t, nil
}

// Expression grammar (lowest to highest precedence):
//
//	or:      and (OR and)*
//	and:     not (AND not)*
//	not:     NOT not | cmp
//	cmp:     add ((= | <> | < | <= | > | >=) add | IS [NOT] NULL)?
//	add:     mul ((+|-) mul)*
//	mul:     unary ((*|/|%) unary)*
//	unary:   - unary | primary
//	primary: literal | func(args) | column | (expr) | EXISTS (select)
func (p *Parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (expr.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = expr.NewBinary(expr.OpOr, l, r)
	}
	return l, nil
}

func (p *Parser) parseAnd() (expr.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = expr.NewBinary(expr.OpAnd, l, r)
	}
	return l, nil
}

func (p *Parser) parseNot() (expr.Expr, error) {
	if p.peekKeyword("not") {
		// NOT EXISTS is handled as a negated Exists node.
		if p.pos+1 < len(p.toks) && p.toks[p.pos+1].Type == tokIdent && p.toks[p.pos+1].Text == "exists" {
			p.pos += 2
			ex, err := p.parseExistsBody()
			if err != nil {
				return nil, err
			}
			ex.Negated = true
			return ex, nil
		}
		p.pos++
		child, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return expr.NewNot(child), nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (expr.Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if p.cur().Type == tokOp {
		var op expr.BinaryOp
		matched := true
		switch p.cur().Text {
		case "=":
			op = expr.OpEq
		case "<>":
			op = expr.OpNeq
		case "<":
			op = expr.OpLt
		case "<=":
			op = expr.OpLeq
		case ">":
			op = expr.OpGt
		case ">=":
			op = expr.OpGeq
		default:
			matched = false
		}
		if matched {
			p.pos++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return expr.NewBinary(op, l, r), nil
		}
	}
	if p.acceptKeyword("is") {
		negated := p.acceptKeyword("not")
		if err := p.expectKeyword("null"); err != nil {
			return nil, err
		}
		return expr.NewIsNull(l, negated), nil
	}
	// [NOT] BETWEEN / [NOT] IN
	negated := false
	if p.peekKeyword("not") && p.pos+1 < len(p.toks) && p.toks[p.pos+1].Type == tokIdent &&
		(p.toks[p.pos+1].Text == "between" || p.toks[p.pos+1].Text == "in") {
		p.pos++
		negated = true
	}
	switch {
	case p.acceptKeyword("between"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		// Desugar: l BETWEEN lo AND hi == l >= lo AND l <= hi.
		rng := expr.NewBinary(expr.OpAnd,
			expr.NewBinary(expr.OpGeq, l, lo),
			expr.NewBinary(expr.OpLeq, l, hi))
		if negated {
			return expr.NewNot(rng), nil
		}
		return rng, nil
	case p.acceptKeyword("in"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var list []expr.Expr
		for {
			item, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, item)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return expr.NewIn(l, list, negated), nil
	}
	if negated {
		return nil, p.errorf("expected BETWEEN or IN after NOT")
	}
	return l, nil
}

func (p *Parser) parseAdditive() (expr.Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.cur().Type == tokOp && (p.cur().Text == "+" || p.cur().Text == "-") {
		op := expr.OpAdd
		if p.cur().Text == "-" {
			op = expr.OpSub
		}
		p.pos++
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = expr.NewBinary(op, l, r)
	}
	return l, nil
}

func (p *Parser) parseMultiplicative() (expr.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().Type == tokOp && (p.cur().Text == "*" || p.cur().Text == "/" || p.cur().Text == "%") {
		var op expr.BinaryOp
		switch p.cur().Text {
		case "*":
			op = expr.OpMul
		case "/":
			op = expr.OpDiv
		case "%":
			op = expr.OpMod
		}
		p.pos++
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = expr.NewBinary(op, l, r)
	}
	return l, nil
}

func (p *Parser) parseUnary() (expr.Expr, error) {
	if p.acceptOp("-") {
		child, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negative numeric literals immediately.
		if lit, ok := child.(*expr.Literal); ok {
			switch lit.Value.Kind() {
			case types.KindInt:
				return expr.NewLiteral(types.Int(-lit.Value.AsInt())), nil
			case types.KindFloat:
				return expr.NewLiteral(types.Float(-lit.Value.AsFloat())), nil
			}
		}
		return expr.NewNegate(child), nil
	}
	p.acceptOp("+")
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (expr.Expr, error) {
	t := p.cur()
	switch t.Type {
	case tokNumber:
		p.pos++
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errorf("invalid number %q", t.Text)
			}
			return expr.NewLiteral(types.Float(f)), nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("invalid number %q", t.Text)
		}
		return expr.NewLiteral(types.Int(n)), nil
	case tokString:
		p.pos++
		return expr.NewLiteral(types.Str(t.Text)), nil
	case tokOp:
		if t.Text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokIdent:
		if t.Quoted {
			return p.parseColumnRef()
		}
		switch t.Text {
		case "null":
			p.pos++
			return expr.NewLiteral(types.Null), nil
		case "true":
			p.pos++
			return expr.NewLiteral(types.Bool(true)), nil
		case "false":
			p.pos++
			return expr.NewLiteral(types.Bool(false)), nil
		case "exists":
			p.pos++
			return p.parseExistsBody()
		case "case":
			p.pos++
			return p.parseCase()
		}
		// Function call? (including aggregate names and min/max keywords)
		if p.pos+1 < len(p.toks) && p.toks[p.pos+1].Type == tokOp && p.toks[p.pos+1].Text == "(" {
			return p.parseFuncCall()
		}
		if expr.IsKeyword(t.Text) {
			return nil, p.errorf("unexpected keyword %q in expression", t.Text)
		}
		return p.parseColumnRef()
	}
	return nil, p.errorf("unexpected token %q in expression", t.Text)
}

// parseCase parses a searched CASE expression (CASE already consumed).
func (p *Parser) parseCase() (expr.Expr, error) {
	var whens []expr.When
	for p.acceptKeyword("when") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("then"); err != nil {
			return nil, err
		}
		result, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		whens = append(whens, expr.When{Cond: cond, Result: result})
	}
	if len(whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN branch")
	}
	var elseExpr expr.Expr
	if p.acceptKeyword("else") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		elseExpr = e
	}
	if err := p.expectKeyword("end"); err != nil {
		return nil, err
	}
	return expr.NewCase(whens, elseExpr), nil
}

// parseColumnRef parses ident or ident.ident as a column reference.
func (p *Parser) parseColumnRef() (expr.Expr, error) {
	t := p.cur()
	p.pos++
	if p.acceptOp(".") {
		nameTok := p.cur()
		if nameTok.Type != tokIdent {
			return nil, p.errorf("expected column name after %q.", t.Text)
		}
		p.pos++
		return expr.NewColumn(t.Text, nameTok.Text), nil
	}
	return expr.NewColumn("", t.Text), nil
}

// parseExistsBody parses the parenthesized subquery of EXISTS.
func (p *Parser) parseExistsBody() (*Exists, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	sub, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &Exists{Subquery: sub}, nil
}

// parseFuncCall parses name(args) where name may be an aggregate, a scalar
// function, or the keywords min/max used as aggregates.
func (p *Parser) parseFuncCall() (expr.Expr, error) {
	name := p.cur().Text
	p.pos += 2 // name (
	// count(*)
	if name == "count" && p.acceptOp("*") {
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return expr.NewCountStar(), nil
	}
	var args []expr.Expr
	if !p.acceptOp(")") {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if fn, ok := expr.AggFuncByName(name); ok {
		if len(args) != 1 {
			return nil, p.errorf("aggregate %s requires exactly one argument", name)
		}
		return expr.NewAggregate(fn, args[0]), nil
	}
	f := expr.NewFunc(name, args...)
	if err := f.CheckArity(); err != nil {
		return nil, p.errorf("%v", err)
	}
	return f, nil
}

// ParseExpr parses a standalone expression (used by the DataFrame API for
// filter and projection fragments).
func ParseExpr(src string) (expr.Expr, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.cur().Text)
	}
	return e, nil
}
