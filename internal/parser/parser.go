// Package parser turns Preference SQL text into the AST of package ast.
// It is a hand-written recursive-descent parser covering the SQL92 subset
// of the engine plus the full preference term language of the paper:
//
//	pref     := pareto ((CASCADE | ',') pareto)*
//	pareto   := layered (AND layered)*
//	layered  := base (ELSE base)*
//	base     := '(' pref ')'
//	          | LOWEST '(' expr ')' | HIGHEST '(' expr ')'
//	          | EXPLICIT '(' expr ',' edge (',' edge)* ')'
//	          | REGULAR '(' cond ')'
//	          | expr AROUND expr
//	          | expr BETWEEN ['['] expr ',' expr [']']
//	          | expr [NOT] IN '(' values ')'
//	          | expr '=' expr | expr '<>' expr        (POS / NEG)
//	          | expr CONTAINS '(' terms ')'
//	          | expr cmp expr                         (soft boolean)
//
// ELSE binds tighter than AND (Pareto), which binds tighter than CASCADE,
// matching the paper's Opel example in §2.2.2.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/lexer"
	"repro/internal/value"
)

// Error is a parse error with byte offset into the source.
type Error struct {
	Pos int
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("parse error at offset %d: %s", e.Pos, e.Msg) }

// Parser consumes a token stream.
type Parser struct {
	toks []lexer.Token
	pos  int
	src  string

	// Bind-parameter bookkeeping: '?' placeholders number themselves left
	// to right, '$n' placeholders name their 1-based position explicitly.
	// The two styles cannot be mixed in one script.
	paramSeq  int // next index for a '?' placeholder
	numParams int // 1 + highest parameter index seen
	sawHook   bool
	sawDollar bool
}

// New creates a parser for src. Lexing happens eagerly in Parse.
func New(src string) *Parser { return &Parser{src: src} }

// Parse parses a single statement (a trailing ';' is allowed).
func Parse(src string) (ast.Stmt, error) {
	stmts, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("parser: expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseSelect parses a single SELECT statement.
func ParseSelect(src string) (*ast.Select, error) {
	sel, _, err := ParseSelectCount(src)
	return sel, err
}

// ParseSelectCount parses a single SELECT statement and reports its bind
// parameter count (see ParseAllCount).
func ParseSelectCount(src string) (*ast.Select, int, error) {
	stmts, n, err := ParseAllCount(src)
	if err != nil {
		return nil, 0, err
	}
	if len(stmts) != 1 {
		return nil, 0, fmt.Errorf("parser: expected exactly one statement, got %d", len(stmts))
	}
	sel, ok := stmts[0].(*ast.Select)
	if !ok {
		return nil, 0, fmt.Errorf("parser: not a SELECT statement")
	}
	return sel, n, nil
}

// ParseAll parses a ';'-separated script.
func ParseAll(src string) ([]ast.Stmt, error) {
	stmts, _, err := ParseAllCount(src)
	return stmts, err
}

// ParseAllCount parses a ';'-separated script and additionally reports how
// many positional bind parameters it uses ('?' placeholders count left to
// right; '$n' placeholders make the count 1 + the highest position).
func ParseAllCount(src string) ([]ast.Stmt, int, error) {
	toks, err := lexer.New(src).All()
	if err != nil {
		return nil, 0, err
	}
	p := &Parser{toks: toks, src: src}
	var stmts []ast.Stmt
	for {
		for p.acceptOp(";") {
		}
		if p.peek().Type == lexer.EOF {
			return stmts, p.numParams, nil
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, 0, err
		}
		stmts = append(stmts, s)
		if !p.acceptOp(";") && p.peek().Type != lexer.EOF {
			return nil, 0, p.errf("expected ';' or end of input, got %q", p.peek().Text)
		}
	}
}

// --- token helpers ---------------------------------------------------------

func (p *Parser) peek() lexer.Token { return p.toks[p.pos] }

func (p *Parser) peekAt(n int) lexer.Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *Parser) next() lexer.Token {
	t := p.toks[p.pos]
	if t.Type != lexer.EOF {
		p.pos++
	}
	return t
}

func (p *Parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.Type == lexer.Keyword && t.Text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.Type == lexer.Keyword && t.Text == kw
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, got %q", kw, p.peek().Text)
	}
	return nil
}

func (p *Parser) acceptOp(op string) bool {
	if t := p.peek(); t.Type == lexer.Op && t.Text == op {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) peekOp(op string) bool {
	t := p.peek()
	return t.Type == lexer.Op && t.Text == op
}

func (p *Parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q, got %q", op, p.peek().Text)
	}
	return nil
}

func (p *Parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Type == lexer.Ident {
		p.pos++
		return t.Text, nil
	}
	return "", p.errf("expected identifier, got %q", t.Text)
}

func (p *Parser) errf(format string, args ...any) error {
	return &Error{Pos: p.peek().Pos, Msg: fmt.Sprintf(format, args...)}
}

// maxParams bounds the parameter count; it must fit the wire protocol's
// u16 argument count, so the largest valid position is 65535.
const maxParams = 1<<16 - 1

// parseParam turns a lexer Param token (already consumed) into an AST node,
// numbering '?' placeholders sequentially and validating '$n' positions.
func (p *Parser) parseParam(t lexer.Token) (*ast.Param, error) {
	if t.Text == "" { // '?'
		p.sawHook = true
		if p.sawDollar {
			return nil, &Error{Pos: t.Pos, Msg: "cannot mix '?' and '$n' parameter styles"}
		}
		idx := p.paramSeq
		p.paramSeq++
		if p.paramSeq > p.numParams {
			p.numParams = p.paramSeq
		}
		return &ast.Param{Index: idx}, nil
	}
	p.sawDollar = true
	if p.sawHook {
		return nil, &Error{Pos: t.Pos, Msg: "cannot mix '?' and '$n' parameter styles"}
	}
	n, err := strconv.Atoi(t.Text)
	if err != nil || n < 1 || n > maxParams {
		return nil, &Error{Pos: t.Pos, Msg: fmt.Sprintf("invalid parameter number $%s", t.Text)}
	}
	if n > p.numParams {
		p.numParams = n
	}
	return &ast.Param{Index: n - 1}, nil
}

// --- statements ------------------------------------------------------------

func (p *Parser) parseStmt() (ast.Stmt, error) {
	t := p.peek()
	if t.Type != lexer.Keyword {
		return nil, p.errf("expected statement, got %q", t.Text)
	}
	switch t.Text {
	case "SELECT":
		return p.parseSelect()
	case "SUBSCRIBE":
		return p.parseSubscribe()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "SET":
		return p.parseSet()
	}
	return nil, p.errf("unsupported statement %q", t.Text)
}

// parseSubscribe parses `SUBSCRIBE SELECT ...`, the continuous-query
// statement. Shape restrictions (single base table, no subqueries, no
// grouping/ordering/limits) are the registration layer's job, not the
// grammar's, so error messages can explain what live maintenance does
// not support.
func (p *Parser) parseSubscribe() (ast.Stmt, error) {
	p.next() // SUBSCRIBE
	if p.peek().Text != "SELECT" {
		return nil, p.errf("SUBSCRIBE must be followed by SELECT")
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &ast.Subscribe{Sel: sel}, nil
}

// parseSet parses `SET name = literal`, the session-setting statement
// (execution mode, BMO algorithm, parallel worker count). A bare
// identifier value is accepted as shorthand for a string literal, so
// `SET algorithm = parallel` and `SET algorithm = 'parallel'` are the
// same statement.
func (p *Parser) parseSet() (ast.Stmt, error) {
	p.next() // SET
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("="); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Type == lexer.Ident {
		p.next()
		return &ast.Set{Name: name, Value: value.NewText(t.Text)}, nil
	}
	// Keywords double as setting values here (`SET pushdown = on` — ON
	// is a join keyword); anything keyword-shaped is taken as text,
	// lower-cased since setting values are case-insensitive tokens.
	if t.Type == lexer.Keyword {
		p.next()
		return &ast.Set{Name: name, Value: value.NewText(strings.ToLower(t.Text))}, nil
	}
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	lit, ok := e.(*ast.Literal)
	if !ok {
		return nil, p.errf("SET value must be a literal, got %s", e.SQL())
	}
	return &ast.Set{Name: name, Value: lit.Val}, nil
}

func (p *Parser) parseSelect() (*ast.Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &ast.Select{Limit: -1}
	sel.Distinct = p.acceptKeyword("DISTINCT")
	if p.acceptKeyword("ALL") {
		sel.Distinct = false
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		for {
			tr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, tr)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.acceptKeyword("PREFERRING") {
		pr, err := p.parsePref()
		if err != nil {
			return nil, err
		}
		sel.Preferring = pr
	}
	if p.acceptKeyword("GROUPING") {
		for {
			col, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			sel.Grouping = append(sel.Grouping, col)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("BUT") {
		if err := p.expectKeyword("ONLY"); err != nil {
			return nil, err
		}
		bo, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.ButOnly = bo
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := ast.OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		if t := p.peek(); t.Type == lexer.Param {
			p.pos++
			pp, err := p.parseParam(t)
			if err != nil {
				return nil, err
			}
			sel.LimitParam = pp
		} else {
			n, err := p.parseIntLiteral()
			if err != nil {
				return nil, err
			}
			sel.Limit = n
		}
		if p.acceptKeyword("OFFSET") {
			if t := p.peek(); t.Type == lexer.Param {
				p.pos++
				pp, err := p.parseParam(t)
				if err != nil {
					return nil, err
				}
				sel.OffsetParam = pp
			} else {
				o, err := p.parseIntLiteral()
				if err != nil {
					return nil, err
				}
				sel.Offset = o
			}
		}
	}
	return sel, nil
}

func (p *Parser) parseIntLiteral() (int64, error) {
	t := p.peek()
	if t.Type != lexer.Number {
		return 0, p.errf("expected number, got %q", t.Text)
	}
	p.pos++
	n, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		return 0, p.errf("invalid integer %q", t.Text)
	}
	return n, nil
}

func (p *Parser) parseSelectItem() (ast.SelectItem, error) {
	// `*` or `t.*`
	if p.peekOp("*") {
		p.pos++
		return ast.SelectItem{Expr: &ast.Star{}}, nil
	}
	if p.peek().Type == lexer.Ident && p.peekAt(1).Type == lexer.Op &&
		p.peekAt(1).Text == "." && p.peekAt(2).Type == lexer.Op && p.peekAt(2).Text == "*" {
		tbl := p.next().Text
		p.next() // .
		p.next() // *
		return ast.SelectItem{Expr: &ast.Star{Table: tbl}}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return ast.SelectItem{}, err
	}
	item := ast.SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return ast.SelectItem{}, err
		}
		item.Alias = a
	} else if p.peek().Type == lexer.Ident {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *Parser) parseColumnRef() (*ast.Column, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if p.acceptOp(".") {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &ast.Column{Table: name, Name: col}, nil
	}
	return &ast.Column{Name: name}, nil
}

func (p *Parser) parseTableRef() (ast.TableRef, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var jt ast.JoinType
		switch {
		case p.acceptKeyword("JOIN"):
			jt = ast.InnerJoin
		case p.peekKeyword("INNER") && p.peekAt(1).Text == "JOIN":
			p.pos += 2
			jt = ast.InnerJoin
		case p.peekKeyword("LEFT"):
			p.pos++
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			jt = ast.LeftJoin
		case p.peekKeyword("CROSS") && p.peekAt(1).Text == "JOIN":
			p.pos += 2
			jt = ast.CrossJoin
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		j := &ast.Join{Type: jt, Left: left, Right: right}
		if jt != ast.CrossJoin {
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			j.On = on
		}
		left = j
	}
}

func (p *Parser) parseTablePrimary() (ast.TableRef, error) {
	if p.peekOp("(") {
		p.pos++
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		st := &ast.SubqueryTable{Sel: sel}
		p.acceptKeyword("AS")
		if p.peek().Type == lexer.Ident {
			st.Alias = p.next().Text
		}
		return st, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	bt := &ast.BaseTable{Name: name}
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		bt.Alias = a
	} else if p.peek().Type == lexer.Ident {
		bt.Alias = p.next().Text
	}
	return bt, nil
}

func (p *Parser) parseInsert() (ast.Stmt, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &ast.Insert{Table: name}
	if p.acceptOp("(") {
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, c)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("VALUES") {
		for {
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var row []ast.Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if !p.acceptOp(",") {
				break
			}
		}
		return ins, nil
	}
	if p.peekKeyword("SELECT") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Sel = sel
		return ins, nil
	}
	return nil, p.errf("expected VALUES or SELECT in INSERT")
}

func (p *Parser) parseUpdate() (ast.Stmt, error) {
	p.next() // UPDATE
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	upd := &ast.Update{Table: name}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Sets = append(upd.Sets, ast.SetClause{Column: col, Expr: e})
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Where = w
	}
	return upd, nil
}

func (p *Parser) parseDelete() (ast.Stmt, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	del := &ast.Delete{Table: name}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

func (p *Parser) parseCreate() (ast.Stmt, error) {
	p.next() // CREATE
	switch {
	case p.acceptKeyword("TABLE"):
		return p.parseCreateTable()
	case p.acceptKeyword("PREFERENCE"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AS"); err != nil {
			return nil, err
		}
		pr, err := p.parsePref()
		if err != nil {
			return nil, err
		}
		return &ast.CreatePreference{Name: name, Pref: pr}, nil
	case p.acceptKeyword("VIEW"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AS"); err != nil {
			return nil, err
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ast.CreateView{Name: name, Sel: sel}, nil
	case p.acceptKeyword("INDEX"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		tbl, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		ci := &ast.CreateIndex{Name: name, Table: tbl}
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ci.Columns = append(ci.Columns, c)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return ci, nil
	}
	return nil, p.errf("expected TABLE, VIEW, INDEX or PREFERENCE after CREATE")
}

func (p *Parser) parseCreateTable() (ast.Stmt, error) {
	ct := &ast.CreateTable{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		ct.IfNotExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ct.Name = name
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		cname, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		kind, err := p.parseTypeName()
		if err != nil {
			return nil, err
		}
		col := ast.ColumnDef{Name: cname, Type: kind}
		for {
			switch {
			case p.acceptKeyword("PRIMARY"):
				if err := p.expectKeyword("KEY"); err != nil {
					return nil, err
				}
				col.PrimaryKey = true
				col.NotNull = true
			case p.acceptKeyword("NOT"):
				if err := p.expectKeyword("NULL"); err != nil {
					return nil, err
				}
				col.NotNull = true
			case p.acceptKeyword("UNIQUE"):
				// accepted, no-op
			default:
				goto done
			}
		}
	done:
		ct.Cols = append(ct.Cols, col)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *Parser) parseTypeName() (value.Kind, error) {
	t := p.peek()
	if t.Type != lexer.Keyword {
		return value.Null, p.errf("expected type name, got %q", t.Text)
	}
	p.pos++
	var k value.Kind
	switch t.Text {
	case "INT", "INTEGER":
		k = value.Int
	case "FLOAT", "REAL", "DOUBLE":
		k = value.Float
	case "VARCHAR", "CHAR", "TEXT":
		k = value.Text
	case "BOOLEAN":
		k = value.Bool
	case "DATE":
		k = value.Date
	default:
		return value.Null, p.errf("unknown type %q", t.Text)
	}
	// optional (n) length
	if p.acceptOp("(") {
		if _, err := p.parseIntLiteral(); err != nil {
			return value.Null, err
		}
		if err := p.expectOp(")"); err != nil {
			return value.Null, err
		}
	}
	return k, nil
}

func (p *Parser) parseDrop() (ast.Stmt, error) {
	p.next() // DROP
	var kind string
	switch {
	case p.acceptKeyword("TABLE"):
		kind = "TABLE"
	case p.acceptKeyword("VIEW"):
		kind = "VIEW"
	case p.acceptKeyword("INDEX"):
		kind = "INDEX"
	case p.acceptKeyword("PREFERENCE"):
		kind = "PREFERENCE"
	default:
		return nil, p.errf("expected TABLE, VIEW, INDEX or PREFERENCE after DROP")
	}
	d := &ast.Drop{Kind: kind}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		d.IfExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d.Name = name
	return d, nil
}

// --- expressions -----------------------------------------------------------

// parseExpr parses a full boolean expression (OR precedence level).
func (p *Parser) parseExpr() (ast.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (ast.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (ast.Expr, error) {
	if p.peekKeyword("NOT") && p.peekAt(1).Type == lexer.Keyword && p.peekAt(1).Text == "EXISTS" {
		p.pos += 2
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &ast.Exists{Sub: sel, Not: true}, nil
	}
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (ast.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		not := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &ast.IsNull{X: left, Not: not}, nil
	}
	not := false
	if p.peekKeyword("NOT") {
		nt := p.peekAt(1)
		if nt.Type == lexer.Keyword && (nt.Text == "IN" || nt.Text == "BETWEEN" || nt.Text == "LIKE") {
			p.pos++
			not = true
		}
	}
	switch {
	case p.acceptKeyword("IN"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		if p.peekKeyword("SELECT") {
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &ast.InSelect{X: left, Sub: sel, Not: not}, nil
		}
		var list []ast.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &ast.InList{X: left, List: list, Not: not}, nil
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &ast.Between{X: left, Lo: lo, Hi: hi, Not: not}, nil
	case p.acceptKeyword("LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &ast.Like{X: left, Pattern: pat, Not: not}, nil
	}
	for _, op := range []string{"<=", ">=", "<>", "=", "<", ">"} {
		if p.acceptOp(op) {
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &ast.Binary{Op: op, L: left, R: right}, nil
		}
	}
	return left, nil
}

func (p *Parser) parseAdditive() (ast.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptOp("+"):
			op = "+"
		case p.acceptOp("-"):
			op = "-"
		case p.acceptOp("||"):
			op = "||"
		default:
			return left, nil
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: op, L: left, R: right}
	}
}

func (p *Parser) parseMultiplicative() (ast.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptOp("*"):
			op = "*"
		case p.acceptOp("/"):
			op = "/"
		case p.acceptOp("%"):
			op = "%"
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: op, L: left, R: right}
	}
}

func (p *Parser) parseUnary() (ast.Expr, error) {
	if p.acceptOp("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*ast.Literal); ok && lit.Val.IsNumeric() {
			switch lit.Val.K {
			case value.Int:
				return &ast.Literal{Val: value.NewInt(-lit.Val.I)}, nil
			case value.Float:
				return &ast.Literal{Val: value.NewFloat(-lit.Val.F)}, nil
			}
		}
		return &ast.Unary{Op: "-", X: x}, nil
	}
	p.acceptOp("+")
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (ast.Expr, error) {
	t := p.peek()
	switch t.Type {
	case lexer.Number:
		p.pos++
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errf("invalid number %q", t.Text)
			}
			return &ast.Literal{Val: value.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(t.Text, 64)
			if ferr != nil {
				return nil, p.errf("invalid number %q", t.Text)
			}
			return &ast.Literal{Val: value.NewFloat(f)}, nil
		}
		return &ast.Literal{Val: value.NewInt(i)}, nil

	case lexer.String:
		p.pos++
		return &ast.Literal{Val: value.NewText(t.Text)}, nil

	case lexer.Param:
		p.pos++
		return p.parseParam(t)

	case lexer.Op:
		if t.Text == "(" {
			p.pos++
			if p.peekKeyword("SELECT") {
				sel, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &ast.ScalarSub{Sub: sel}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.Text == "*" {
			p.pos++
			return &ast.Star{}, nil
		}

	case lexer.Keyword:
		switch t.Text {
		case "NULL":
			p.pos++
			return &ast.Literal{Val: value.NewNull()}, nil
		case "TRUE":
			p.pos++
			return &ast.Literal{Val: value.NewBool(true)}, nil
		case "FALSE":
			p.pos++
			return &ast.Literal{Val: value.NewBool(false)}, nil
		case "DATE":
			// DATE 'YYYY-MM-DD' literal
			if p.peekAt(1).Type == lexer.String {
				p.pos++
				s := p.next().Text
				v, err := value.ParseDate(s)
				if err != nil {
					return nil, p.errf("invalid date literal %q", s)
				}
				return &ast.Literal{Val: v}, nil
			}
		case "CASE":
			return p.parseCase()
		case "EXISTS":
			p.pos++
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &ast.Exists{Sub: sel}, nil
		case "NOT":
			p.pos++
			if p.acceptKeyword("EXISTS") {
				if err := p.expectOp("("); err != nil {
					return nil, err
				}
				sel, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &ast.Exists{Sub: sel, Not: true}, nil
			}
			x, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return &ast.Unary{Op: "NOT", X: x}, nil
		case "TOP", "LEVEL", "DISTANCE", "LEFT":
			// Quality functions and LEFT(s, n); keywords usable as functions.
			if p.peekAt(1).Type == lexer.Op && p.peekAt(1).Text == "(" {
				p.pos++
				return p.parseFuncArgs(t.Text)
			}
		}

	case lexer.Ident:
		// function call?
		if p.peekAt(1).Type == lexer.Op && p.peekAt(1).Text == "(" {
			name := strings.ToUpper(t.Text)
			p.pos++
			return p.parseFuncArgs(name)
		}
		p.pos++
		if p.acceptOp(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ast.Column{Table: t.Text, Name: col}, nil
		}
		return &ast.Column{Name: t.Text}, nil
	}
	return nil, p.errf("unexpected token %q in expression", t.Text)
}

func (p *Parser) parseFuncArgs(name string) (ast.Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	fc := &ast.FuncCall{Name: name}
	if p.acceptOp(")") {
		return fc, nil
	}
	fc.Distinct = p.acceptKeyword("DISTINCT")
	for {
		if p.peekOp("*") {
			p.pos++
			fc.Args = append(fc.Args, &ast.Star{})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fc.Args = append(fc.Args, e)
		}
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return fc, nil
}

func (p *Parser) parseCase() (ast.Expr, error) {
	p.next() // CASE
	c := &ast.Case{}
	if !p.peekKeyword("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKeyword("WHEN") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		th, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, ast.WhenClause{When: w, Then: th})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

// --- preference terms ------------------------------------------------------

// parsePref parses the full preference grammar (CASCADE level).
func (p *Parser) parsePref() (ast.Pref, error) {
	first, err := p.parsePrefPareto()
	if err != nil {
		return nil, err
	}
	parts := []ast.Pref{first}
	for p.acceptKeyword("CASCADE") || p.acceptOp(",") {
		next, err := p.parsePrefPareto()
		if err != nil {
			return nil, err
		}
		parts = append(parts, next)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return &ast.PrefCascade{Parts: parts}, nil
}

func (p *Parser) parsePrefPareto() (ast.Pref, error) {
	first, err := p.parsePrefElse()
	if err != nil {
		return nil, err
	}
	parts := []ast.Pref{first}
	for p.acceptKeyword("AND") {
		next, err := p.parsePrefElse()
		if err != nil {
			return nil, err
		}
		parts = append(parts, next)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return &ast.PrefPareto{Parts: parts}, nil
}

func (p *Parser) parsePrefElse() (ast.Pref, error) {
	first, err := p.parsePrefBase()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("ELSE") {
		second, err := p.parsePrefBase()
		if err != nil {
			return nil, err
		}
		first = &ast.PrefElse{First: first, Second: second}
	}
	return first, nil
}

func (p *Parser) parsePrefBase() (ast.Pref, error) {
	t := p.peek()
	if t.Type == lexer.Op && t.Text == "(" {
		start := p.pos
		p.pos++
		pr, err := p.parsePref()
		if err == nil {
			err = p.expectOp(")")
		}
		if err == nil {
			return pr, nil
		}
		// Not a parenthesized preference: the attribute expression may
		// open with a parenthesis, as the rendered `(a % 2) AROUND 0` does.
		p.pos = start
		if pr, attrErr := p.parsePrefAttr(); attrErr == nil {
			return pr, nil
		}
		return nil, err
	}
	if t.Type == lexer.Keyword {
		switch t.Text {
		case "LOWEST", "HIGHEST":
			p.pos++
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			x, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			if t.Text == "LOWEST" {
				return &ast.PrefLowest{X: x}, nil
			}
			return &ast.PrefHighest{X: x}, nil
		case "EXPLICIT":
			return p.parsePrefExplicit()
		case "PREFERENCE":
			p.pos++
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ast.PrefRef{Name: name}, nil
		case "REGULAR":
			p.pos++
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &ast.PrefBool{Cond: cond}, nil
		}
	}
	return p.parsePrefAttr()
}

// parsePrefAttr parses an attribute-leading base preference.
func (p *Parser) parsePrefAttr() (ast.Pref, error) {
	x, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	switch {
	case p.acceptKeyword("AROUND"):
		target, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &ast.PrefAround{X: x, Target: target}, nil

	case p.acceptKeyword("BETWEEN"):
		bracket := p.acceptOp("[")
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(","); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if bracket {
			if err := p.expectOp("]"); err != nil {
				return nil, err
			}
		}
		return &ast.PrefBetween{X: x, Lo: lo, Hi: hi}, nil

	case p.acceptKeyword("IN"):
		vals, err := p.parseParenExprList()
		if err != nil {
			return nil, err
		}
		return &ast.PrefPos{X: x, Values: vals}, nil

	case p.peekKeyword("NOT") && p.peekAt(1).Text == "IN":
		p.pos += 2
		vals, err := p.parseParenExprList()
		if err != nil {
			return nil, err
		}
		return &ast.PrefNeg{X: x, Values: vals}, nil

	case p.acceptKeyword("CONTAINS"):
		if p.peekOp("(") {
			terms, err := p.parseParenExprList()
			if err != nil {
				return nil, err
			}
			return &ast.PrefContains{X: x, Terms: terms}, nil
		}
		term, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &ast.PrefContains{X: x, Terms: []ast.Expr{term}}, nil

	case p.acceptOp("="):
		v, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &ast.PrefPos{X: x, Values: []ast.Expr{v}}, nil

	case p.acceptOp("<>"):
		v, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &ast.PrefNeg{X: x, Values: []ast.Expr{v}}, nil
	}
	for _, op := range []string{"<=", ">=", "<", ">"} {
		if p.acceptOp(op) {
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &ast.PrefBool{Cond: &ast.Binary{Op: op, L: x, R: right}}, nil
		}
	}
	return nil, p.errf("expected preference operator (AROUND, BETWEEN, IN, =, <>, CONTAINS, ...) after expression")
}

func (p *Parser) parseParenExprList() ([]ast.Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var out []ast.Expr
	for {
		e, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *Parser) parsePrefExplicit() (ast.Pref, error) {
	p.next() // EXPLICIT
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	x, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	pe := &ast.PrefExplicit{X: x}
	for p.acceptOp(",") {
		better, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(">"); err != nil {
			return nil, err
		}
		worse, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		pe.Edges = append(pe.Edges, ast.ExplicitEdge{Better: better, Worse: worse})
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if len(pe.Edges) == 0 {
		return nil, p.errf("EXPLICIT requires at least one better > worse pair")
	}
	return pe, nil
}
