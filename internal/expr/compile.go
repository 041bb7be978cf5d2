package expr

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/value"
)

// Col labels one column of a scope with its qualifier (table name or
// alias; empty for computed columns) and name.
type Col struct {
	Qual string
	Name string
	// Call marks a column holding the value of the function call whose
	// SQL text is Name — an aggregate computed below. Calls bind to it;
	// names and stars never do.
	Call bool
}

// Scope is the column layout of the rows a Program runs over: position i
// of a row holds column Cols[i].
type Scope struct {
	Cols []Col
	// Aliases marks the first Aliases columns as projection outputs laid
	// out in front of the source columns (the ORDER BY scope): they answer
	// unqualified references only, and win over the source columns.
	Aliases int
}

// Resolve binds a (table, name) reference to a row slot; table may be
// empty. Names compare case-insensitively and the first match wins — an
// ambiguous reference is not an error.
func (s Scope) Resolve(table, name string) (int, bool) {
	if table == "" {
		for i := 0; i < s.Aliases; i++ {
			if strings.EqualFold(s.Cols[i].Name, name) {
				return i, true
			}
		}
	}
	for i := s.Aliases; i < len(s.Cols); i++ {
		c := &s.Cols[i]
		if !c.Call && strings.EqualFold(c.Name, name) && (table == "" || strings.EqualFold(c.Qual, table)) {
			return i, true
		}
	}
	return 0, false
}

// resolveCall binds a function call to the Call column holding its
// value, if the scope has one.
func (s Scope) resolveCall(fc *ast.FuncCall) (int, bool) {
	text := ""
	for i, c := range s.Cols {
		if !c.Call {
			continue
		}
		if text == "" {
			text = fc.SQL()
		}
		if c.Name == text {
			return i, true
		}
	}
	return 0, false
}

// evalFn evaluates one compiled expression node.
type evalFn func(rt *Runtime, row value.Row) (value.Value, error)

// node is one compiled expression. slot >= 0 marks a bare column
// reference, which load reads straight out of the row — the common operand
// of filters and preference getters costs no call.
type node struct {
	fn   evalFn
	slot int
}

func (n *node) load(rt *Runtime, row value.Row) (value.Value, error) {
	if n.slot >= 0 && n.slot < len(row) {
		return row[n.slot], nil
	}
	return n.fn(rt, row) // not a slot; or a row too short for it, which fn reports
}

// Program is a compiled expression: a tree of closures with column slots
// and operator dispatch resolved. It is immutable and safe for concurrent
// use.
type Program struct {
	root node
}

// Compile binds e to scope. It never fails: whatever is wrong with the
// expression (an unknown column, a misused '*', a bad argument count)
// surfaces when — and only if — evaluation reaches it, so `FALSE AND
// nosuch = 1` is FALSE, not an error.
func Compile(e ast.Expr, scope Scope) *Program {
	c := compiler{scope: scope}
	return &Program{root: c.compile(e)}
}

// Eval runs the program over one row. A nil rt means no parameters, no
// subqueries and no outer scope.
func (p *Program) Eval(rt *Runtime, row value.Row) (value.Value, error) {
	if rt == nil {
		rt = &noRuntime
	}
	return p.root.load(rt, row)
}

// Bind fixes the runtime and returns the program as a plain function of
// the row — the shape of a preference getter, which dominance tests call
// several times per candidate. A bare column reference becomes a direct
// read of its slot.
func (p *Program) Bind(rt *Runtime) func(value.Row) (value.Value, error) {
	if rt == nil {
		rt = &noRuntime
	}
	slot, fn := p.root.slot, p.root.fn
	if slot < 0 {
		return func(row value.Row) (value.Value, error) { return fn(rt, row) }
	}
	return func(row value.Row) (value.Value, error) {
		if slot < len(row) {
			return row[slot], nil
		}
		return fn(rt, row)
	}
}

// EvalBool runs a predicate: UNKNOWN (NULL) filters like FALSE.
func (p *Program) EvalBool(rt *Runtime, row value.Row) (bool, error) {
	v, err := p.Eval(rt, row)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	if v.K != value.Bool {
		return false, fmt.Errorf("expected boolean condition, got %s", v.K)
	}
	return v.IsTrue(), nil
}

// Conds is a compiled conjunct list (pushed-down or residual WHERE
// conjuncts).
type Conds []*Program

// CompileConds compiles each conjunct against scope.
func CompileConds(conds []ast.Expr, scope Scope) Conds {
	out := make(Conds, len(conds))
	for i, c := range conds {
		out[i] = Compile(c, scope)
	}
	return out
}

// Match evaluates the conjuncts with AND short-circuit semantics: the
// first FALSE or UNKNOWN conjunct drops the row.
func (cs Conds) Match(rt *Runtime, row value.Row) (bool, error) {
	for _, c := range cs {
		ok, err := c.EvalBool(rt, row)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

type compiler struct {
	scope Scope
}

func fail(err error) evalFn {
	return func(*Runtime, value.Row) (value.Value, error) { return value.Value{}, err }
}

func (c *compiler) compile(e ast.Expr) node {
	switch x := e.(type) {
	case *ast.Column:
		return c.column(x)
	case *ast.FuncCall:
		if slot, ok := c.scope.resolveCall(x); ok {
			return node{slot: slot, fn: fail(fmt.Errorf("row too short for %s", x.SQL()))}
		}
	}
	return node{fn: c.compileFn(e), slot: -1}
}

func (c *compiler) compileFn(e ast.Expr) evalFn {
	switch x := e.(type) {
	case *ast.Literal:
		v := x.Val
		return func(*Runtime, value.Row) (value.Value, error) { return v, nil }

	case *ast.Param:
		idx := x.Index
		return func(rt *Runtime, _ value.Row) (value.Value, error) {
			if idx < 0 || idx >= len(rt.Params) {
				return value.Value{}, fmt.Errorf("parameter $%d is not bound (statement has %d argument(s))",
					idx+1, len(rt.Params))
			}
			return rt.Params[idx], nil
		}

	case *ast.Star:
		return fail(fmt.Errorf("'*' is not a scalar expression"))

	case *ast.Unary:
		return c.unary(x)

	case *ast.Binary:
		return c.binary(x)

	case *ast.IsNull:
		operand, not := c.compile(x.X), x.Not
		return func(rt *Runtime, row value.Row) (value.Value, error) {
			v, err := operand.load(rt, row)
			if err != nil {
				return value.Value{}, err
			}
			return value.NewBool(v.IsNull() != not), nil
		}

	case *ast.InList:
		return c.inList(x)

	case *ast.InSelect:
		return c.inSelect(x)

	case *ast.Between:
		return c.between(x)

	case *ast.Like:
		return c.like(x)

	case *ast.Exists:
		sub, not := limitOne(x.Sub), x.Not
		return func(rt *Runtime, row value.Row) (value.Value, error) {
			rows, err := c.subquery(rt, sub, row)
			if err != nil {
				return value.Value{}, err
			}
			return value.NewBool((len(rows) > 0) != not), nil
		}

	case *ast.ScalarSub:
		sub := x.Sub
		return func(rt *Runtime, row value.Row) (value.Value, error) {
			rows, err := c.subquery(rt, sub, row)
			if err != nil {
				return value.Value{}, err
			}
			if len(rows) == 0 {
				return value.NewNull(), nil
			}
			if len(rows) > 1 || len(rows[0]) != 1 {
				return value.Value{}, fmt.Errorf("scalar subquery returned %d rows", len(rows))
			}
			return rows[0][0], nil
		}

	case *ast.Case:
		return c.caseExpr(x)

	case *ast.FuncCall:
		return c.call(x)
	}
	return fail(fmt.Errorf("cannot evaluate %T", e))
}

// column binds a reference to its row slot; one the scope does not know is
// looked up by name in the outer environment on every evaluation.
func (c *compiler) column(x *ast.Column) node {
	if slot, ok := c.scope.Resolve(x.Table, x.Name); ok {
		return node{slot: slot, fn: fail(fmt.Errorf("row too short for column %s", x.Name))}
	}
	return node{slot: -1, fn: func(rt *Runtime, _ value.Row) (value.Value, error) {
		if rt.Outer != nil {
			if v, ok := rt.Outer.Col(x.Table, x.Name); ok {
				return v, nil
			}
		}
		return value.Value{}, fmt.Errorf("unknown column %s", x.SQL())
	}}
}

// subquery runs a nested SELECT with the current row as its correlation
// environment.
func (c *compiler) subquery(rt *Runtime, sel *ast.Select, row value.Row) ([]value.Row, error) {
	if rt.Runner == nil {
		return nil, fmt.Errorf("subqueries not supported in this context")
	}
	return rt.Runner.Subquery(sel, &RowEnv{Scope: c.scope, Row: row, Outer: rt.Outer})
}

func (c *compiler) unary(x *ast.Unary) evalFn {
	operand := c.compile(x.X)
	var apply func(value.Value) (value.Value, error)
	switch x.Op {
	case "NOT":
		apply = func(v value.Value) (value.Value, error) {
			if v.IsNull() {
				return value.NewNull(), nil
			}
			if v.K != value.Bool {
				return value.Value{}, fmt.Errorf("NOT requires a boolean")
			}
			return value.NewBool(!v.IsTrue()), nil
		}
	case "-":
		apply = func(v value.Value) (value.Value, error) {
			switch v.K {
			case value.Null:
				return v, nil
			case value.Int:
				return value.NewInt(-v.I), nil
			case value.Float:
				return value.NewFloat(-v.F), nil
			}
			return value.Value{}, fmt.Errorf("unary - requires a number")
		}
	default:
		op := x.Op
		apply = func(value.Value) (value.Value, error) {
			return value.Value{}, fmt.Errorf("unknown unary op %q", op)
		}
	}
	return func(rt *Runtime, row value.Row) (value.Value, error) {
		v, err := operand.load(rt, row)
		if err != nil {
			return value.Value{}, err
		}
		return apply(v)
	}
}

func (c *compiler) binary(x *ast.Binary) evalFn {
	l, r := c.compile(x.L), c.compile(x.R)
	switch x.Op {
	case "AND":
		return logical(l, r, "AND", false)
	case "OR":
		return logical(l, r, "OR", true)
	}
	if accept, ok := comparisons[x.Op]; ok {
		// The scan filters' inner loop: slot operands are read in place.
		return func(rt *Runtime, row value.Row) (value.Value, error) {
			var lv, rv value.Value
			var err error
			if l.slot >= 0 && l.slot < len(row) {
				lv = row[l.slot]
			} else if lv, err = l.fn(rt, row); err != nil {
				return value.Value{}, err
			}
			if r.slot >= 0 && r.slot < len(row) {
				rv = row[r.slot]
			} else if rv, err = r.fn(rt, row); err != nil {
				return value.Value{}, err
			}
			cmp, ok := value.Compare(lv, rv)
			if !ok {
				return value.NewNull(), nil
			}
			return value.NewBool(accept.Has(cmp)), nil
		}
	}
	var apply func(l, r value.Value) (value.Value, error)
	if op, ok := arithmetic[x.Op]; ok {
		apply = op.apply
	} else if x.Op == "||" {
		apply = func(l, r value.Value) (value.Value, error) {
			if l.IsNull() || r.IsNull() {
				return value.NewNull(), nil
			}
			return value.NewText(l.String() + r.String()), nil
		}
	} else {
		op := x.Op
		apply = func(value.Value, value.Value) (value.Value, error) {
			return value.Value{}, fmt.Errorf("unknown operator %q", op)
		}
	}
	return func(rt *Runtime, row value.Row) (value.Value, error) {
		lv, err := l.load(rt, row)
		if err != nil {
			return value.Value{}, err
		}
		rv, err := r.load(rt, row)
		if err != nil {
			return value.Value{}, err
		}
		return apply(lv, rv)
	}
}

// logical is three-valued AND/OR. decisive is the operand value that
// settles the result on its own (FALSE for AND, TRUE for OR): a decisive
// left operand short-circuits, so the right one is neither evaluated nor
// type-checked.
func logical(l, r node, name string, decisive bool) evalFn {
	settles := func(v value.Value) bool { return !v.IsNull() && v.IsTrue() == decisive }
	return func(rt *Runtime, row value.Row) (value.Value, error) {
		lv, err := l.load(rt, row)
		if err != nil {
			return value.Value{}, err
		}
		if !lv.IsNull() && lv.K != value.Bool {
			return value.Value{}, fmt.Errorf("%s requires boolean operands", name)
		}
		if settles(lv) {
			return value.NewBool(decisive), nil
		}
		rv, err := r.load(rt, row)
		if err != nil {
			return value.Value{}, err
		}
		if !rv.IsNull() && rv.K != value.Bool {
			return value.Value{}, fmt.Errorf("%s requires boolean operands", name)
		}
		if settles(rv) {
			return value.NewBool(decisive), nil
		}
		if lv.IsNull() || rv.IsNull() {
			return value.NewNull(), nil
		}
		return value.NewBool(!decisive), nil
	}
}

// Signs is the set of value.Compare outcomes a comparison operator
// accepts.
type Signs uint8

const (
	less Signs = 1 << iota
	equal
	greater
)

// Has reports whether the outcome cmp (negative, zero or positive) is
// accepted.
func (s Signs) Has(cmp int) bool {
	switch {
	case cmp < 0:
		return s&less != 0
	case cmp > 0:
		return s&greater != 0
	}
	return s&equal != 0
}

// Flip is the operator with its operands swapped: `c < x` is `x > c`.
// Compare is antisymmetric (NaN compares equal both ways), so the flip is
// exact.
func (s Signs) Flip() Signs {
	return s&equal | (s&less)<<2 | (s&greater)>>2
}

// Comparison returns the outcomes the comparison operator op accepts;
// ok=false for any other operator.
func Comparison(op string) (s Signs, ok bool) {
	s, ok = comparisons[op]
	return s, ok
}

var comparisons = map[string]Signs{
	"=": equal, "<>": less | greater,
	"<": less, "<=": less | equal,
	">": greater, ">=": greater | equal,
}

func (c *compiler) inList(x *ast.InList) evalFn {
	operand, not := c.compile(x.X), x.Not
	items := make([]node, len(x.List))
	for i, item := range x.List {
		items[i] = c.compile(item)
	}
	return func(rt *Runtime, row value.Row) (value.Value, error) {
		v, err := operand.load(rt, row)
		if err != nil {
			return value.Value{}, err
		}
		if v.IsNull() {
			return value.NewNull(), nil
		}
		sawNull := false
		for _, item := range items {
			w, err := item.load(rt, row)
			if err != nil {
				return value.Value{}, err
			}
			if w.IsNull() {
				sawNull = true
				continue
			}
			if cmp, ok := value.Compare(v, w); ok && cmp == 0 {
				return value.NewBool(!not), nil
			}
		}
		if sawNull {
			return value.NewNull(), nil
		}
		return value.NewBool(not), nil
	}
}

func (c *compiler) inSelect(x *ast.InSelect) evalFn {
	operand, sub, not := c.compile(x.X), x.Sub, x.Not
	return func(rt *Runtime, row value.Row) (value.Value, error) {
		if rt.Runner == nil {
			return value.Value{}, fmt.Errorf("subqueries not supported in this context")
		}
		v, err := operand.load(rt, row)
		if err != nil {
			return value.Value{}, err
		}
		if v.IsNull() {
			return value.NewNull(), nil
		}
		rows, err := c.subquery(rt, sub, row)
		if err != nil {
			return value.Value{}, err
		}
		sawNull := false
		for _, r := range rows {
			if len(r) != 1 {
				return value.Value{}, fmt.Errorf("IN subquery must return one column")
			}
			if r[0].IsNull() {
				sawNull = true
				continue
			}
			if cmp, ok := value.Compare(v, r[0]); ok && cmp == 0 {
				return value.NewBool(!not), nil
			}
		}
		if sawNull {
			return value.NewNull(), nil
		}
		return value.NewBool(not), nil
	}
}

func (c *compiler) between(x *ast.Between) evalFn {
	operand, lo, hi, not := c.compile(x.X), c.compile(x.Lo), c.compile(x.Hi), x.Not
	return func(rt *Runtime, row value.Row) (value.Value, error) {
		v, err := operand.load(rt, row)
		if err != nil {
			return value.Value{}, err
		}
		lv, err := lo.load(rt, row)
		if err != nil {
			return value.Value{}, err
		}
		hv, err := hi.load(rt, row)
		if err != nil {
			return value.Value{}, err
		}
		c1, ok1 := value.Compare(v, lv)
		c2, ok2 := value.Compare(v, hv)
		if !ok1 || !ok2 {
			return value.NewNull(), nil
		}
		return value.NewBool((c1 >= 0 && c2 <= 0) != not), nil
	}
}

func (c *compiler) like(x *ast.Like) evalFn {
	operand, pattern, not := c.compile(x.X), c.compile(x.Pattern), x.Not
	return func(rt *Runtime, row value.Row) (value.Value, error) {
		v, err := operand.load(rt, row)
		if err != nil {
			return value.Value{}, err
		}
		pat, err := pattern.load(rt, row)
		if err != nil {
			return value.Value{}, err
		}
		if v.IsNull() || pat.IsNull() {
			return value.NewNull(), nil
		}
		if v.K != value.Text || pat.K != value.Text {
			return value.Value{}, fmt.Errorf("LIKE requires text operands")
		}
		return value.NewBool(likeMatch(v.S, pat.S) != not), nil
	}
}

func (c *compiler) caseExpr(x *ast.Case) evalFn {
	type arm struct{ when, then node }
	var operand, otherwise *node
	if x.Operand != nil {
		n := c.compile(x.Operand)
		operand = &n
	}
	if x.Else != nil {
		n := c.compile(x.Else)
		otherwise = &n
	}
	arms := make([]arm, len(x.Whens))
	for i, w := range x.Whens {
		arms[i] = arm{when: c.compile(w.When), then: c.compile(w.Then)}
	}
	return func(rt *Runtime, row value.Row) (value.Value, error) {
		var subject value.Value
		if operand != nil {
			v, err := operand.load(rt, row)
			if err != nil {
				return value.Value{}, err
			}
			subject = v
		}
		for _, a := range arms {
			wv, err := a.when.load(rt, row)
			if err != nil {
				return value.Value{}, err
			}
			var match bool
			if operand != nil {
				cmp, ok := value.Compare(subject, wv)
				match = ok && cmp == 0
			} else {
				match = wv.IsTrue()
			}
			if match {
				return a.then.load(rt, row)
			}
		}
		if otherwise != nil {
			return otherwise.load(rt, row)
		}
		return value.NewNull(), nil
	}
}

// call compiles a function call the scope holds no value for. A quality
// function (see outerFunc) asks the outer environment first on every
// evaluation, since it is bound there; any other call never consults
// it, so calling one does not make a subquery look correlated. Then the
// arguments are evaluated and the built-in, chosen here, applied.
func (c *compiler) call(fc *ast.FuncCall) evalFn {
	args := make([]node, len(fc.Args))
	for i, a := range fc.Args {
		args[i] = c.compile(a)
	}
	name := strings.ToUpper(fc.Name)
	apply, outer := builtin(name), outerFunc(name)
	return func(rt *Runtime, row value.Row) (value.Value, error) {
		if outer && rt.Outer != nil {
			if v, handled, err := rt.Outer.Func(fc); handled || err != nil {
				return v, err
			}
		}
		vals := make([]value.Value, len(args))
		for i, a := range args {
			v, err := a.load(rt, row)
			if err != nil {
				return value.Value{}, err
			}
			vals[i] = v
		}
		return apply(vals)
	}
}

// outerFunc reports whether an outer environment may bind calls of the
// upper-cased function name: only the quality functions TOP, LEVEL and
// DISTANCE are bound by name (Env.Func).
func outerFunc(name string) bool {
	return name == "TOP" || name == "LEVEL" || name == "DISTANCE"
}

// likeMatch implements SQL LIKE with % (any run) and _ (one char).
func likeMatch(s, pat string) bool {
	// dynamic-programming match, iterative to avoid deep recursion
	var starIdx, matchIdx = -1, 0
	i, j := 0, 0
	for i < len(s) {
		switch {
		case j < len(pat) && (pat[j] == '_' || pat[j] == s[i]):
			i++
			j++
		case j < len(pat) && pat[j] == '%':
			starIdx = j
			matchIdx = i
			j++
		case starIdx >= 0:
			j = starIdx + 1
			matchIdx++
			i = matchIdx
		default:
			return false
		}
	}
	for j < len(pat) && pat[j] == '%' {
		j++
	}
	return j == len(pat)
}

// limitOne caps an EXISTS subquery at one row; existence needs no more.
func limitOne(sel *ast.Select) *ast.Select {
	if sel.Limit >= 0 && sel.Limit <= 1 {
		return sel
	}
	c := *sel
	c.Limit = 1
	return &c
}
