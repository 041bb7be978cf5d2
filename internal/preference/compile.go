package preference

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/value"
)

// Binder connects the preference compiler to a query-processing context:
// it turns expressions into row accessors and evaluates constants. The
// core package implements it over the engine's relations.
type Binder interface {
	// Getter compiles an expression into a per-row accessor.
	Getter(e ast.Expr) (Getter, error)
	// Cond compiles a boolean condition into a per-row predicate.
	Cond(e ast.Expr) (func(value.Row) (bool, error), error)
	// Const evaluates a row-independent expression (preference parameters
	// like the AROUND target or POS value lists).
	Const(e ast.Expr) (value.Value, error)
	// Column returns the column e is when e is a bare column reference
	// that resolves uniquely; ok=false otherwise.
	Column(e ast.Expr) (col int, ok bool)
	// Comparison recognizes the condition e as `col op bound` over one
	// column and a literal or parameter bound; ok=false otherwise.
	Comparison(e ast.Expr) (c Comparison, ok bool)
}

// Comparison is a condition `col op bound`, or `bound op col` stored
// flipped: a vectorized BMO tests column Col's vector against Bound,
// keeping the value.Compare outcomes Accept lists. Bound is a literal
// or a parameter, evaluated at execution.
type Comparison struct {
	Col    int
	Accept expr.Signs
	Bound  *expr.Program
}

// slot returns the Slot of operand e.
func slot(b Binder, e ast.Expr) Slot {
	if col, ok := b.Column(e); ok {
		return ColumnSlot(col)
	}
	return Slot{}
}

// Compile translates a parsed PREFERRING term into an executable
// Preference, registering every base preference in reg (when non-nil) so
// quality functions can find them.
func Compile(p ast.Pref, b Binder, reg *Registry) (Preference, error) {
	switch x := p.(type) {
	case *ast.PrefAround:
		get, err := b.Getter(x.X)
		if err != nil {
			return nil, err
		}
		target, err := constNumber(b, x.Target, "AROUND target")
		if err != nil {
			return nil, err
		}
		pref := &Around{Get: get, Target: target, Slot: slot(b, x.X), Label: x.X.SQL(), Attrs: provenance(x.X)}
		register(reg, pref)
		return pref, nil

	case *ast.PrefBetween:
		get, err := b.Getter(x.X)
		if err != nil {
			return nil, err
		}
		lo, err := constNumber(b, x.Lo, "BETWEEN lower bound")
		if err != nil {
			return nil, err
		}
		hi, err := constNumber(b, x.Hi, "BETWEEN upper bound")
		if err != nil {
			return nil, err
		}
		if lo > hi {
			return nil, fmt.Errorf("BETWEEN bounds out of order: %g > %g", lo, hi)
		}
		pref := &Between{Get: get, Lo: lo, Hi: hi, Slot: slot(b, x.X), Label: x.X.SQL(), Attrs: provenance(x.X)}
		register(reg, pref)
		return pref, nil

	case *ast.PrefLowest:
		get, err := b.Getter(x.X)
		if err != nil {
			return nil, err
		}
		pref := &Lowest{Get: get, Slot: slot(b, x.X), Label: x.X.SQL(), Attrs: provenance(x.X)}
		register(reg, pref)
		return pref, nil

	case *ast.PrefHighest:
		get, err := b.Getter(x.X)
		if err != nil {
			return nil, err
		}
		pref := &Highest{Get: get, Slot: slot(b, x.X), Label: x.X.SQL(), Attrs: provenance(x.X)}
		register(reg, pref)
		return pref, nil

	case *ast.PrefPos:
		get, err := b.Getter(x.X)
		if err != nil {
			return nil, err
		}
		vals, err := constList(b, x.Values)
		if err != nil {
			return nil, err
		}
		pref := &Pos{Get: get, Set: NewSet(vals), Slot: slot(b, x.X), Label: x.X.SQL(), Vals: vals, Attrs: provenance(x.X)}
		register(reg, pref)
		return pref, nil

	case *ast.PrefNeg:
		get, err := b.Getter(x.X)
		if err != nil {
			return nil, err
		}
		vals, err := constList(b, x.Values)
		if err != nil {
			return nil, err
		}
		pref := &Neg{Get: get, Set: NewSet(vals), Slot: slot(b, x.X), Label: x.X.SQL(), Vals: vals, Attrs: provenance(x.X)}
		register(reg, pref)
		return pref, nil

	case *ast.PrefContains:
		get, err := b.Getter(x.X)
		if err != nil {
			return nil, err
		}
		vals, err := constList(b, x.Terms)
		if err != nil {
			return nil, err
		}
		terms := make([]string, len(vals))
		for i, v := range vals {
			terms[i] = v.String()
		}
		pref := &Contains{Get: get, Terms: terms, Label: x.X.SQL(), Attrs: provenance(x.X)}
		register(reg, pref)
		return pref, nil

	case *ast.PrefBool:
		cond, err := b.Cond(x.Cond)
		if err != nil {
			return nil, err
		}
		pref := &Bool{Cond: cond, Label: x.Cond.SQL(), Attrs: provenance(x.Cond)}
		if c, ok := b.Comparison(x.Cond); ok {
			pref.Cmp = &c
		}
		register(reg, pref)
		return pref, nil

	case *ast.PrefExplicit:
		get, err := b.Getter(x.X)
		if err != nil {
			return nil, err
		}
		edges := make([][2]value.Value, len(x.Edges))
		for i, e := range x.Edges {
			better, err := b.Const(e.Better)
			if err != nil {
				return nil, err
			}
			worse, err := b.Const(e.Worse)
			if err != nil {
				return nil, err
			}
			edges[i] = [2]value.Value{better, worse}
		}
		pref, err := NewExplicit(get, x.X.SQL(), edges)
		if err != nil {
			return nil, err
		}
		pref.Attrs, pref.Slot = provenance(x.X), slot(b, x.X)
		register(reg, pref)
		return pref, nil

	case *ast.PrefElse:
		return compileElse(x, b, reg)

	case *ast.PrefPareto:
		// Pareto accumulation is associative: a parenthesized or named
		// group's components join this accumulation's.
		var parts []Preference
		for _, q := range x.Parts {
			c, err := Compile(q, b, reg)
			if err != nil {
				return nil, err
			}
			if p, ok := c.(*Pareto); ok {
				parts = append(parts, p.Parts...)
			} else {
				parts = append(parts, c)
			}
		}
		return &Pareto{Parts: parts}, nil

	case *ast.PrefCascade:
		parts := make([]Preference, len(x.Parts))
		for i, q := range x.Parts {
			c, err := Compile(q, b, reg)
			if err != nil {
				return nil, err
			}
			parts[i] = c
		}
		return &Cascade{Parts: parts}, nil
	}
	return nil, fmt.Errorf("preference: cannot compile %T", p)
}

// compileElse flattens a chain of ELSE layers into one Layered preference.
func compileElse(e *ast.PrefElse, b Binder, reg *Registry) (Preference, error) {
	var layerNodes []ast.Pref
	var flatten func(p ast.Pref)
	flatten = func(p ast.Pref) {
		if el, ok := p.(*ast.PrefElse); ok {
			flatten(el.First)
			flatten(el.Second)
			return
		}
		layerNodes = append(layerNodes, p)
	}
	flatten(e)

	layers := make([]Scored, len(layerNodes))
	label := ""
	for i, node := range layerNodes {
		// Compile layers without registering them individually: the
		// layered preference as a whole owns the attribute.
		c, err := Compile(node, b, nil)
		if err != nil {
			return nil, err
		}
		s, ok := c.(Scored)
		if !ok {
			return nil, fmt.Errorf("ELSE layers must be score-based base preferences, got %s", c.Describe())
		}
		if !s.HasOptimum() {
			return nil, fmt.Errorf("ELSE cannot layer %s: LOWEST/HIGHEST have no a-priori perfect match", s.Describe())
		}
		if label == "" {
			label = s.Attr()
		}
		layers[i] = s
	}
	pref := &Layered{Layers: layers, Label: label}
	for _, l := range layers {
		if a, ok := AttributesOf(l); ok {
			pref.Attrs = append(pref.Attrs, a...)
		}
	}
	register(reg, pref)
	return pref, nil
}

func register(reg *Registry, p Preference) {
	if reg == nil {
		return
	}
	switch x := p.(type) {
	case Scored:
		reg.Add(x.Attr(), p)
	case *Explicit:
		reg.Add(x.Attr(), p)
	}
}

// provenance lists the column references of an attribute expression in
// the `name` / `qualifier.name` form the pushdown rewriter resolves
// against plan schemas. When the expression embeds a subquery (whose
// column set the compiler cannot see) or reads no column at all, it
// returns the expression's SQL text instead — a label that resolves to
// no schema column, so pushdown is conservatively refused.
func provenance(e ast.Expr) []string {
	cols, opaque := exprColumns(e)
	if opaque || len(cols) == 0 {
		return []string{e.SQL()}
	}
	return cols
}

// exprColumns collects the column references of e; opaque reports a
// subquery or unknown node, which makes the provenance unknowable.
func exprColumns(e ast.Expr) (cols []string, opaque bool) {
	ast.Inspect(e, func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.Column:
			if x.Table != "" {
				cols = append(cols, x.Table+"."+x.Name)
			} else {
				cols = append(cols, x.Name)
			}
		case *ast.Literal, *ast.Star, *ast.Param, *ast.Unary, *ast.Binary, *ast.IsNull,
			*ast.InList, *ast.Between, *ast.Like, *ast.Case, *ast.FuncCall:
		default: // subqueries and unknown nodes
			opaque = true
		}
		return true
	})
	return cols, opaque
}

func constNumber(b Binder, e ast.Expr, what string) (float64, error) {
	v, err := b.Const(e)
	if err != nil {
		return 0, err
	}
	if v.K == value.Text {
		// The paper writes dates as plain strings: AROUND '1999/7/3'.
		if d, derr := value.ParseDate(v.S); derr == nil {
			return d.Num(), nil
		}
	}
	n := v.Num()
	if math.IsNaN(n) {
		return 0, fmt.Errorf("%s must be numeric, got %s", what, v.K)
	}
	return n, nil
}

func constList(b Binder, exprs []ast.Expr) ([]value.Value, error) {
	out := make([]value.Value, len(exprs))
	for i, e := range exprs {
		v, err := b.Const(e)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Standalone binder for single-table rows (tests, simple embedding)
// ---------------------------------------------------------------------------

// ColBinder is a Binder over rows of a fixed column layout. Only bare
// column references and literals are supported — column qualifiers are
// ignored, conditions must be `operand comparison literal` — and the
// accessors report a row too short for their column instead of panicking;
// the core package provides a full expression binder. Within those limits
// the work is the shared expression compiler's.
type ColBinder struct {
	Cols []string // column names, position = row index
}

// operand checks the operand restriction on e — a literal, or a column of
// the layout, whose qualifier (if any) is dropped — and returns it with the
// scope to compile it against.
func (cb *ColBinder) operand(e ast.Expr) (ast.Expr, expr.Scope, error) {
	scope := expr.Scope{Cols: make([]expr.Col, len(cb.Cols))}
	for i, name := range cb.Cols {
		scope.Cols[i].Name = name
	}
	switch x := e.(type) {
	case *ast.Literal:
		return x, scope, nil
	case *ast.Column:
		if _, ok := scope.Resolve("", x.Name); !ok {
			return nil, scope, fmt.Errorf("unknown column %s", x.Name)
		}
		return &ast.Column{Name: x.Name}, scope, nil
	}
	return nil, scope, fmt.Errorf("ColBinder supports only column references, got %s", e.SQL())
}

// Getter implements Binder for bare column references.
func (cb *ColBinder) Getter(e ast.Expr) (Getter, error) {
	e, scope, err := cb.operand(e)
	if err != nil {
		return nil, err
	}
	return expr.Compile(e, scope).Bind(nil), nil
}

// Cond implements Binder for simple comparisons column-op-literal.
func (cb *ColBinder) Cond(e ast.Expr) (func(value.Row) (bool, error), error) {
	bin, ok := e.(*ast.Binary)
	if !ok {
		return nil, fmt.Errorf("ColBinder supports only binary comparisons, got %s", e.SQL())
	}
	switch bin.Op {
	case "=", "<>", "<", "<=", ">", ">=":
	default:
		return nil, fmt.Errorf("unsupported operator %q", bin.Op)
	}
	lhs, scope, err := cb.operand(bin.L)
	if err != nil {
		return nil, err
	}
	rhs, err := cb.Const(bin.R)
	if err != nil {
		return nil, err
	}
	prog := expr.Compile(&ast.Binary{Op: bin.Op, L: lhs, R: &ast.Literal{Val: rhs}}, scope)
	return func(r value.Row) (bool, error) { return prog.EvalBool(nil, r) }, nil
}

// Column implements Binder: the one column of the layout named like e.
func (cb *ColBinder) Column(e ast.Expr) (int, bool) {
	c, ok := e.(*ast.Column)
	if !ok {
		return 0, false
	}
	col, n := -1, 0
	for i, name := range cb.Cols {
		if strings.EqualFold(name, c.Name) {
			col, n = i, n+1
		}
	}
	return col, n == 1
}

// Comparison implements Binder for the conditions Cond accepts whose
// left operand is a column.
func (cb *ColBinder) Comparison(e ast.Expr) (Comparison, bool) {
	bin, ok := e.(*ast.Binary)
	if !ok {
		return Comparison{}, false
	}
	accept, ok := expr.Comparison(bin.Op)
	col, isCol := cb.Column(bin.L)
	bound, isLit := bin.R.(*ast.Literal)
	if !ok || !isCol || !isLit {
		return Comparison{}, false
	}
	return Comparison{Col: col, Accept: accept, Bound: expr.Compile(bound, expr.Scope{})}, true
}

// Const implements Binder for literal expressions.
func (cb *ColBinder) Const(e ast.Expr) (value.Value, error) {
	lit, ok := e.(*ast.Literal)
	if !ok {
		return value.Value{}, fmt.Errorf("expected literal, got %s", e.SQL())
	}
	return lit.Val, nil
}
