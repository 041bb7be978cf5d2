// Package rewrite implements the Preference SQL Optimizer of §3.2: it
// translates a PREFERRING query into standard SQL92 — an auxiliary view
// annotating each tuple with quality levels (CASE WHEN ... / ABS(...)
// expressions) plus a correlated NOT EXISTS dominance test, exactly the
// pattern shown for the Cars example in the paper.
//
// Cascades rewrite into a chain of views, one BMO stage per cascade part
// ("applying preferences one after the other"). The result is a Plan:
// CREATE VIEW setup statements, one final SELECT, and DROP VIEW teardown.
// Everything emitted is plain SQL92 entry level and runs unchanged on the
// repro engine (or, in the paper's world, on any host database).
package rewrite

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/value"
)

// Plan is the rewritten form of one preference query.
type Plan struct {
	Setup    []ast.Stmt  // CREATE VIEW statements, in order
	Query    *ast.Select // final plain-SQL SELECT
	Teardown []ast.Stmt  // DROP VIEW statements, reverse order
}

// Script renders the full plan as a ';'-separated SQL script (for display,
// logging, and shipping to an external SQL92 database).
func (p *Plan) Script() string {
	var b strings.Builder
	for _, s := range p.Setup {
		b.WriteString(s.SQL())
		b.WriteString(";\n")
	}
	b.WriteString(p.Query.SQL())
	b.WriteString(";\n")
	for _, s := range p.Teardown {
		b.WriteString(s.SQL())
		b.WriteString(";\n")
	}
	return b.String()
}

// viewSeq numbers generated views so concurrent rewrites never collide.
var viewSeq atomic.Uint64

// Rewrite translates a preference query into a Plan. baseColumns must list
// the output column names of the query's FROM/WHERE part (the caller knows
// the catalog; the rewriter is schema-agnostic otherwise).
func Rewrite(sel *ast.Select, baseColumns []string) (*Plan, error) {
	if !sel.HasPreference() {
		return nil, fmt.Errorf("rewrite: query has no PREFERRING clause")
	}
	r := &rewriter{baseCols: baseColumns, seq: viewSeq.Add(1)}
	return r.rewrite(sel)
}

// basePref describes one base preference occurrence with its level column.
type basePref struct {
	ordinal  int    // 1-based, names the _lvl_/_exv_ column
	label    string // attribute label (X.SQL()) for quality functions
	discrete bool
	relative bool // LOWEST/HIGHEST: optimum depends on candidate set
	explicit *explicitInfo
}

func (bp *basePref) lvlCol() string { return fmt.Sprintf("_lvl_%d", bp.ordinal) }
func (bp *basePref) exvCol() string { return fmt.Sprintf("_exv_%d", bp.ordinal) }

// explicitInfo carries the better-than closure of an EXPLICIT preference.
type explicitInfo struct {
	mentioned []value.Value
	pairs     [][2]value.Value // transitive closure: better, worse
	depth     map[string]int
	maxDepth  int
}

type rewriter struct {
	baseCols []string
	seq      uint64
	prefs    []*basePref          // all base preferences, in discovery order
	byLabel  map[string]*basePref // first registration per attribute label
	auxView  string               // name of the level-annotated base view
}

func (r *rewriter) viewName(kind string, i int) string {
	return fmt.Sprintf("_pref_%s_%d_%d", kind, r.seq, i)
}

func (r *rewriter) rewrite(sel *ast.Select) (*Plan, error) {
	// 1. Normalize the preference tree into cascade stages of Pareto parts.
	stages, err := normalize(sel.Preferring)
	if err != nil {
		return nil, err
	}

	// 2. Collect base preferences and their level expressions.
	r.byLabel = map[string]*basePref{}
	type stagePlan struct {
		parts []*basePref
	}
	var stagePlans []stagePlan
	var levelItems []ast.SelectItem
	for _, stage := range stages {
		sp := stagePlan{}
		for _, part := range stage {
			bp, items, err := r.compileBase(part)
			if err != nil {
				return nil, err
			}
			sp.parts = append(sp.parts, bp)
			levelItems = append(levelItems, items...)
		}
		stagePlans = append(stagePlans, sp)
	}

	// 3. Aux view: base columns + level columns over original FROM/WHERE.
	r.auxView = r.viewName("aux", 0)
	auxItems := make([]ast.SelectItem, 0, len(r.baseCols)+len(levelItems))
	for _, c := range r.baseCols {
		auxItems = append(auxItems, ast.SelectItem{Expr: &ast.Column{Name: c}})
	}
	auxItems = append(auxItems, levelItems...)
	auxSel := &ast.Select{
		Items: auxItems,
		From:  sel.From,
		Where: sel.Where,
		Limit: -1,
	}
	setup := []ast.Stmt{&ast.CreateView{Name: r.auxView, Sel: auxSel}}

	// 4. One BMO stage view per cascade part.
	current := r.auxView
	for i, sp := range stagePlans {
		dom, err := r.dominance(sp.parts, "A2", "A1", sel.Grouping)
		if err != nil {
			return nil, err
		}
		stageName := r.viewName("stage", i+1)
		stageSel := &ast.Select{
			Items: []ast.SelectItem{{Expr: &ast.Star{}}},
			From:  []ast.TableRef{&ast.BaseTable{Name: current, Alias: "A1"}},
			Where: &ast.Exists{
				Not: true,
				Sub: &ast.Select{
					Items: []ast.SelectItem{{Expr: &ast.Literal{Val: value.NewInt(1)}}},
					From:  []ast.TableRef{&ast.BaseTable{Name: current, Alias: "A2"}},
					Where: dom,
					Limit: -1,
				},
			},
			Limit: -1,
		}
		setup = append(setup, &ast.CreateView{Name: stageName, Sel: stageSel})
		current = stageName
	}

	// 5. Final projection: original select items (star expands to the base
	// columns so level columns stay internal), BUT ONLY as WHERE, original
	// ORDER BY / LIMIT / DISTINCT.
	items, err := r.finalItems(sel.Items)
	if err != nil {
		return nil, err
	}
	final := &ast.Select{
		Distinct: sel.Distinct,
		Items:    items,
		From:     []ast.TableRef{&ast.BaseTable{Name: current}},
		OrderBy:  nil,
		Limit:    sel.Limit,
		Offset:   sel.Offset,
	}
	if sel.ButOnly != nil {
		cond, err := r.rewriteQualityFuncs(sel.ButOnly)
		if err != nil {
			return nil, err
		}
		final.Where = cond
	}
	for _, ob := range sel.OrderBy {
		e, err := r.rewriteQualityFuncs(ob.Expr)
		if err != nil {
			return nil, err
		}
		final.OrderBy = append(final.OrderBy, ast.OrderItem{Expr: e, Desc: ob.Desc})
	}

	// 6. Teardown in reverse order.
	var teardown []ast.Stmt
	for i := len(setup) - 1; i >= 0; i-- {
		cv := setup[i].(*ast.CreateView)
		teardown = append(teardown, &ast.Drop{Kind: "VIEW", Name: cv.Name})
	}
	return &Plan{Setup: setup, Query: final, Teardown: teardown}, nil
}

// normalize flattens the preference tree into cascade stages, each a list
// of Pareto-accumulated base preference terms. Cascades nested inside
// Pareto accumulation are not expressible in the staged rewriting and
// fall back to native evaluation (the caller handles the error).
func normalize(p ast.Pref) ([][]ast.Pref, error) {
	var stages [][]ast.Pref
	cascadeParts := []ast.Pref{p}
	if c, ok := p.(*ast.PrefCascade); ok {
		cascadeParts = c.Parts
	}
	for _, part := range cascadeParts {
		var paretoParts []ast.Pref
		switch x := part.(type) {
		case *ast.PrefCascade:
			return nil, fmt.Errorf("rewrite: nested CASCADE inside a cascade stage")
		case *ast.PrefPareto:
			for _, q := range x.Parts {
				switch q.(type) {
				case *ast.PrefCascade:
					return nil, fmt.Errorf("rewrite: CASCADE nested inside Pareto accumulation is not SQL-rewritable")
				case *ast.PrefPareto:
					// flatten nested pareto
					paretoParts = append(paretoParts, q.(*ast.PrefPareto).Parts...)
				default:
					paretoParts = append(paretoParts, q)
				}
			}
		default:
			paretoParts = []ast.Pref{part}
		}
		stages = append(stages, paretoParts)
	}
	return stages, nil
}

// compileBase assigns the base preference its ordinal and produces the
// select items (level or explicit-value columns) for the aux view.
func (r *rewriter) compileBase(p ast.Pref) (*basePref, []ast.SelectItem, error) {
	bp := &basePref{ordinal: len(r.prefs) + 1}
	var items []ast.SelectItem
	// NULL scores +Inf, as natively, so it ties with an infinite level:
	// LOWEST of +Inf, HIGHEST of -Inf, an infinite AROUND or BETWEEN
	// distance. +Inf has no literal spelling, and Plan.Script() must
	// stay parseable, so the level is an overflowing product.
	worst := &ast.Binary{Op: "*", L: &ast.Literal{Val: value.NewFloat(1e308)}, R: &ast.Literal{Val: value.NewInt(10)}}

	nullGuard := func(x ast.Expr, e ast.Expr) ast.Expr {
		return &ast.Case{
			Whens: []ast.WhenClause{{When: &ast.IsNull{X: x}, Then: worst}},
			Else:  e,
		}
	}

	switch x := p.(type) {
	case *ast.PrefAround:
		bp.label = x.X.SQL()
		// The level is |x - target| where x differs from the target and
		// 0 where it does not, so x equal to an infinite target levels
		// 0 rather than Inf - Inf (NaN), as natively.
		target := asNumericLiteral(x.Target)
		differs := &ast.Binary{Op: "OR",
			L: &ast.Binary{Op: "<", L: x.X, R: target}, R: &ast.Binary{Op: ">", L: x.X, R: target}}
		e := &ast.Case{
			Whens: []ast.WhenClause{
				{When: &ast.IsNull{X: x.X}, Then: worst},
				{When: differs, Then: &ast.FuncCall{Name: "ABS", Args: []ast.Expr{&ast.Binary{Op: "-", L: x.X, R: target}}}},
			},
			Else: &ast.Literal{Val: value.NewInt(0)},
		}
		items = append(items, ast.SelectItem{Expr: e, Alias: bp.lvlCol()})

	case *ast.PrefBetween:
		bp.label = x.X.SQL()
		lo, hi := asNumericLiteral(x.Lo), asNumericLiteral(x.Hi)
		e := &ast.Case{
			Whens: []ast.WhenClause{
				{When: &ast.IsNull{X: x.X}, Then: worst},
				{When: &ast.Binary{Op: "<", L: x.X, R: lo}, Then: &ast.Binary{Op: "-", L: lo, R: x.X}},
				{When: &ast.Binary{Op: ">", L: x.X, R: hi}, Then: &ast.Binary{Op: "-", L: x.X, R: hi}},
			},
			Else: &ast.Literal{Val: value.NewInt(0)},
		}
		items = append(items, ast.SelectItem{Expr: e, Alias: bp.lvlCol()})

	case *ast.PrefLowest:
		bp.label = x.X.SQL()
		bp.relative = true
		items = append(items, ast.SelectItem{Expr: nullGuard(x.X, x.X), Alias: bp.lvlCol()})

	case *ast.PrefHighest:
		bp.label = x.X.SQL()
		bp.relative = true
		// The level is -x. `-` refuses BOOLEAN, which natively scores
		// as 0/1, so TRUE and FALSE map to -1 and 0 first. `=` compares
		// numerically, so 1 and 0 take these branches too, with the
		// level 0 - x gives them. NaN compares equal to every number,
		// so each branch also requires x to differ from the other
		// boolean: NaN falls through to 0 - NaN.
		t, f := &ast.Literal{Val: value.NewBool(true)}, &ast.Literal{Val: value.NewBool(false)}
		is := func(b, not ast.Expr) ast.Expr {
			return &ast.Binary{Op: "AND", L: &ast.Binary{Op: "=", L: x.X, R: b}, R: &ast.Binary{Op: "<>", L: x.X, R: not}}
		}
		neg := &ast.Case{
			Whens: []ast.WhenClause{
				{When: is(t, f), Then: &ast.Literal{Val: value.NewInt(-1)}},
				{When: is(f, t), Then: &ast.Literal{Val: value.NewInt(0)}},
			},
			Else: &ast.Binary{Op: "-", L: &ast.Literal{Val: value.NewInt(0)}, R: x.X},
		}
		items = append(items, ast.SelectItem{Expr: nullGuard(x.X, neg), Alias: bp.lvlCol()})

	case *ast.PrefPos:
		bp.label = x.X.SQL()
		bp.discrete = true
		e := &ast.Case{
			Whens: []ast.WhenClause{
				{When: &ast.IsNull{X: x.X}, Then: worst},
				{When: &ast.InList{X: x.X, List: x.Values}, Then: &ast.Literal{Val: value.NewInt(0)}},
			},
			Else: &ast.Literal{Val: value.NewInt(1)},
		}
		items = append(items, ast.SelectItem{Expr: e, Alias: bp.lvlCol()})

	case *ast.PrefNeg:
		bp.label = x.X.SQL()
		bp.discrete = true
		e := &ast.Case{
			Whens: []ast.WhenClause{
				{When: &ast.IsNull{X: x.X}, Then: worst},
				{When: &ast.InList{X: x.X, List: x.Values}, Then: &ast.Literal{Val: value.NewInt(1)}},
			},
			Else: &ast.Literal{Val: value.NewInt(0)},
		}
		items = append(items, ast.SelectItem{Expr: e, Alias: bp.lvlCol()})

	case *ast.PrefContains:
		bp.label = x.X.SQL()
		bp.discrete = true
		var sum ast.Expr
		for _, term := range x.Terms {
			lit, ok := term.(*ast.Literal)
			if !ok {
				return nil, nil, fmt.Errorf("rewrite: CONTAINS terms must be literals")
			}
			pat := &ast.Literal{Val: value.NewText("%" + strings.ToLower(lit.Val.String()) + "%")}
			miss := &ast.Case{
				Whens: []ast.WhenClause{{
					When: &ast.Like{X: &ast.FuncCall{Name: "LOWER", Args: []ast.Expr{x.X}}, Pattern: pat},
					Then: &ast.Literal{Val: value.NewInt(0)},
				}},
				Else: &ast.Literal{Val: value.NewInt(1)},
			}
			if sum == nil {
				sum = miss
			} else {
				sum = &ast.Binary{Op: "+", L: sum, R: miss}
			}
		}
		items = append(items, ast.SelectItem{Expr: nullGuard(x.X, sum), Alias: bp.lvlCol()})

	case *ast.PrefBool:
		bp.label = x.Cond.SQL()
		bp.discrete = true
		e := &ast.Case{
			Whens: []ast.WhenClause{{When: x.Cond, Then: &ast.Literal{Val: value.NewInt(0)}}},
			Else:  &ast.Literal{Val: value.NewInt(1)},
		}
		items = append(items, ast.SelectItem{Expr: e, Alias: bp.lvlCol()})

	case *ast.PrefElse:
		layers, err := flattenElse(x)
		if err != nil {
			return nil, nil, err
		}
		bp.discrete = true
		var whens []ast.WhenClause
		for i, layer := range layers {
			perfect, label, err := perfectCond(layer)
			if err != nil {
				return nil, nil, err
			}
			if bp.label == "" {
				bp.label = label
			}
			whens = append(whens, ast.WhenClause{When: perfect, Then: &ast.Literal{Val: value.NewInt(int64(i))}})
		}
		e := &ast.Case{Whens: whens, Else: &ast.Literal{Val: value.NewInt(int64(len(layers)))}}
		items = append(items, ast.SelectItem{Expr: e, Alias: bp.lvlCol()})

	case *ast.PrefExplicit:
		bp.label = x.X.SQL()
		info, err := buildExplicitInfo(x)
		if err != nil {
			return nil, nil, err
		}
		bp.explicit = info
		items = append(items, ast.SelectItem{Expr: x.X, Alias: bp.exvCol()})

	default:
		return nil, nil, fmt.Errorf("rewrite: unsupported preference term %T", p)
	}

	r.prefs = append(r.prefs, bp)
	key := strings.ToLower(bp.label)
	if _, ok := r.byLabel[key]; !ok {
		r.byLabel[key] = bp
	}
	return bp, items, nil
}

// asNumericLiteral converts text literals that parse as dates (the paper
// writes AROUND '1999/7/3') into DATE literals so arithmetic works.
func asNumericLiteral(e ast.Expr) ast.Expr {
	lit, ok := e.(*ast.Literal)
	if !ok || lit.Val.K != value.Text {
		return e
	}
	if d, err := value.ParseDate(lit.Val.S); err == nil {
		return &ast.Literal{Val: d}
	}
	return e
}

func flattenElse(e *ast.PrefElse) ([]ast.Pref, error) {
	var out []ast.Pref
	var walk func(p ast.Pref) error
	walk = func(p ast.Pref) error {
		if el, ok := p.(*ast.PrefElse); ok {
			if err := walk(el.First); err != nil {
				return err
			}
			return walk(el.Second)
		}
		out = append(out, p)
		return nil
	}
	if err := walk(e); err != nil {
		return nil, err
	}
	return out, nil
}

// perfectCond builds the SQL condition "this layer is a perfect match".
func perfectCond(p ast.Pref) (ast.Expr, string, error) {
	switch x := p.(type) {
	case *ast.PrefPos:
		return &ast.InList{X: x.X, List: x.Values}, x.X.SQL(), nil
	case *ast.PrefNeg:
		return &ast.Binary{Op: "AND",
			L: &ast.IsNull{X: x.X, Not: true},
			R: &ast.InList{X: x.X, List: x.Values, Not: true}}, x.X.SQL(), nil
	case *ast.PrefAround:
		return &ast.Binary{Op: "=", L: x.X, R: asNumericLiteral(x.Target)}, x.X.SQL(), nil
	case *ast.PrefBetween:
		return &ast.Between{X: x.X, Lo: asNumericLiteral(x.Lo), Hi: asNumericLiteral(x.Hi)}, x.X.SQL(), nil
	case *ast.PrefBool:
		return x.Cond, x.Cond.SQL(), nil
	}
	return nil, "", fmt.Errorf("rewrite: %T cannot appear as an ELSE layer", p)
}

func buildExplicitInfo(x *ast.PrefExplicit) (*explicitInfo, error) {
	adj := map[string][]string{}
	vals := map[string]value.Value{}
	keyOf := func(e ast.Expr) (string, error) {
		lit, ok := e.(*ast.Literal)
		if !ok {
			return "", fmt.Errorf("rewrite: EXPLICIT values must be literals")
		}
		k := lit.Val.Key()
		vals[k] = lit.Val
		return k, nil
	}
	for _, e := range x.Edges {
		b, err := keyOf(e.Better)
		if err != nil {
			return nil, err
		}
		w, err := keyOf(e.Worse)
		if err != nil {
			return nil, err
		}
		adj[b] = append(adj[b], w)
	}
	info := &explicitInfo{depth: map[string]int{}}
	for k := range vals {
		info.mentioned = append(info.mentioned, vals[k])
	}
	// closure with cycle check
	for n := range vals {
		reach := map[string]bool{}
		stack := append([]string{}, adj[n]...)
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if reach[top] {
				continue
			}
			reach[top] = true
			stack = append(stack, adj[top]...)
		}
		if reach[n] {
			return nil, fmt.Errorf("rewrite: EXPLICIT preference has a cycle")
		}
		for w := range reach {
			info.pairs = append(info.pairs, [2]value.Value{vals[n], vals[w]})
		}
	}
	for changed := true; changed; {
		changed = false
		for b, ws := range adj {
			for _, w := range ws {
				if d := info.depth[b] + 1; d > info.depth[w] {
					info.depth[w] = d
					if d > info.maxDepth {
						info.maxDepth = d
					}
					changed = true
				}
			}
		}
	}
	return info, nil
}

// ---------------------------------------------------------------------------
// Dominance condition
// ---------------------------------------------------------------------------

// dominance builds the SQL predicate "row a2 dominates row a1" for one
// Pareto stage: equal-or-better in every part AND strictly better in one,
// restricted to the same GROUPING partition.
func (r *rewriter) dominance(parts []*basePref, a2, a1 string, grouping []*ast.Column) (ast.Expr, error) {
	var eqbs, sbs []ast.Expr
	for _, bp := range parts {
		eqb, sb := r.partPredicates(bp, a2, a1)
		eqbs = append(eqbs, eqb)
		sbs = append(sbs, sb)
	}
	cond := andAll(eqbs)
	cond = &ast.Binary{Op: "AND", L: cond, R: orAll(sbs)}
	for _, g := range grouping {
		c2 := &ast.Column{Table: a2, Name: g.Name}
		c1 := &ast.Column{Table: a1, Name: g.Name}
		same := &ast.Binary{Op: "OR",
			L: &ast.Binary{Op: "=", L: c2, R: c1},
			R: &ast.Binary{Op: "AND", L: &ast.IsNull{X: c2}, R: &ast.IsNull{X: c1}},
		}
		cond = &ast.Binary{Op: "AND", L: same, R: cond}
	}
	return cond, nil
}

// partPredicates returns (equal-or-better, strictly-better) predicates
// comparing alias a2 against alias a1 for one base preference.
func (r *rewriter) partPredicates(bp *basePref, a2, a1 string) (eqb, sb ast.Expr) {
	if bp.explicit == nil {
		c2 := &ast.Column{Table: a2, Name: bp.lvlCol()}
		c1 := &ast.Column{Table: a1, Name: bp.lvlCol()}
		return &ast.Binary{Op: "<=", L: c2, R: c1}, &ast.Binary{Op: "<", L: c2, R: c1}
	}
	info := bp.explicit
	c2 := &ast.Column{Table: a2, Name: bp.exvCol()}
	c1 := &ast.Column{Table: a1, Name: bp.exvCol()}
	mentionedList := func(c ast.Expr) *ast.InList {
		list := make([]ast.Expr, len(info.mentioned))
		for i, v := range info.mentioned {
			list[i] = &ast.Literal{Val: v}
		}
		return &ast.InList{X: c, List: list}
	}
	unmentioned := func(c *ast.Column) ast.Expr {
		in := mentionedList(c)
		notIn := &ast.InList{X: c, List: in.List, Not: true}
		return &ast.Binary{Op: "OR", L: &ast.IsNull{X: c}, R: notIn}
	}
	// strictly better: closure pair match, or mentioned beats unmentioned
	var pairConds []ast.Expr
	for _, pr := range info.pairs {
		pairConds = append(pairConds, &ast.Binary{Op: "AND",
			L: &ast.Binary{Op: "=", L: c2, R: &ast.Literal{Val: pr[0]}},
			R: &ast.Binary{Op: "=", L: c1, R: &ast.Literal{Val: pr[1]}},
		})
	}
	mentionedVsUn := &ast.Binary{Op: "AND", L: mentionedList(c2), R: unmentioned(c1)}
	pairConds = append(pairConds, mentionedVsUn)
	sb = orAll(pairConds)
	// equal: same value, or both unmentioned
	eq := &ast.Binary{Op: "OR",
		L: &ast.Binary{Op: "=", L: c2, R: c1},
		R: &ast.Binary{Op: "AND", L: unmentioned(c2), R: unmentioned(c1)},
	}
	eqb = &ast.Binary{Op: "OR", L: eq, R: sb}
	return eqb, sb
}

func andAll(xs []ast.Expr) ast.Expr {
	out := xs[0]
	for _, x := range xs[1:] {
		out = &ast.Binary{Op: "AND", L: out, R: x}
	}
	return out
}

func orAll(xs []ast.Expr) ast.Expr {
	out := xs[0]
	for _, x := range xs[1:] {
		out = &ast.Binary{Op: "OR", L: out, R: x}
	}
	return out
}

// ---------------------------------------------------------------------------
// Quality functions and final projection
// ---------------------------------------------------------------------------

// finalItems maps the original SELECT list onto the last stage view:
// stars expand to the base columns (hiding the internal level columns) and
// quality functions become level-column expressions.
func (r *rewriter) finalItems(items []ast.SelectItem) ([]ast.SelectItem, error) {
	var out []ast.SelectItem
	for _, it := range items {
		if _, ok := it.Expr.(*ast.Star); ok {
			for _, c := range r.baseCols {
				out = append(out, ast.SelectItem{Expr: &ast.Column{Name: c}})
			}
			continue
		}
		e, err := r.rewriteQualityFuncs(it.Expr)
		if err != nil {
			return nil, err
		}
		alias := it.Alias
		if alias == "" {
			if _, isCol := it.Expr.(*ast.Column); !isCol {
				// keep the user-visible name of quality functions stable
				alias = it.Expr.SQL()
			}
		}
		out = append(out, ast.SelectItem{Expr: e, Alias: alias})
	}
	return out, nil
}

// rewriteQualityFuncs replaces TOP/LEVEL/DISTANCE(attr) with expressions
// over the generated level columns.
func (r *rewriter) rewriteQualityFuncs(e ast.Expr) (ast.Expr, error) {
	switch x := e.(type) {
	case *ast.FuncCall:
		name := strings.ToUpper(x.Name)
		if name == "TOP" || name == "LEVEL" || name == "DISTANCE" {
			if len(x.Args) != 1 {
				return nil, fmt.Errorf("rewrite: %s expects one attribute argument", name)
			}
			bp, ok := r.byLabel[strings.ToLower(x.Args[0].SQL())]
			if !ok {
				return nil, fmt.Errorf("rewrite: %s(%s): no preference on that attribute", name, x.Args[0].SQL())
			}
			return r.qualityExpr(name, bp)
		}
		args := make([]ast.Expr, len(x.Args))
		for i, a := range x.Args {
			na, err := r.rewriteQualityFuncs(a)
			if err != nil {
				return nil, err
			}
			args[i] = na
		}
		return &ast.FuncCall{Name: x.Name, Args: args, Distinct: x.Distinct}, nil
	case *ast.Binary:
		l, err := r.rewriteQualityFuncs(x.L)
		if err != nil {
			return nil, err
		}
		rr, err := r.rewriteQualityFuncs(x.R)
		if err != nil {
			return nil, err
		}
		return &ast.Binary{Op: x.Op, L: l, R: rr}, nil
	case *ast.Unary:
		sub, err := r.rewriteQualityFuncs(x.X)
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: x.Op, X: sub}, nil
	}
	return e, nil
}

// qualityExpr builds the SQL form of one quality function application.
func (r *rewriter) qualityExpr(name string, bp *basePref) (ast.Expr, error) {
	zero := &ast.Literal{Val: value.NewInt(0)}
	one := &ast.Literal{Val: value.NewInt(1)}
	two := &ast.Literal{Val: value.NewInt(2)}

	if bp.explicit != nil {
		// LEVEL: depth+1 per mentioned value, bottom otherwise.
		info := bp.explicit
		col := &ast.Column{Name: bp.exvCol()}
		switch name {
		case "LEVEL":
			var whens []ast.WhenClause
			for _, v := range info.mentioned {
				whens = append(whens, ast.WhenClause{
					When: &ast.Binary{Op: "=", L: col, R: &ast.Literal{Val: v}},
					Then: &ast.Literal{Val: value.NewInt(int64(info.depth[v.Key()] + 1))},
				})
			}
			return &ast.Case{Whens: whens, Else: &ast.Literal{Val: value.NewInt(int64(info.maxDepth + 2))}}, nil
		case "TOP":
			var tops []ast.Expr
			for _, v := range info.mentioned {
				if info.depth[v.Key()] == 0 {
					tops = append(tops, &ast.Literal{Val: v})
				}
			}
			if len(tops) == 0 {
				return &ast.Literal{Val: value.NewBool(false)}, nil
			}
			return &ast.InList{X: col, List: tops}, nil
		default:
			return nil, fmt.Errorf("rewrite: DISTANCE is undefined for EXPLICIT preferences")
		}
	}

	lvl := &ast.Column{Name: bp.lvlCol()}
	dist := ast.Expr(lvl)
	if bp.relative {
		// LOWEST/HIGHEST: distance to the best candidate value.
		minSub := &ast.ScalarSub{Sub: &ast.Select{
			Items: []ast.SelectItem{{Expr: &ast.FuncCall{Name: "MIN", Args: []ast.Expr{&ast.Column{Name: bp.lvlCol()}}}}},
			From:  []ast.TableRef{&ast.BaseTable{Name: r.auxView}},
			Limit: -1,
		}}
		dist = &ast.Binary{Op: "-", L: lvl, R: minSub}
	}
	switch name {
	case "DISTANCE":
		return dist, nil
	case "TOP":
		return &ast.Binary{Op: "=", L: dist, R: zero}, nil
	case "LEVEL":
		if bp.discrete {
			return &ast.Binary{Op: "+", L: lvl, R: one}, nil
		}
		return &ast.Case{
			Whens: []ast.WhenClause{{When: &ast.Binary{Op: "=", L: dist, R: zero}, Then: one}},
			Else:  two,
		}, nil
	}
	return nil, fmt.Errorf("rewrite: unknown quality function %s", name)
}
