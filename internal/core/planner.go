package core

import (
	"errors"
	"strings"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/preference"
	"repro/internal/value"
)

// A preference query is one plan (§3.1–3.2): the candidate relation
// (FROM + hard WHERE) → BMO (grouped under GROUPING) → ButOnly →
// QualityProject. planPreference builds that tree in one place for each
// execution form; the batch path drains it, the cursor pulls from it,
// EXPLAIN formats or runs it, and the distributed path puts the same tail
// over its Gather. The §3.2 rewrite (queryViaRewrite) stays a separate
// path: it is the semantic oracle.

// planForm selects which execution shape of a SELECT the planner builds.
type planForm int

const (
	// formBatch is Query/Exec: batch BMO, drained.
	formBatch planForm = iota
	// formCursor is the relaxed streaming cursor and EXPLAIN: the BMO
	// streams progressively when the preference allows it; shapes that
	// need the whole BMO set first (ORDER BY, GROUPING, DISTINCT) get the
	// batch plan.
	formCursor
	// formStrict is QueryProgressive: always progressive, and never
	// pushed or vectorized.
	formStrict
)

var (
	errNoPreferring      = errors.New("core: GROUPING and BUT ONLY require a PREFERRING clause")
	errGroupByPreferring = errors.New("core: GROUP BY/HAVING cannot be combined with PREFERRING")
	errAggPreferring     = errors.New("core: aggregate functions cannot be combined with PREFERRING")
)

// stmtPlan is one planned SELECT: the plan tree and the environment its
// operators run in (runtime, work counters, cancellation, recorder).
type stmtPlan struct {
	node plan.Node
	env  *exec.Env
}

// newPlan pairs a plan with its environment, arming per-operator
// recording when the session asks for it.
func (s *Session) newPlan(node plan.Node, env *exec.Env) *stmtPlan {
	if s.RecordNodeStats() {
		env.Rec = exec.NewNodeRec()
	}
	return &stmtPlan{node: node, env: env}
}

func (p *stmtPlan) build() (exec.Operator, error) { return exec.Build(p.node, p.env) }

// drain runs a plan to completion as a batch result.
func (s *Session) drain(p *stmtPlan) (*Result, error) {
	op, err := p.build()
	if err != nil {
		return nil, err
	}
	rows, err := exec.Drain(op)
	if err != nil {
		return nil, err
	}
	if p.env.Rec != nil {
		s.stashPlan(p.node, p.env.Rec)
	}
	return &Result{Columns: p.node.Schema().Names(), Rows: rows, Stats: p.env.Stats}, nil
}

// querySelect runs one SELECT as a batch: local preference queries in
// rewrite mode on the §3.2 rewrite, everything else — plain SQL,
// sharded and native preference queries — by draining its plan.
func (s *Session) querySelect(sel *ast.Select, ee execEnv) (*Result, error) {
	if s.rewrites(sel) {
		return s.queryViaRewrite(sel, ee)
	}
	p, err := s.planSelect(sel, ee, formBatch)
	if err != nil {
		return nil, err
	}
	return s.drain(p)
}

// rewrites reports whether sel runs on the §3.2 rewrite: a preference
// query in rewrite mode over local tables (sharded tables always
// evaluate natively).
func (s *Session) rewrites(sel *ast.Select) bool {
	return sel.HasPreference() && s.Mode() == ModeRewrite && !s.db.distTouches(sel)
}

// planSelect plans one SELECT as a plan tree for form: scatter-gather
// over a sharded table, the preference plan, or the engine's plain
// pipeline. The session's mode does not enter: callers route the rewrite
// mode before planning.
func (s *Session) planSelect(sel *ast.Select, ee execEnv, form planForm) (*stmtPlan, error) {
	table, dist, err := s.db.distSelectTable(sel)
	switch {
	case err != nil:
		return nil, err
	case dist:
		return s.planDistSelect(sel, table, ee, form)
	case sel.HasPreference():
		return s.planPreference(sel, ee, form)
	case sel.ButOnly != nil || len(sel.Grouping) > 0:
		return nil, errNoPreferring
	}
	pipe, err := s.db.eng.PipelineArgs(ee.ctx, sel, ee.params)
	if err != nil {
		return nil, err
	}
	return s.newPlan(pipe.Node(), pipe.Env()), nil
}

// planPreference is the one place a local preference query is
// assembled: candidate pipeline, preference compiled over it, the BMO
// node (grouped, progressive, pushed below joins or vectorized as the
// form and session allow) and the BUT ONLY / projection tail.
func (s *Session) planPreference(sel *ast.Select, ee execEnv, form planForm) (*stmtPlan, error) {
	db := s.db
	if len(sel.GroupBy) > 0 || sel.Having != nil {
		return nil, errGroupByPreferring
	}
	if len(plan.Aggregates(sel)) > 0 {
		return nil, errAggPreferring
	}
	sel, err := db.resolveSel(sel)
	if err != nil {
		return nil, err
	}
	// Candidate relation: FROM + hard WHERE, all columns, compiled to an
	// operator pipeline (predicate pushdown, index probes, hash joins).
	pipe, err := db.candidates(sel.From, sel.Where, ee)
	if err != nil {
		return nil, err
	}
	_, reg, prefs, err := db.bindPreference(pipe.Columns(), ee, sel.Preferring)
	if err != nil {
		return nil, err
	}
	pref := prefs[0]

	// Every preference streams unless the statement needs the whole
	// result first.
	progressive := form == formStrict ||
		form == formCursor && len(sel.OrderBy) == 0 && len(sel.Grouping) == 0 && !sel.Distinct
	root := plan.NewBMO(pipe.Node(), pref, s.Algorithm(), progressive, s.bmoWorkers(sel))
	root.Reg = reg
	var node plan.Node = root
	if len(sel.Grouping) > 0 {
		// Groups are evaluated one by one with the session's algorithm.
		root.Grouping = make([]ast.Expr, len(sel.Grouping))
		for i, g := range sel.Grouping {
			root.Grouping[i] = g
		}
	}
	if form != formStrict {
		// The strict form keeps the plain plan: its contract is the
		// progressive stream over the candidate relation, and its errors
		// must not depend on plan shape. A grouped BMO stays at the
		// root: pushing dominance below a join ignores the groups.
		if len(sel.Grouping) == 0 {
			node = s.maybePush(sel, root)
		}
		vectorize(root, node)
	}
	return s.newPlan(qualityTail(node, sel), pipe.Env()), nil
}

// qualityTail puts the clauses evaluated after BMO on top of node: the
// BUT ONLY filter, then the quality projection.
func qualityTail(node plan.Node, sel *ast.Select) plan.Node {
	if sel.ButOnly != nil {
		node = &plan.ButOnly{Child: node, Cond: sel.ButOnly}
	}
	return plan.NewQualityProject(node, sel)
}

// resolveSel returns sel with its named preferences substituted (a
// shallow clone when anything changed).
func (db *DB) resolveSel(sel *ast.Select) (*ast.Select, error) {
	resolved, err := db.resolvePrefs(sel.Preferring)
	if err != nil {
		return nil, err
	}
	if resolved == sel.Preferring {
		return sel, nil
	}
	clone := *sel
	clone.Preferring = resolved
	return &clone, nil
}

// bindPreference compiles preference terms over a relation's columns
// through one binder and one registry — the binding step every
// preference path shares, SUBSCRIBE included. Nil terms compile to nil.
func (db *DB) bindPreference(cols []engine.ColInfo, ee execEnv, terms ...ast.Pref) (*relBinder, *preference.Registry, []preference.Preference, error) {
	binder := newRelBinder(cols, db.eng, ee)
	reg := preference.NewRegistry()
	prefs := make([]preference.Preference, len(terms))
	for i, term := range terms {
		if term == nil {
			continue
		}
		p, err := preference.Compile(term, binder, reg)
		if err != nil {
			return nil, nil, nil, err
		}
		prefs[i] = p
	}
	return binder, reg, prefs, nil
}

// maybePush applies the planner's preference-algebra rewrite (BMO below
// joins) to a freshly planned preference query, unless the session
// disabled it or the query calls a quality function: TOP/LEVEL/DISTANCE
// measure against the full candidate relation, which only the unpushed
// plan materializes.
func (s *Session) maybePush(sel *ast.Select, root *plan.BMO) plan.Node {
	if !s.Pushdown() || selUsesQualityFuncs(sel) {
		return root
	}
	return plan.PushBMO(root)
}

// selUsesQualityFuncs reports whether the query calls TOP, LEVEL or
// DISTANCE anywhere the quality tail evaluates them (SELECT list, ORDER
// BY, BUT ONLY). Subqueries count as quality-bearing: a call inside the
// nested SELECT still reaches the quality environment through the
// outer-correlation chain (expr.RowEnv.Func falls back to Outer), so a
// correlated `EXISTS (... DISTANCE(x) ...)` evaluates against the
// candidate relation just like a top-level call.
func selUsesQualityFuncs(sel *ast.Select) bool {
	found := false
	visit := func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.InSelect, *ast.Exists, *ast.ScalarSub:
			found = true
		case *ast.FuncCall:
			switch strings.ToUpper(x.Name) {
			case "TOP", "LEVEL", "DISTANCE":
				found = true
			}
		}
		return !found
	}
	for _, it := range sel.Items {
		ast.Inspect(it.Expr, visit)
	}
	for _, ob := range sel.OrderBy {
		ast.Inspect(ob.Expr, visit)
	}
	ast.Inspect(sel.ButOnly, visit)
	return found
}

// bmoWorkers resolves the BMO worker cap for one preference query: the
// session's setting, forced to 1 (single-goroutine evaluation) when the
// preference term embeds a subquery — the engine's subquery runner
// shares per-statement state (view cache, counters) that must not be
// touched from concurrent dominance tests.
func (s *Session) bmoWorkers(sel *ast.Select) int {
	if prefHasSubquery(sel.Preferring) {
		return 1
	}
	return s.Workers()
}

// prefHasSubquery reports whether any expression of a preference term
// contains a nested SELECT.
func prefHasSubquery(p ast.Pref) bool {
	found := false
	ast.WalkPrefExprs(p, func(e ast.Expr) { found = found || exprHasSubquery(e) })
	return found
}

// exprHasSubquery reports whether e contains a nested SELECT.
func exprHasSubquery(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(e ast.Expr) bool {
		found = found || ast.Subquery(e) != nil
		return !found
	})
	return found
}

// relBinder implements preference.Binder over a detailed relation: every
// expression is compiled once against the relation's columns, and the
// accessors it hands out share one read-only runtime — which is what lets
// the parallel BMO workers call them concurrently.
type relBinder struct {
	scope expr.Scope
	rt    *expr.Runtime
}

func newRelBinder(cols []engine.ColInfo, eng *engine.DB, ee execEnv) *relBinder {
	return &relBinder{scope: expr.Scope{Cols: cols}, rt: &expr.Runtime{
		Runner: eng.RunnerArgs(ee.ctx, ee.params),
		Params: ee.params,
	}}
}

// Getter implements preference.Binder.
func (b *relBinder) Getter(e ast.Expr) (preference.Getter, error) {
	return expr.Compile(e, b.scope).Bind(b.rt), nil
}

// Cond implements preference.Binder.
func (b *relBinder) Cond(e ast.Expr) (func(value.Row) (bool, error), error) {
	prog := expr.Compile(e, b.scope)
	return func(row value.Row) (bool, error) { return prog.EvalBool(b.rt, row) }, nil
}

// Column implements preference.Binder.
func (b *relBinder) Column(e ast.Expr) (int, bool) {
	c, ok := e.(*ast.Column)
	if !ok {
		return 0, false
	}
	col, n := plan.Schema(b.scope.Cols).ColIndex(c.Table, c.Name)
	return col, n == 1
}

// Comparison implements preference.Binder.
func (b *relBinder) Comparison(e ast.Expr) (preference.Comparison, bool) {
	c, ok := plan.ColumnComparison(e, b.scope.Cols)
	return preference.Comparison{Col: c.Col, Accept: c.Accept, Bound: c.Bound}, ok
}

// Const implements preference.Binder: preference parameters must not
// reference columns. They are evaluated with this execution's arguments
// at compile time, which is why preference plans are not cached across
// executions.
func (b *relBinder) Const(e ast.Expr) (value.Value, error) {
	ev := expr.Evaluator{Runner: b.rt.Runner, Params: b.rt.Params}
	return ev.Eval(e, nil)
}

// selectHas reports whether pred holds for some expression of the query
// block (see ast.InspectSelect for what that covers).
func selectHas(sel *ast.Select, pred func(ast.Expr) bool) bool {
	found := false
	ast.InspectSelect(sel, func(e ast.Expr) bool {
		found = found || pred(e)
		return !found
	})
	return found
}
