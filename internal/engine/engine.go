// Package engine implements a standard-SQL (SQL92 subset) execution engine
// over the in-memory storage layer: scans with index probes, joins,
// grouping and aggregation, DISTINCT, ORDER BY, LIMIT, views, and
// correlated subqueries (EXISTS / IN / scalar).
//
// In the paper's architecture (§3.1) this is the host "standard SQL DB
// system" that the Preference SQL optimizer re-writes into. The engine
// deliberately rejects PREFERRING queries: preference semantics lives one
// layer up, in internal/core, either natively (internal/bmo) or via the
// SQL92 rewriting of internal/rewrite.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/value"
)

// ErrPreferenceQuery is returned when a PREFERRING query reaches the plain
// SQL engine; such queries must go through the preference layer.
var ErrPreferenceQuery = errors.New("engine: PREFERRING queries require the preference layer (internal/core)")

// Result is the outcome of one statement.
type Result struct {
	Columns  []string    // result column names (SELECT only)
	Rows     []value.Row // result rows (SELECT only)
	Affected int         // rows changed (INSERT/UPDATE/DELETE)
	// Stats, when non-nil, exposes the statement's pipeline work counters
	// to the observability layer (metrics flush, LastStats, slow-query
	// log); it is not part of the result data.
	Stats *exec.Stats
}

// DB is one in-memory database instance. It is safe for concurrent readers;
// writers are serialized by the catalog's lock granularity (statement level).
type DB struct {
	cat *storage.Catalog
}

// New returns an empty database.
func New() *DB { return &DB{cat: storage.NewCatalog()} }

// NewOn returns a database over an existing catalog — the seam through
// which the durable backend (internal/storage/disk) hands a recovered,
// logging catalog to the SQL layers.
func NewOn(cat *storage.Catalog) *DB { return &DB{cat: cat} }

// Catalog exposes the underlying catalog (used by the preference layer and
// data generators for bulk loading).
func (db *DB) Catalog() *storage.Catalog { return db.cat }

// Exec parses and runs a ';'-separated script, returning the result of the
// last statement.
func (db *DB) Exec(sql string) (*Result, error) {
	stmts, err := parser.ParseAll(sql)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return &Result{}, nil
	}
	var res *Result
	for _, s := range stmts {
		res, err = db.ExecStmt(s)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ExecStmt runs one parsed statement.
func (db *DB) ExecStmt(stmt ast.Stmt) (*Result, error) {
	return db.ExecStmtArgs(context.Background(), stmt, nil)
}

// ExecStmtArgs runs one parsed statement under a cancellation context with
// positional bind arguments: ast.Param nodes in the statement evaluate to
// params[Index], and cancelling qctx stops the statement's scans.
func (db *DB) ExecStmtArgs(qctx context.Context, stmt ast.Stmt, params []value.Value) (*Result, error) {
	ec := newExecContextArgs(db, qctx, params)
	res, err := db.execStmtWith(ec, stmt)
	if res != nil && res.Stats == nil {
		res.Stats = ec.stats
	}
	return res, err
}

func (db *DB) execStmtWith(ec *execContext, stmt ast.Stmt) (*Result, error) {
	switch s := stmt.(type) {
	case *ast.Select:
		return db.selectWith(ec, s)
	case *ast.Insert:
		return db.insert(ec, s)
	case *ast.Update:
		return db.update(ec, s)
	case *ast.Delete:
		return db.delete(ec, s)
	case *ast.CreateTable:
		return db.createTable(s)
	case *ast.CreateView:
		return db.createView(s)
	case *ast.CreateIndex:
		return db.createIndex(s)
	case *ast.Drop:
		return db.drop(s)
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
}

// Select runs a SELECT statement (no PREFERRING clause).
func (db *DB) Select(sel *ast.Select) (*Result, error) {
	return db.SelectArgs(context.Background(), sel, nil)
}

// SelectArgs is Select with a cancellation context and bind arguments.
func (db *DB) SelectArgs(qctx context.Context, sel *ast.Select, params []value.Value) (*Result, error) {
	return db.selectWith(newExecContextArgs(db, qctx, params), sel)
}

func (db *DB) selectWith(ec *execContext, sel *ast.Select) (*Result, error) {
	if sel.HasPreference() || sel.ButOnly != nil || len(sel.Grouping) > 0 {
		return nil, ErrPreferenceQuery
	}
	rel, err := ec.evalSelect(sel, nil)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: rel.names(), Rows: rel.rows, Stats: ec.stats}, nil
}

// ColInfo labels one output column with its qualifier (table name or
// alias; empty for computed columns) and name.
type ColInfo = expr.Col

// DetailedResult is a Result that keeps column qualifiers, needed by the
// preference layer to bind qualified column references.
type DetailedResult struct {
	Cols []ColInfo
	Rows []value.Row
}

// SelectDetailed runs a plain SELECT and returns qualified column labels.
func (db *DB) SelectDetailed(sel *ast.Select) (*DetailedResult, error) {
	return db.SelectDetailedArgs(context.Background(), sel, nil)
}

// SelectDetailedArgs is SelectDetailed with a cancellation context and
// bind arguments.
func (db *DB) SelectDetailedArgs(qctx context.Context, sel *ast.Select, params []value.Value) (*DetailedResult, error) {
	if sel.HasPreference() || sel.ButOnly != nil || len(sel.Grouping) > 0 {
		return nil, ErrPreferenceQuery
	}
	ec := newExecContextArgs(db, qctx, params)
	rel, err := ec.evalSelect(sel, nil)
	if err != nil {
		return nil, err
	}
	return &DetailedResult{Cols: rel.cols, Rows: rel.rows}, nil
}

// Runner returns a subquery runner bound to this database, for expression
// evaluation outside the engine (the preference layer's binder).
func (db *DB) Runner() expr.SubqueryRunner { return newExecContext(db) }

// RunnerArgs is Runner with a cancellation context and bind arguments, so
// subqueries inside preference terms and quality filters see the same
// execution state as the enclosing statement.
func (db *DB) RunnerArgs(qctx context.Context, params []value.Value) expr.SubqueryRunner {
	return newExecContextArgs(db, qctx, params)
}

// ---------------------------------------------------------------------------
// Relations and environments
// ---------------------------------------------------------------------------

// relation is a materialized intermediate result: a schema and its rows.
type relation struct {
	cols plan.Schema
	rows []value.Row
}

func (r *relation) names() []string { return r.cols.Names() }

// aggEnv is the by-name environment of a grouped query block: aggregate
// calls resolve to the values pre-computed for the current group, anything
// else goes to the enclosing statement.
type aggEnv struct {
	aggs  map[string]value.Value // keyed by the call's SQL text
	outer expr.Env
}

func (e *aggEnv) Col(table, name string) (value.Value, bool) {
	if e.outer != nil {
		return e.outer.Col(table, name)
	}
	return value.Value{}, false
}

func (e *aggEnv) Func(fc *ast.FuncCall) (value.Value, bool, error) {
	if v, ok := e.aggs[fc.SQL()]; ok {
		return v, true, nil
	}
	if e.outer != nil {
		return e.outer.Func(fc)
	}
	return value.Value{}, false, nil
}

// ---------------------------------------------------------------------------
// Execution context
// ---------------------------------------------------------------------------

// execContext carries per-statement state: the view materialization cache
// that keeps correlated subqueries from re-materializing the same view for
// every outer row, plus the execution's cancellation context and bind
// arguments.
type execContext struct {
	db        *DB
	viewCache map[string]*relation
	depth     int
	stats     *exec.Stats
	qctx      context.Context // nil = not cancellable
	params    []value.Value   // positional bind arguments
}

func newExecContext(db *DB) *execContext {
	return &execContext{db: db, viewCache: map[string]*relation{}, stats: &exec.Stats{}}
}

func newExecContextArgs(db *DB, qctx context.Context, params []value.Value) *execContext {
	ec := newExecContext(db)
	ec.qctx, ec.params = qctx, params
	return ec
}

// runtime builds the expression runtime of one query block of this
// execution: its subquery runner shares the view cache, its Params resolve
// ast.Param nodes against the execution's arguments, and outer is the
// enclosing block's correlation environment.
func (ctx *execContext) runtime(outer expr.Env) *expr.Runtime {
	return &expr.Runtime{Runner: ctx, Params: ctx.params, Outer: outer}
}

// stop is the exec.Env cancellation hook; nil when the execution carries
// no cancellable context.
func (ctx *execContext) stop() func() error {
	if ctx.qctx == nil || ctx.qctx.Done() == nil {
		return nil
	}
	qctx := ctx.qctx
	return func() error { return qctx.Err() }
}

// Subquery implements expr.SubqueryRunner.
func (ctx *execContext) Subquery(sel *ast.Select, env expr.Env) ([]value.Row, error) {
	if sel.HasPreference() {
		return nil, ErrPreferenceQuery
	}
	rel, err := ctx.evalSelect(sel, env)
	if err != nil {
		return nil, err
	}
	return rel.rows, nil
}

const maxSubqueryDepth = 64

// evalSelect evaluates a plain SELECT with an optional correlation env.
// The statement is compiled to a logical plan and run on the pull-operator
// pipeline; grouped/aggregate queries keep the materializing evaluator but
// draw their filtered FROM/WHERE input from the same pipeline.
func (ctx *execContext) evalSelect(sel *ast.Select, outer expr.Env) (*relation, error) {
	if sel.HasPreference() {
		return nil, ErrPreferenceQuery
	}
	if sel.HasLimitParam() {
		// Top-level LIMIT/OFFSET parameters are resolved by the core layer
		// before execution; one reaching the engine sits in a nested query
		// block, where late binding is not supported.
		return nil, fmt.Errorf("engine: unresolved bind parameter in LIMIT/OFFSET (parameters are supported only in the outermost LIMIT/OFFSET)")
	}
	ctx.depth++
	defer func() { ctx.depth-- }()
	if ctx.depth > maxSubqueryDepth {
		return nil, fmt.Errorf("engine: subquery nesting too deep")
	}

	if len(sel.GroupBy) > 0 || hasAggregates(sel) {
		node, err := ctx.plannerFor(outer).PlanSource(sel.From, sel.Where, false)
		if err != nil {
			return nil, err
		}
		op, err := exec.Build(node, ctx.execEnv(outer))
		if err != nil {
			return nil, err
		}
		filtered, err := exec.Drain(op)
		if err != nil {
			return nil, err
		}
		return ctx.evalGrouped(sel, node.Schema(), filtered, outer)
	}

	node, err := ctx.plannerFor(outer).PlanSelect(sel)
	if err != nil {
		return nil, err
	}
	op, err := exec.Build(node, ctx.execEnv(outer))
	if err != nil {
		return nil, err
	}
	rows, err := exec.Drain(op)
	if err != nil {
		return nil, err
	}
	return &relation{cols: node.Schema(), rows: rows}, nil
}

func applyLimit(rel *relation, limit, offset int64) {
	if offset > 0 {
		if offset >= int64(len(rel.rows)) {
			rel.rows = nil
		} else {
			rel.rows = rel.rows[offset:]
		}
	}
	if limit >= 0 && int64(len(rel.rows)) > limit {
		rel.rows = rel.rows[:limit]
	}
}

func distinctRows(rows []value.Row) []value.Row {
	seen := make(map[string]bool, len(rows))
	out := rows[:0:0]
	for _, r := range rows {
		k := r.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

var aggregateNames = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

func isAggregate(name string) bool { return aggregateNames[strings.ToUpper(name)] }

// hasAggregates reports whether any select item or HAVING uses an aggregate.
func hasAggregates(sel *ast.Select) bool {
	for _, it := range sel.Items {
		if exprHasAggregate(it.Expr) {
			return true
		}
	}
	return sel.Having != nil && exprHasAggregate(sel.Having)
}

// HasAggregates is the exported form of hasAggregates, used by the
// distributed router to refuse aggregate queries over sharded tables
// (a per-shard aggregate is not the global aggregate).
func HasAggregates(sel *ast.Select) bool { return hasAggregates(sel) }

func exprHasAggregate(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(x ast.Expr) bool {
		if fc, ok := x.(*ast.FuncCall); ok && isAggregate(fc.Name) {
			found = true
		}
		return true
	})
	return found
}

// collectAggregates gathers all aggregate calls in the statement.
func collectAggregates(sel *ast.Select) []*ast.FuncCall {
	var out []*ast.FuncCall
	seen := map[string]bool{}
	collect := func(e ast.Expr) {
		ast.Inspect(e, func(x ast.Expr) bool {
			if fc, ok := x.(*ast.FuncCall); ok && isAggregate(fc.Name) {
				key := fc.SQL()
				if !seen[key] {
					seen[key] = true
					out = append(out, fc)
				}
			}
			return true
		})
	}
	for _, it := range sel.Items {
		collect(it.Expr)
	}
	if sel.Having != nil {
		collect(sel.Having)
	}
	for _, ob := range sel.OrderBy {
		collect(ob.Expr)
	}
	return out
}

// evalGrouped evaluates the grouped/aggregate part of a SELECT over the
// filtered FROM/WHERE rows (schema src). Every expression is compiled once
// against src; the per-group aggregates reach HAVING, the SELECT list and
// ORDER BY by name, through the group's aggEnv.
func (ctx *execContext) evalGrouped(sel *ast.Select, src plan.Schema,
	rows []value.Row, outer expr.Env) (*relation, error) {

	aggCalls := collectAggregates(sel)
	scope := src.Scope()
	rt := ctx.runtime(outer)

	// Partition rows by GROUP BY key (single group if no GROUP BY).
	type group struct {
		rep  value.Row // representative row for group-by expressions
		rows []value.Row
	}
	var groups []*group
	index := map[string]*group{}
	groupBy := make([]*expr.Program, len(sel.GroupBy))
	for i, ge := range sel.GroupBy {
		groupBy[i] = expr.Compile(ge, scope)
	}
	for _, row := range rows {
		var key string
		if len(groupBy) > 0 {
			keyVals := make(value.Row, len(groupBy))
			for i, ge := range groupBy {
				v, err := ge.Eval(rt, row)
				if err != nil {
					return nil, err
				}
				keyVals[i] = v
			}
			key = keyVals.Key()
		}
		g, ok := index[key]
		if !ok {
			g = &group{rep: row}
			index[key] = g
			groups = append(groups, g)
		}
		g.rows = append(g.rows, row)
	}
	// Aggregates without GROUP BY over an empty input yield one group.
	if len(groups) == 0 && len(sel.GroupBy) == 0 {
		groups = append(groups, &group{rep: make(value.Row, len(src))})
	}

	// Compute aggregates per group; each group's runtime binds them.
	aggArgs := make([]*expr.Program, len(aggCalls))
	for i, fc := range aggCalls {
		if len(fc.Args) == 1 {
			aggArgs[i] = expr.Compile(fc.Args[0], scope)
		}
	}
	repRows := make([]value.Row, 0, len(groups))
	groupRts := make([]*expr.Runtime, 0, len(groups))
	for _, g := range groups {
		aggs := map[string]value.Value{}
		for i, fc := range aggCalls {
			v, err := computeAggregate(fc, aggArgs[i], g.rows, rt)
			if err != nil {
				return nil, err
			}
			aggs[fc.SQL()] = v
		}
		repRows = append(repRows, g.rep)
		groupRts = append(groupRts, ctx.runtime(&aggEnv{aggs: aggs, outer: outer}))
	}

	// HAVING filter on groups.
	if sel.Having != nil {
		having := expr.Compile(sel.Having, scope)
		keptRows := repRows[:0:0]
		keptRts := groupRts[:0:0]
		for i := range repRows {
			ok, err := having.EvalBool(groupRts[i], repRows[i])
			if err != nil {
				return nil, err
			}
			if ok {
				keptRows = append(keptRows, repRows[i])
				keptRts = append(keptRts, groupRts[i])
			}
		}
		repRows, groupRts = keptRows, keptRts
	}

	proj := expr.CompileProjection(sel.Items, scope)
	out := &relation{cols: proj.Cols, rows: make([]value.Row, len(repRows))}
	for i, row := range repRows {
		outRow, err := proj.Row(groupRts[i], row)
		if err != nil {
			return nil, err
		}
		out.rows[i] = outRow
	}

	if len(sel.OrderBy) > 0 {
		if err := orderByGrouped(sel, out, src, repRows, groupRts); err != nil {
			return nil, err
		}
	}
	if sel.Distinct {
		out.rows = distinctRows(out.rows)
	}
	applyLimit(out, sel.Limit, sel.Offset)
	return out, nil
}

// orderByGrouped sorts the grouped output. Order keys run over the output
// row followed by the group's representative source row, so an unqualified
// name finds a projection alias first, then a source column.
func orderByGrouped(sel *ast.Select, out *relation, src plan.Schema,
	repRows []value.Row, groupRts []*expr.Runtime) error {

	scope := expr.Scope{Cols: append(append(plan.Schema{}, out.cols...), src...), Aliases: len(out.cols)}
	keyProgs := make([]*expr.Program, len(sel.OrderBy))
	for k, ob := range sel.OrderBy {
		keyProgs[k] = expr.Compile(ob.Expr, scope)
	}
	type pair struct {
		keys value.Row
		idx  int
	}
	pairs := make([]pair, len(out.rows))
	var both value.Row // scratch: output row ++ source row
	for i := range out.rows {
		both = append(append(both[:0], out.rows[i]...), repRows[i]...)
		keys := make(value.Row, len(keyProgs))
		for k, key := range keyProgs {
			v, err := key.Eval(groupRts[i], both)
			if err != nil {
				return err
			}
			keys[k] = v
		}
		pairs[i] = pair{keys: keys, idx: i}
	}
	sort.SliceStable(pairs, func(a, b int) bool {
		for k, ob := range sel.OrderBy {
			c := value.CompareNullsFirst(pairs[a].keys[k], pairs[b].keys[k])
			if c == 0 {
				continue
			}
			if ob.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	sorted := make([]value.Row, len(pairs))
	for i, p := range pairs {
		sorted[i] = out.rows[p.idx]
	}
	out.rows = sorted
	return nil
}

// computeAggregate folds one aggregate call over a group's rows; arg is
// the call's compiled argument (unused for COUNT(*)).
func computeAggregate(fc *ast.FuncCall, arg *expr.Program, rows []value.Row, rt *expr.Runtime) (value.Value, error) {
	name := strings.ToUpper(fc.Name)
	if len(fc.Args) != 1 {
		return value.Value{}, fmt.Errorf("%s expects one argument", name)
	}
	_, isStar := fc.Args[0].(*ast.Star)
	if isStar && name != "COUNT" {
		return value.Value{}, fmt.Errorf("%s(*) is not valid", name)
	}

	var vals []value.Value
	for _, row := range rows {
		if isStar {
			vals = append(vals, value.NewInt(1))
			continue
		}
		v, err := arg.Eval(rt, row)
		if err != nil {
			return value.Value{}, err
		}
		if v.IsNull() {
			continue // aggregates skip NULLs
		}
		vals = append(vals, v)
	}
	if fc.Distinct {
		seen := map[string]bool{}
		uniq := vals[:0:0]
		for _, v := range vals {
			k := v.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			uniq = append(uniq, v)
		}
		vals = uniq
	}

	switch name {
	case "COUNT":
		return value.NewInt(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return value.NewNull(), nil
		}
		allInt := true
		sum := 0.0
		for _, v := range vals {
			if !v.IsNumeric() {
				return value.Value{}, fmt.Errorf("%s requires numeric values", name)
			}
			if v.K != value.Int {
				allInt = false
			}
			sum += v.Num()
		}
		if name == "AVG" {
			return value.NewFloat(sum / float64(len(vals))), nil
		}
		if allInt {
			return value.NewInt(int64(sum)), nil
		}
		return value.NewFloat(sum), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return value.NewNull(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, ok := value.Compare(v, best)
			if !ok {
				return value.Value{}, fmt.Errorf("%s over incomparable values", name)
			}
			if (name == "MIN" && c < 0) || (name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return value.Value{}, fmt.Errorf("unknown aggregate %s", name)
}

// ---------------------------------------------------------------------------
// DML / DDL
// ---------------------------------------------------------------------------

func (db *DB) insert(ec *execContext, ins *ast.Insert) (*Result, error) {
	tbl, ok := db.cat.Table(ins.Table)
	if !ok {
		return nil, fmt.Errorf("engine: no such table: %s", ins.Table)
	}
	// Column mapping.
	colIdx := make([]int, 0, len(ins.Columns))
	for _, c := range ins.Columns {
		i := tbl.Schema.ColIndex(c)
		if i < 0 {
			return nil, fmt.Errorf("engine: table %s has no column %s", ins.Table, c)
		}
		colIdx = append(colIdx, i)
	}
	toFull := func(vals value.Row) (value.Row, error) {
		if len(ins.Columns) == 0 {
			return vals, nil
		}
		if len(vals) != len(colIdx) {
			return nil, fmt.Errorf("engine: INSERT has %d values for %d columns", len(vals), len(colIdx))
		}
		full := make(value.Row, len(tbl.Schema.Cols))
		for i, v := range vals {
			full[colIdx[i]] = v
		}
		return full, nil
	}

	// Rows are collected and applied as one batch: a multi-row INSERT
	// is atomic and, on the durable backend, costs one WAL record (one
	// group-commit fsync) instead of one per row.
	var batch []value.Row
	if ins.Sel != nil {
		res, err := db.selectWith(ec, ins.Sel)
		if err != nil {
			return nil, err
		}
		for _, row := range res.Rows {
			full, err := toFull(row)
			if err != nil {
				return nil, err
			}
			batch = append(batch, full)
		}
	} else {
		ev := expr.Evaluator{Runner: ec, Params: ec.params}
		for _, exprRow := range ins.Rows {
			vals := make(value.Row, len(exprRow))
			for i, e := range exprRow {
				v, err := ev.Eval(e, nil)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			full, err := toFull(vals)
			if err != nil {
				return nil, err
			}
			batch = append(batch, full)
		}
	}
	if err := tbl.InsertBatch(batch); err != nil {
		return nil, err
	}
	return &Result{Affected: len(batch)}, nil
}

// InsertRows bulk-inserts pre-built rows; the fast path for data generators.
func (db *DB) InsertRows(table string, rows []value.Row) (int, error) {
	tbl, ok := db.cat.Table(table)
	if !ok {
		return 0, fmt.Errorf("engine: no such table: %s", table)
	}
	if err := tbl.InsertBatch(rows); err != nil {
		return 0, err
	}
	return len(rows), nil
}

// tableScope is the column scope UPDATE and DELETE expressions compile
// against: the table's columns, qualified by the table name.
func tableScope(tbl *storage.Table) expr.Scope {
	return plan.NewSeqScan(tbl, tbl.Name).Schema().Scope()
}

// tableMatcher compiles a DML WHERE clause into a row predicate.
func tableMatcher(rt *expr.Runtime, scope expr.Scope, where ast.Expr) func(value.Row) (bool, error) {
	if where == nil {
		return func(value.Row) (bool, error) { return true, nil }
	}
	cond := expr.Compile(where, scope)
	return func(row value.Row) (bool, error) { return cond.EvalBool(rt, row) }
}

func (db *DB) update(ec *execContext, upd *ast.Update) (*Result, error) {
	tbl, ok := db.cat.Table(upd.Table)
	if !ok {
		return nil, fmt.Errorf("engine: no such table: %s", upd.Table)
	}
	scope := tableScope(tbl)
	setIdx := make([]int, len(upd.Sets))
	setTo := make([]*expr.Program, len(upd.Sets))
	for i, s := range upd.Sets {
		idx := tbl.Schema.ColIndex(s.Column)
		if idx < 0 {
			return nil, fmt.Errorf("engine: table %s has no column %s", upd.Table, s.Column)
		}
		setIdx[i] = idx
		setTo[i] = expr.Compile(s.Expr, scope)
	}
	rt := ec.runtime(nil)

	// Assignments apply left to right on the row's private copy, so a
	// later SET expression sees the earlier ones' new values.
	n, err := tbl.Update(tableMatcher(rt, scope, upd.Where), func(row value.Row) (value.Row, error) {
		for i, to := range setTo {
			v, err := to.Eval(rt, row)
			if err != nil {
				return nil, err
			}
			row[setIdx[i]] = v
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: n}, nil
}

func (db *DB) delete(ec *execContext, del *ast.Delete) (*Result, error) {
	tbl, ok := db.cat.Table(del.Table)
	if !ok {
		return nil, fmt.Errorf("engine: no such table: %s", del.Table)
	}
	n, err := tbl.Delete(tableMatcher(ec.runtime(nil), tableScope(tbl), del.Where))
	if err != nil {
		return nil, err
	}
	return &Result{Affected: n}, nil
}

func (db *DB) createTable(ct *ast.CreateTable) (*Result, error) {
	if _, exists := db.cat.Table(ct.Name); exists && ct.IfNotExists {
		return &Result{}, nil
	}
	cols := make([]storage.Column, len(ct.Cols))
	for i, c := range ct.Cols {
		cols[i] = storage.Column{Name: c.Name, Kind: c.Type, NotNull: c.NotNull, PrimaryKey: c.PrimaryKey}
	}
	tbl := storage.NewTable(ct.Name, storage.Schema{Cols: cols})
	if err := db.cat.CreateTable(tbl); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (db *DB) createView(cv *ast.CreateView) (*Result, error) {
	if cv.Sel.HasPreference() {
		return nil, ErrPreferenceQuery
	}
	if err := db.cat.CreateView(cv.Name, cv.Sel); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (db *DB) createIndex(ci *ast.CreateIndex) (*Result, error) {
	tbl, ok := db.cat.Table(ci.Table)
	if !ok {
		return nil, fmt.Errorf("engine: no such table: %s", ci.Table)
	}
	if _, err := tbl.CreateIndex(ci.Name, ci.Columns); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (db *DB) drop(d *ast.Drop) (*Result, error) {
	switch d.Kind {
	case "TABLE":
		if !db.cat.DropTable(d.Name) && !d.IfExists {
			return nil, fmt.Errorf("engine: no such table: %s", d.Name)
		}
	case "VIEW":
		if !db.cat.DropView(d.Name) && !d.IfExists {
			return nil, fmt.Errorf("engine: no such view: %s", d.Name)
		}
	case "INDEX":
		dropped := false
		for _, name := range db.cat.TableNames() {
			tbl, _ := db.cat.Table(name)
			if tbl.DropIndex(d.Name) {
				dropped = true
				break
			}
		}
		if !dropped && !d.IfExists {
			return nil, fmt.Errorf("engine: no such index: %s", d.Name)
		}
	default:
		return nil, fmt.Errorf("engine: unsupported DROP %s", d.Kind)
	}
	return &Result{}, nil
}
