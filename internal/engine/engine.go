// Package engine implements a standard-SQL (SQL92 subset) execution engine
// over the in-memory storage layer: scans with index probes, joins,
// grouping and aggregation, DISTINCT, ORDER BY, LIMIT, views, and
// correlated subqueries (EXISTS / IN / scalar). Every SELECT is one plan
// (internal/plan) run by the pull operators of internal/exec.
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
	ec := newExecContext(db, qctx, params)
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

func (db *DB) selectWith(ec *execContext, sel *ast.Select) (*Result, error) {
	rel, err := ec.evalSelect(sel, nil)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: rel.Cols.Names(), Rows: rel.Rows, Stats: ec.stats}, nil
}

// ColInfo labels one output column with its qualifier (table name or
// alias; empty for computed columns) and name.
type ColInfo = expr.Col

// RunnerArgs returns a subquery runner bound to this database, for
// expression evaluation outside the engine (the preference layer's
// binder): subqueries inside preference terms and quality filters see
// the enclosing statement's cancellation context and bind arguments.
func (db *DB) RunnerArgs(qctx context.Context, params []value.Value) expr.SubqueryRunner {
	return newExecContext(db, qctx, params)
}

// ---------------------------------------------------------------------------
// Execution context
// ---------------------------------------------------------------------------

// execContext carries per-statement state: the view materialization cache
// that keeps correlated subqueries from re-materializing the same view for
// every outer row, the rows of the uncorrelated subqueries it ran, plus
// the execution's cancellation context and bind arguments.
type execContext struct {
	db        *DB
	viewCache map[string]*plan.Values
	subCache  map[*ast.Select][]value.Row
	depth     int
	stats     *exec.Stats
	qctx      context.Context // nil = not cancellable
	params    []value.Value   // positional bind arguments
}

func newExecContext(db *DB, qctx context.Context, params []value.Value) *execContext {
	return &execContext{db: db, viewCache: map[string]*plan.Values{}, subCache: map[*ast.Select][]value.Row{},
		stats: &exec.Stats{}, qctx: qctx, params: params}
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

// Subquery implements expr.SubqueryRunner. The rows of a run that
// consulted nothing of its outer environment are kept for the rest of
// the execution: evaluation is deterministic, so such a subquery —
// scalar, IN or EXISTS — answers the same for every outer row, and runs
// once instead of once per row. An error is never kept.
func (ctx *execContext) Subquery(sel *ast.Select, env expr.Env) ([]value.Row, error) {
	if rows, ok := ctx.subCache[sel]; ok {
		return rows, nil
	}
	probe := &probeEnv{Env: env}
	rel, err := ctx.evalSelect(sel, probe)
	if err != nil {
		return nil, err
	}
	if !probe.consulted {
		ctx.subCache[sel] = rel.Rows
	}
	return rel.Rows, nil
}

// probeEnv is an outer environment that records whether a lookup
// reached it.
type probeEnv struct {
	expr.Env
	consulted bool
}

func (e *probeEnv) Col(table, name string) (value.Value, bool) {
	e.consulted = true
	return e.Env.Col(table, name)
}

func (e *probeEnv) Func(fc *ast.FuncCall) (value.Value, bool, error) {
	e.consulted = true
	return e.Env.Func(fc)
}

const maxSubqueryDepth = 64

// evalSelect evaluates a plain SELECT with an optional correlation env:
// it is planned, built and drained like every other SELECT.
func (ctx *execContext) evalSelect(sel *ast.Select, outer expr.Env) (*plan.Values, error) {
	ctx.depth++
	defer func() { ctx.depth-- }()
	if ctx.depth > maxSubqueryDepth {
		return nil, fmt.Errorf("engine: subquery nesting too deep")
	}
	node, err := ctx.planSelect(sel, outer)
	if err != nil {
		return nil, err
	}
	rows, err := ctx.run(node, outer)
	if err != nil {
		return nil, err
	}
	return &plan.Values{Cols: node.Schema(), Rows: rows}, nil
}

// run builds node's operators under the correlation environment outer
// and drains them.
func (ctx *execContext) run(node plan.Node, outer expr.Env) ([]value.Row, error) {
	op, err := exec.Build(node, ctx.execEnv(outer))
	if err != nil {
		return nil, err
	}
	return exec.Drain(op)
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
