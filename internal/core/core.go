// Package core is the Preference SQL query processor: the layer that makes
// PREFERRING / GROUPING / BUT ONLY queries and the quality functions
// TOP / LEVEL / DISTANCE work on top of the plain SQL engine.
//
// It mirrors the paper's architecture (§3.1): statements without
// preferences pass straight through to the engine; preference queries are
// evaluated either
//
//   - natively, by compiling the PREFERRING term to a strict partial order
//     and running a BMO algorithm (internal/bmo), or
//   - by re-writing to standard SQL92 (internal/rewrite) and executing the
//     rewritten script on the engine — the commercial product's approach.
//
// Both paths produce identical result sets; the differential tests in this
// package and the benchmark harness rely on that.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/live"
	"repro/internal/parser"
	"repro/internal/rewrite"
	"repro/internal/value"
)

// Mode selects how preference queries are executed.
type Mode int

// Execution modes.
const (
	// ModeNative evaluates BMO with the in-process algorithms (default).
	ModeNative Mode = iota
	// ModeRewrite re-writes to SQL92 views + NOT EXISTS, per §3.2.
	ModeRewrite
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeRewrite {
		return "rewrite"
	}
	return "native"
}

// Result is the outcome of one statement (alias of the engine's result).
type Result = engine.Result

// DB is a Preference SQL database: a plain SQL engine plus the preference
// layer in front of it.
//
// Concurrency: read statements (SELECTs, preference or plain) share
// stmtMu's read lock and run concurrently against consistent storage
// snapshots; write statements take the exclusive lock and serialize. The
// write epoch counts write statements and invalidates cached plans (see
// Prepared). Per-client execution settings live on Session objects; the
// def session backs the DB-level convenience API.
type DB struct {
	eng *engine.DB
	def *Session // default session backing the DB-level API

	stmtMu sync.RWMutex  // readers: queries; writers: DML/DDL
	epoch  atomic.Uint64 // write-statement counter, for plan-cache invalidation

	prefMu sync.RWMutex
	prefs  map[string]ast.Pref // Preference Definition Language objects

	// live tracks this database's continuous queries (SUBSCRIBE); see
	// Session.Subscribe and package live.
	live *live.Registry

	// dist, when non-nil, makes this node a coordinator: statements on
	// hash-partitioned tables scatter-gather over the cluster (dist.go).
	// Injected once at startup via SetDistributor.
	dist Distributor
}

// Open creates an empty Preference SQL database.
func Open() *DB { return OpenOn(engine.New()) }

// OpenOn wraps an existing engine instance.
func OpenOn(eng *engine.DB) *DB {
	db := &DB{eng: eng, prefs: map[string]ast.Pref{}, live: live.NewRegistry()}
	db.def = db.NewSession()
	return db
}

// Checkpointer is the slice of a durable storage backend the core layer
// drives: internal/storage/disk's DB satisfies it. The core layer keeps
// no direct dependency on the disk package — callers (prefserve, tests)
// open the backend, build an engine on its catalog via engine.NewOn,
// and hand the backend here for quiesced checkpoints.
type Checkpointer interface {
	Checkpoint() error
}

// CheckpointerFunc adapts a plain func to Checkpointer (e.g. a
// backend's Close for the shutdown path).
type CheckpointerFunc func() error

// Checkpoint implements Checkpointer.
func (f CheckpointerFunc) Checkpoint() error { return f() }

// Checkpoint quiesces the database (the statement write lock excludes
// every reader and writer) and runs the backend's checkpoint, so the
// checkpoint image captures a statement-consistent state.
func (db *DB) Checkpoint(cp Checkpointer) error {
	db.stmtMu.Lock()
	defer db.stmtMu.Unlock()
	return cp.Checkpoint()
}

// Live exposes the subscription registry (active continuous queries).
func (db *DB) Live() *live.Registry { return db.live }

// Engine exposes the underlying plain-SQL engine.
func (db *DB) Engine() *engine.DB { return db.eng }

// DefaultSession returns the session backing the DB-level convenience
// API.
func (db *DB) DefaultSession() *Session { return db.def }

// Epoch reports the current write epoch (the number of write statements
// executed so far); cached plans are valid within one epoch.
func (db *DB) Epoch() uint64 { return db.epoch.Load() }

// Exec parses and runs a ';'-separated script on the default session,
// returning the last result.
func (db *DB) Exec(sql string) (*Result, error) { return db.def.Exec(sql) }

// ExecContext is Exec on the default session with a cancellation context
// and positional bind arguments; see Session.ExecContext.
func (db *DB) ExecContext(ctx context.Context, sql string, args ...any) (*Result, error) {
	return db.def.ExecContext(ctx, sql, args...)
}

// Query runs a single SELECT on the default session under the shared
// read lock only; see Session.Query.
func (db *DB) Query(sql string) (*Result, error) { return db.def.Query(sql) }

// QueryContext is Query on the default session with a cancellation
// context and bind arguments; see Session.QueryContext.
func (db *DB) QueryContext(ctx context.Context, sql string, args ...any) (*Result, error) {
	return db.def.QueryContext(ctx, sql, args...)
}

// ExecStmt runs one parsed statement on the default session.
func (db *DB) ExecStmt(stmt ast.Stmt) (*Result, error) { return db.def.ExecStmt(stmt) }

// routeStmt runs one parsed statement, routing preference queries
// through the preference layer and everything else to the engine
// untouched. Callers go through execStmt (observe.go), which wraps the
// routing with the statement metrics and LastStats recording.
func (s *Session) routeStmt(stmt ast.Stmt, ee execEnv) (*Result, error) {
	db := s.db
	stmt, err := bindLimitParams(stmt, ee.params)
	if err != nil {
		return nil, err
	}
	switch st := stmt.(type) {
	case *ast.Subscribe:
		return nil, fmt.Errorf("core: SUBSCRIBE needs a streaming consumer — use Session.Subscribe (embedded), the client's Subscribe, or prefsql's \\watch")
	case *ast.Select:
		return s.querySelect(st, ee)
	case *ast.Insert:
		if db.dist != nil {
			if handled, res, err := s.distInsert(st, ee); handled {
				return res, err
			}
		}
		if st.Sel != nil && st.Sel.HasPreference() {
			return s.insertPreference(st, ee)
		}
		return db.eng.ExecStmtArgs(ee.ctx, st, ee.params)
	case *ast.Update:
		if db.dist != nil {
			if handled, res, err := s.distUpdate(st, ee); handled {
				return res, err
			}
		}
		return db.eng.ExecStmtArgs(ee.ctx, st, ee.params)
	case *ast.Delete:
		if db.dist != nil {
			if handled, res, err := s.distDelete(st, ee); handled {
				return res, err
			}
		}
		return db.eng.ExecStmtArgs(ee.ctx, st, ee.params)
	case *ast.CreateTable:
		if db.dist != nil {
			if hashCol, ok := db.dist.Lookup(st.Name); ok {
				return s.distCreateTable(st, hashCol, ee)
			}
		}
		return db.eng.ExecStmtArgs(ee.ctx, st, ee.params)
	case *ast.CreateIndex:
		if db.distSharded(st.Table) {
			return s.distBroadcastDDL(st, ee)
		}
		return db.eng.ExecStmtArgs(ee.ctx, st, ee.params)
	case *ast.CreateView:
		if db.distTouches(st.Sel) {
			return nil, fmt.Errorf("core: CREATE VIEW over a sharded table is not supported")
		}
		if st.Sel.HasPreference() {
			return nil, fmt.Errorf("core: views over PREFERRING queries are not supported")
		}
		// A stored view outlives this execution's argument list, so a bind
		// parameter in its body could never be resolved again — reject it
		// now instead of leaving a view that fails on every later use.
		// (The rewrite layer's internal param-bearing views execute within
		// one statement and go through the engine directly.)
		if selectHasParam(st.Sel) {
			return nil, fmt.Errorf("core: CREATE VIEW cannot contain bind parameters")
		}
		return db.eng.ExecStmtArgs(ee.ctx, st, ee.params)
	case *ast.Set:
		return s.applySet(st)
	case *ast.CreatePreference:
		return db.createPreference(st)
	case *ast.Drop:
		if st.Kind == "PREFERENCE" {
			return db.dropPreference(st)
		}
		if st.Kind == "TABLE" && db.distSharded(st.Name) {
			return s.distBroadcastDDL(st, ee)
		}
		if st.Kind == "INDEX" && db.dist != nil {
			// An index name does not say which table it indexes, so drop it
			// on the shards opportunistically (IF EXISTS): indexes created
			// on sharded tables exist cluster-wide, local-only ones don't.
			res, err := db.eng.ExecStmtArgs(ee.ctx, st, ee.params)
			if err != nil {
				return nil, err
			}
			clone := *st
			clone.IfExists = true
			if _, err := db.dist.ExecAll(ee.ctx, clone.SQL(), nil); err != nil {
				return nil, err
			}
			return res, nil
		}
		return db.eng.ExecStmtArgs(ee.ctx, st, ee.params)
	default:
		return db.eng.ExecStmtArgs(ee.ctx, stmt, ee.params)
	}
}

// bindLimitParams resolves bind parameters in the outermost LIMIT/OFFSET
// of a statement to concrete counts, returning a shallow clone so the
// parsed (and cached) statement stays reusable across argument sets.
// Parameters anywhere else in the statement stay late-bound — the
// evaluator resolves them per row — but LIMIT/OFFSET feed the planner and
// the batch post-processing directly, so they bind up front.
func bindLimitParams(stmt ast.Stmt, params []value.Value) (ast.Stmt, error) {
	switch st := stmt.(type) {
	case *ast.Select:
		return bindSelectLimits(st, params)
	case *ast.Insert:
		if st.Sel == nil || !st.Sel.HasLimitParam() {
			return stmt, nil
		}
		sel, err := bindSelectLimits(st.Sel, params)
		if err != nil {
			return nil, err
		}
		clone := *st
		clone.Sel = sel
		return &clone, nil
	}
	return stmt, nil
}

func bindSelectLimits(sel *ast.Select, params []value.Value) (*ast.Select, error) {
	if !sel.HasLimitParam() {
		return sel, nil
	}
	clone := *sel
	if p := sel.LimitParam; p != nil {
		n, err := paramCount(params, p, "LIMIT")
		if err != nil {
			return nil, err
		}
		clone.Limit, clone.LimitParam = n, nil
	}
	if p := sel.OffsetParam; p != nil {
		n, err := paramCount(params, p, "OFFSET")
		if err != nil {
			return nil, err
		}
		clone.Offset, clone.OffsetParam = n, nil
	}
	return &clone, nil
}

// selectHasParam reports whether any expression of the query block (or a
// nested block) is a bind parameter.
func selectHasParam(sel *ast.Select) bool {
	return selectHas(sel, func(e ast.Expr) bool {
		_, isParam := e.(*ast.Param)
		return isParam || selectHasParam(ast.Subquery(e))
	})
}

// paramCount resolves a LIMIT/OFFSET parameter to a non-negative integer.
func paramCount(params []value.Value, p *ast.Param, clause string) (int64, error) {
	if p.Index < 0 || p.Index >= len(params) {
		return 0, fmt.Errorf("core: %s parameter $%d is not bound (statement has %d argument(s))",
			clause, p.Index+1, len(params))
	}
	v, err := value.Coerce(params[p.Index], value.Int)
	if err != nil || v.IsNull() || v.I < 0 {
		return 0, fmt.Errorf("core: %s requires a non-negative integer argument, got %s", clause, params[p.Index].SQL())
	}
	return v.I, nil
}

// createPreference registers a persistent named preference (the paper's
// Preference Definition Language, §2.2).
func (db *DB) createPreference(cp *ast.CreatePreference) (*Result, error) {
	key := strings.ToLower(cp.Name)
	db.prefMu.Lock()
	defer db.prefMu.Unlock()
	if _, ok := db.prefs[key]; ok {
		return nil, fmt.Errorf("core: preference %s already exists", cp.Name)
	}
	// Reject dangling or cyclic references at definition time.
	if _, err := db.resolvePrefLocked(cp.Pref, map[string]bool{key: true}, 0); err != nil {
		return nil, err
	}
	db.prefs[key] = cp.Pref
	return &Result{}, nil
}

func (db *DB) dropPreference(d *ast.Drop) (*Result, error) {
	key := strings.ToLower(d.Name)
	db.prefMu.Lock()
	defer db.prefMu.Unlock()
	if _, ok := db.prefs[key]; !ok {
		if d.IfExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("core: no such preference: %s", d.Name)
	}
	delete(db.prefs, key)
	return &Result{}, nil
}

// PreferenceNames lists the defined persistent preferences, sorted.
func (db *DB) PreferenceNames() []string {
	db.prefMu.RLock()
	defer db.prefMu.RUnlock()
	out := make([]string, 0, len(db.prefs))
	for name := range db.prefs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// resolvePrefs substitutes PREFERENCE name references by their stored
// definitions, detecting cycles.
func (db *DB) resolvePrefs(p ast.Pref) (ast.Pref, error) {
	db.prefMu.RLock()
	defer db.prefMu.RUnlock()
	return db.resolvePrefLocked(p, map[string]bool{}, 0)
}

func (db *DB) resolvePrefLocked(p ast.Pref, visiting map[string]bool, depth int) (ast.Pref, error) {
	if depth > 64 {
		return nil, fmt.Errorf("core: preference references nested too deeply")
	}
	switch x := p.(type) {
	case *ast.PrefRef:
		key := strings.ToLower(x.Name)
		if visiting[key] {
			return nil, fmt.Errorf("core: preference %s references itself", x.Name)
		}
		def, ok := db.prefs[key]
		if !ok {
			return nil, fmt.Errorf("core: no such preference: %s", x.Name)
		}
		visiting[key] = true
		resolved, err := db.resolvePrefLocked(def, visiting, depth+1)
		delete(visiting, key)
		return resolved, err
	case *ast.PrefPareto:
		parts := make([]ast.Pref, len(x.Parts))
		for i, q := range x.Parts {
			r, err := db.resolvePrefLocked(q, visiting, depth+1)
			if err != nil {
				return nil, err
			}
			parts[i] = r
		}
		return &ast.PrefPareto{Parts: parts}, nil
	case *ast.PrefCascade:
		parts := make([]ast.Pref, len(x.Parts))
		for i, q := range x.Parts {
			r, err := db.resolvePrefLocked(q, visiting, depth+1)
			if err != nil {
				return nil, err
			}
			parts[i] = r
		}
		return &ast.PrefCascade{Parts: parts}, nil
	case *ast.PrefElse:
		first, err := db.resolvePrefLocked(x.First, visiting, depth+1)
		if err != nil {
			return nil, err
		}
		second, err := db.resolvePrefLocked(x.Second, visiting, depth+1)
		if err != nil {
			return nil, err
		}
		return &ast.PrefElse{First: first, Second: second}, nil
	default:
		return p, nil
	}
}

// RewritePlan exposes the §3.2 rewriting of a preference query as a plain
// SQL92 script (the CLI's EXPLAIN output).
func (db *DB) RewritePlan(sql string) (*rewrite.Plan, error) {
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	db.stmtMu.RLock()
	defer db.stmtMu.RUnlock()
	if !sel.HasPreference() {
		return nil, fmt.Errorf("core: not a preference query")
	}
	return db.rewriteSel(sel, bgEnv)
}

// ---------------------------------------------------------------------------
// Preference query execution
// ---------------------------------------------------------------------------

// rewriteSel resolves sel's named preferences and rewrites it (§3.2)
// over the column names of its FROM part, which the rewriter annotates
// with level columns.
func (db *DB) rewriteSel(sel *ast.Select, ee execEnv) (*rewrite.Plan, error) {
	sel, err := db.resolveSel(sel)
	if err != nil {
		return nil, err
	}
	pipe, err := db.candidates(sel.From, nil, ee)
	if err != nil {
		return nil, err
	}
	return rewrite.Rewrite(sel, pipe.Node().Schema().Names())
}

// candidates plans the candidate relation of a preference query, `SELECT
// * FROM from WHERE where`: its columns are what the preference and
// projection bind against.
func (db *DB) candidates(from []ast.TableRef, where ast.Expr, ee execEnv) (*engine.Pipeline, error) {
	return db.eng.PipelineArgs(ee.ctx, &ast.Select{
		Items: []ast.SelectItem{{Expr: &ast.Star{}}},
		From:  from,
		Where: where,
		Limit: -1,
	}, ee.params)
}

// queryViaRewrite executes a preference query by the §3.2 rewriting to
// SQL92 views and NOT EXISTS — the semantic oracle the native plan is
// differentially tested against.
func (s *Session) queryViaRewrite(sel *ast.Select, ee execEnv) (*Result, error) {
	db := s.db
	if len(sel.GroupBy) > 0 || sel.Having != nil {
		return nil, errGroupByPreferring
	}
	plan, err := db.rewriteSel(sel, ee)
	if err != nil {
		return nil, err
	}
	// Setup/teardown only create and drop views; the generated view bodies
	// may embed parameters from the preference term, which resolve when the
	// views materialize during the query — so every step runs under the
	// execution's context and arguments.
	for i, s := range plan.Setup {
		if _, err := db.eng.ExecStmtArgs(ee.ctx, s, ee.params); err != nil {
			// drop the views created so far
			for j := len(plan.Teardown) - len(plan.Setup) + i; j < len(plan.Teardown); j++ {
				_, _ = db.eng.ExecStmt(plan.Teardown[j])
			}
			return nil, fmt.Errorf("core: rewrite setup: %w", err)
		}
	}
	res, qerr := db.eng.ExecStmtArgs(ee.ctx, plan.Query, ee.params)
	for _, s := range plan.Teardown {
		if _, terr := db.eng.ExecStmt(s); terr != nil && qerr == nil {
			qerr = terr
		}
	}
	if qerr != nil {
		return nil, qerr
	}
	return res, nil
}

// insertPreference implements §2.2.5: Preference SQL queries as sub-queries
// of INSERT statements.
func (s *Session) insertPreference(ins *ast.Insert, ee execEnv) (*Result, error) {
	db := s.db
	res, err := s.querySelect(ins.Sel, ee)
	if err != nil {
		return nil, err
	}
	tbl, ok := db.eng.Catalog().Table(ins.Table)
	if !ok {
		return nil, fmt.Errorf("core: no such table: %s", ins.Table)
	}
	colIdx := make([]int, len(ins.Columns))
	for i, c := range ins.Columns {
		idx := tbl.Schema.ColIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("core: table %s has no column %s", ins.Table, c)
		}
		colIdx[i] = idx
	}
	n := 0
	for _, row := range res.Rows {
		full := row
		if len(ins.Columns) > 0 {
			if len(row) != len(colIdx) {
				return nil, fmt.Errorf("core: INSERT has %d values for %d columns", len(row), len(colIdx))
			}
			full = make(value.Row, len(tbl.Schema.Cols))
			for i, v := range row {
				full[colIdx[i]] = v
			}
		}
		if err := tbl.Insert(full); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n}, nil
}

// ---------------------------------------------------------------------------
// Result formatting
// ---------------------------------------------------------------------------

// FormatResult renders a result as an aligned text table, the form used by
// the CLI and the benchmark harness.
func FormatResult(res *Result) string {
	if res == nil || len(res.Columns) == 0 {
		return fmt.Sprintf("(%d rows affected)\n", func() int {
			if res == nil {
				return 0
			}
			return res.Affected
		}())
	}
	widths := make([]int, len(res.Columns))
	for i, c := range res.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(res.Rows))
	for ri, row := range res.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(v)
			for p := len(v); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(res.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	fmt.Fprintf(&b, "(%d rows)\n", len(res.Rows))
	return b.String()
}
