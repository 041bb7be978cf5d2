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
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/bmo"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/live"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/preference"
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
// heap images capture a statement-consistent state.
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

// SetMode switches between native BMO evaluation and SQL92 rewriting.
//
// Deprecated: this sets the default session's mode. Concurrent clients
// should carry their own Session (NewSession) so they cannot flip each
// other's execution strategy mid-query.
func (db *DB) SetMode(m Mode) { db.def.SetMode(m) }

// Mode reports the default session's execution mode.
func (db *DB) Mode() Mode { return db.def.Mode() }

// SetAlgorithm selects the native BMO algorithm (default bmo.Auto).
//
// Deprecated: this sets the default session's algorithm; see SetMode.
func (db *DB) SetAlgorithm(a bmo.Algorithm) { db.def.SetAlgorithm(a) }

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
		if table, dist, derr := db.distSelectTable(st); derr != nil {
			return nil, derr
		} else if dist {
			return s.queryDistributed(st, table, ee)
		}
		if st.HasPreference() {
			return s.queryPreference(st, ee)
		}
		if st.ButOnly != nil || len(st.Grouping) > 0 {
			return nil, fmt.Errorf("core: GROUPING and BUT ONLY require a PREFERRING clause")
		}
		return db.eng.SelectArgs(ee.ctx, st, ee.params)
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
	if sel == nil {
		return false
	}
	if sel.HasLimitParam() {
		return true
	}
	for _, it := range sel.Items {
		if exprHasParam(it.Expr) {
			return true
		}
	}
	for _, tr := range sel.From {
		if tableRefHasParam(tr) {
			return true
		}
	}
	if exprHasParam(sel.Where) || exprHasParam(sel.ButOnly) || exprHasParam(sel.Having) {
		return true
	}
	for _, e := range sel.GroupBy {
		if exprHasParam(e) {
			return true
		}
	}
	for _, ob := range sel.OrderBy {
		if exprHasParam(ob.Expr) {
			return true
		}
	}
	return false
}

func tableRefHasParam(tr ast.TableRef) bool {
	switch t := tr.(type) {
	case *ast.SubqueryTable:
		return selectHasParam(t.Sel)
	case *ast.Join:
		return tableRefHasParam(t.Left) || tableRefHasParam(t.Right) || exprHasParam(t.On)
	}
	return false
}

func exprHasParam(e ast.Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *ast.Param:
		return true
	case *ast.Unary:
		return exprHasParam(x.X)
	case *ast.Binary:
		return exprHasParam(x.L) || exprHasParam(x.R)
	case *ast.IsNull:
		return exprHasParam(x.X)
	case *ast.InList:
		if exprHasParam(x.X) {
			return true
		}
		for _, i := range x.List {
			if exprHasParam(i) {
				return true
			}
		}
	case *ast.InSelect:
		return exprHasParam(x.X) || selectHasParam(x.Sub)
	case *ast.Between:
		return exprHasParam(x.X) || exprHasParam(x.Lo) || exprHasParam(x.Hi)
	case *ast.Like:
		return exprHasParam(x.X) || exprHasParam(x.Pattern)
	case *ast.Exists:
		return selectHasParam(x.Sub)
	case *ast.ScalarSub:
		return selectHasParam(x.Sub)
	case *ast.Case:
		if exprHasParam(x.Operand) || exprHasParam(x.Else) {
			return true
		}
		for _, w := range x.Whens {
			if exprHasParam(w.When) || exprHasParam(w.Then) {
				return true
			}
		}
	case *ast.FuncCall:
		for _, a := range x.Args {
			if exprHasParam(a) {
				return true
			}
		}
	}
	return false
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
	resolved, err := db.resolvePrefs(sel.Preferring)
	if err != nil {
		return nil, err
	}
	clone := *sel
	clone.Preferring = resolved
	cols, err := db.baseColumns(&clone, bgEnv)
	if err != nil {
		return nil, err
	}
	return rewrite.Rewrite(&clone, cols)
}

// ---------------------------------------------------------------------------
// Preference query execution
// ---------------------------------------------------------------------------

func (s *Session) queryPreference(sel *ast.Select, ee execEnv) (*Result, error) {
	db := s.db
	if len(sel.GroupBy) > 0 || sel.Having != nil {
		return nil, fmt.Errorf("core: GROUP BY/HAVING cannot be combined with PREFERRING")
	}
	resolved, err := db.resolvePrefs(sel.Preferring)
	if err != nil {
		return nil, err
	}
	if resolved != sel.Preferring {
		clone := *sel
		clone.Preferring = resolved
		sel = &clone
	}
	if s.Mode() == ModeRewrite {
		return db.queryViaRewrite(sel, ee)
	}
	return s.queryNative(sel, ee)
}

// candidatePipeline plans the candidate relation of a preference query:
// FROM + hard WHERE, all columns, no limit.
func (db *DB) candidatePipeline(sel *ast.Select, ee execEnv) (*engine.Pipeline, error) {
	candidate := &ast.Select{
		Items: []ast.SelectItem{{Expr: &ast.Star{}}},
		From:  sel.From,
		Where: sel.Where,
		Limit: -1,
	}
	return db.eng.PipelineArgs(ee.ctx, candidate, ee.params)
}

// baseColumns returns the output column names of the query's FROM/WHERE
// part (the schema the rewriter annotates with level columns).
func (db *DB) baseColumns(sel *ast.Select, ee execEnv) ([]string, error) {
	probe := &ast.Select{
		Items: []ast.SelectItem{{Expr: &ast.Star{}}},
		From:  sel.From,
		Limit: 0,
	}
	det, err := db.eng.SelectDetailedArgs(ee.ctx, probe, ee.params)
	if err != nil {
		return nil, err
	}
	cols := make([]string, len(det.Cols))
	for i, c := range det.Cols {
		cols[i] = c.Name
	}
	return cols, nil
}

func (db *DB) queryViaRewrite(sel *ast.Select, ee execEnv) (*Result, error) {
	cols, err := db.baseColumns(sel, ee)
	if err != nil {
		return nil, err
	}
	plan, err := rewrite.Rewrite(sel, cols)
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
	res, qerr := db.eng.SelectArgs(ee.ctx, plan.Query, ee.params)
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

func (s *Session) queryNative(sel *ast.Select, ee execEnv) (*Result, error) {
	db := s.db
	// 1. Candidate relation: FROM + hard WHERE, all columns, compiled to
	// an operator pipeline (predicate pushdown, index probes, hash joins).
	pipe, err := db.candidatePipeline(sel, ee)
	if err != nil {
		return nil, err
	}
	var rec *exec.NodeRec
	if s.RecordNodeStats() {
		rec = pipe.EnableNodeStats()
	}
	cols := pipe.Columns()

	// 2. Compile the preference over that relation.
	binder := newRelBinder(cols, db.eng, ee)
	reg := preference.NewRegistry()
	pref, err := preference.Compile(sel.Preferring, binder, reg)
	if err != nil {
		return nil, err
	}

	// 3. BMO evaluation as a plan node on top of the candidate pipeline
	// (grouped if GROUPING is present, which materializes group-wise).
	var bmoRows, candRows []value.Row
	if len(sel.Grouping) > 0 {
		op, berr := pipe.Build(nil)
		if berr != nil {
			return nil, berr
		}
		candRows, err = exec.Drain(op)
		if err != nil {
			return nil, err
		}
		getters := make([]preference.Getter, len(sel.Grouping))
		for i, g := range sel.Grouping {
			getter, err := binder.Getter(g)
			if err != nil {
				return nil, err
			}
			getters[i] = getter
		}
		key := func(row value.Row) (string, error) {
			var b strings.Builder
			for _, g := range getters {
				v, err := g(row)
				if err != nil {
					return "", err
				}
				b.WriteString(v.Key())
				b.WriteByte(0x1f)
			}
			return b.String(), nil
		}
		bmoRows, err = bmo.EvaluateGroupedConfig(pref, candRows, key, s.Algorithm(),
			bmo.Config{Workers: s.bmoWorkers(sel)})
	} else {
		root := plan.NewBMO(pipe.Node(), pref, s.Algorithm(), false, s.bmoWorkers(sel))
		node := s.maybePush(sel, root)
		s.vectorize(sel, root, node)
		op, berr := pipe.Build(node)
		if berr != nil {
			return nil, berr
		}
		bmoRows, err = exec.Drain(op)
		if node == plan.Node(root) {
			// Unpushed plan: the BMO input is the full candidate
			// relation the quality functions measure against. A pushed
			// plan never materializes it — maybePush keeps queries that
			// call TOP/LEVEL/DISTANCE on the unpushed plan.
			candRows = exec.Unwrap(op).(*exec.BMOOp).Input()
		}
		if rec != nil && err == nil {
			s.stashPlan(node, rec)
		}
	}
	if err != nil {
		return nil, err
	}

	q := &qualityCtx{reg: reg, candidates: candRows, binder: binder}

	// 4. BUT ONLY quality filter (applied after match-making, §2.2.4).
	if bmoRows, err = q.butOnly(sel.ButOnly, bmoRows); err != nil {
		return nil, err
	}

	// 5. Projection with quality functions.
	res, err := projectPreference(sel, bmoRows, q)
	if res != nil {
		res.Stats = pipe.Stats()
	}
	return res, err
}

func projectPreference(sel *ast.Select, rows []value.Row, q *qualityCtx) (*Result, error) {
	// Output columns and per-row projection, shared with the streaming
	// cursor so batch and pipeline paths cannot drift.
	outCols, project := prefProjector(sel, q)

	// ORDER BY keys run over the source row (columns + quality functions).
	orderBy := make([]*expr.Program, len(sel.OrderBy))
	for k, ob := range sel.OrderBy {
		orderBy[k] = expr.Compile(ob.Expr, q.binder.scope)
	}

	type outPair struct {
		out  value.Row
		keys value.Row
	}
	pairs := make([]outPair, 0, len(rows))
	for _, row := range rows {
		out, err := project(row)
		if err != nil {
			return nil, err
		}
		var keys value.Row
		if len(orderBy) > 0 {
			rt := q.runtime(row)
			keys = make(value.Row, len(orderBy))
			for k, key := range orderBy {
				v, err := key.Eval(rt, row)
				if err != nil {
					return nil, err
				}
				keys[k] = v
			}
		}
		pairs = append(pairs, outPair{out: out, keys: keys})
	}

	if len(sel.OrderBy) > 0 {
		sort.SliceStable(pairs, func(a, b int) bool {
			for k, ob := range sel.OrderBy {
				va, vb := pairs[a].keys[k], pairs[b].keys[k]
				c := value.CompareNullsFirst(va, vb)
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
	}

	outRows := make([]value.Row, len(pairs))
	for i, p := range pairs {
		outRows[i] = p.out
	}
	if sel.Distinct {
		seen := map[string]bool{}
		uniq := outRows[:0:0]
		for _, r := range outRows {
			k := r.Key()
			if !seen[k] {
				seen[k] = true
				uniq = append(uniq, r)
			}
		}
		outRows = uniq
	}
	if sel.Offset > 0 {
		if sel.Offset >= int64(len(outRows)) {
			outRows = nil
		} else {
			outRows = outRows[sel.Offset:]
		}
	}
	if sel.Limit >= 0 && int64(len(outRows)) > sel.Limit {
		outRows = outRows[:sel.Limit]
	}
	return &Result{Columns: outCols, Rows: outRows}, nil
}

// insertPreference implements §2.2.5: Preference SQL queries as sub-queries
// of INSERT statements.
func (s *Session) insertPreference(ins *ast.Insert, ee execEnv) (*Result, error) {
	db := s.db
	res, err := s.queryPreference(ins.Sel, ee)
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
// Binder and quality-function environment
// ---------------------------------------------------------------------------

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
// DISTANCE anywhere the preference layer evaluates them (SELECT list,
// ORDER BY, BUT ONLY).
func selUsesQualityFuncs(sel *ast.Select) bool {
	for _, it := range sel.Items {
		if exprHasQualityFunc(it.Expr) {
			return true
		}
	}
	for _, ob := range sel.OrderBy {
		if exprHasQualityFunc(ob.Expr) {
			return true
		}
	}
	return exprHasQualityFunc(sel.ButOnly)
}

func exprHasQualityFunc(e ast.Expr) bool {
	found := false
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		switch x := e.(type) {
		case nil:
		case *ast.Unary:
			walk(x.X)
		case *ast.Binary:
			walk(x.L)
			walk(x.R)
		case *ast.IsNull:
			walk(x.X)
		case *ast.InList:
			walk(x.X)
			for _, i := range x.List {
				walk(i)
			}
		case *ast.Between:
			walk(x.X)
			walk(x.Lo)
			walk(x.Hi)
		case *ast.Like:
			walk(x.X)
			walk(x.Pattern)
		case *ast.Case:
			walk(x.Operand)
			for _, w := range x.Whens {
				walk(w.When)
				walk(w.Then)
			}
			walk(x.Else)
		// Subqueries are conservatively treated as quality-bearing: a
		// call anywhere inside the nested SELECT still reaches the
		// quality environment through the outer-correlation chain
		// (expr.RowEnv.Func falls back to Outer), so a correlated
		// `EXISTS (... DISTANCE(x) ...)` evaluates against the
		// candidate relation just like a top-level call.
		case *ast.InSelect, *ast.Exists, *ast.ScalarSub:
			found = true
		case *ast.FuncCall:
			switch strings.ToUpper(x.Name) {
			case "TOP", "LEVEL", "DISTANCE":
				found = true
			}
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	walk(e)
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
	ast.WalkPrefExprs(p, func(e ast.Expr) {
		if exprHasSubquery(e) {
			found = true
		}
	})
	return found
}

func exprHasSubquery(e ast.Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *ast.InSelect, *ast.Exists, *ast.ScalarSub:
		return true
	case *ast.Unary:
		return exprHasSubquery(x.X)
	case *ast.Binary:
		return exprHasSubquery(x.L) || exprHasSubquery(x.R)
	case *ast.IsNull:
		return exprHasSubquery(x.X)
	case *ast.InList:
		if exprHasSubquery(x.X) {
			return true
		}
		for _, i := range x.List {
			if exprHasSubquery(i) {
				return true
			}
		}
	case *ast.Between:
		return exprHasSubquery(x.X) || exprHasSubquery(x.Lo) || exprHasSubquery(x.Hi)
	case *ast.Like:
		return exprHasSubquery(x.X) || exprHasSubquery(x.Pattern)
	case *ast.Case:
		if exprHasSubquery(x.Operand) || exprHasSubquery(x.Else) {
			return true
		}
		for _, w := range x.Whens {
			if exprHasSubquery(w.When) || exprHasSubquery(w.Then) {
				return true
			}
		}
	case *ast.FuncCall:
		for _, a := range x.Args {
			if exprHasSubquery(a) {
				return true
			}
		}
	}
	return false
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

// Const implements preference.Binder: preference parameters must not
// reference columns.
func (b *relBinder) Const(e ast.Expr) (value.Value, error) {
	ev := expr.Evaluator{Runner: b.rt.Runner, Params: b.rt.Params}
	return ev.Eval(e, nil)
}

// qualityCtx computes TOP/LEVEL/DISTANCE per §2.2.3. For LOWEST/HIGHEST
// (no a-priori optimum) distances are relative to the best value in the
// candidate set; for all other base types they are absolute.
type qualityCtx struct {
	reg        *preference.Registry
	candidates []value.Row
	binder     *relBinder
	minScores  map[string]float64 // lazily computed per attribute label
}

func (q *qualityCtx) quality(name string, arg ast.Expr, row value.Row) (value.Value, error) {
	label := arg.SQL()
	p, ok := q.reg.Lookup(label)
	if !ok {
		return value.Value{}, fmt.Errorf("%s(%s): no preference on that attribute", name, label)
	}
	if ex, isExplicit := p.(*preference.Explicit); isExplicit {
		lvl, err := ex.Level(row)
		if err != nil {
			return value.Value{}, err
		}
		switch name {
		case "LEVEL":
			return value.NewInt(int64(lvl)), nil
		case "TOP":
			return value.NewBool(lvl == 1), nil
		default:
			return value.Value{}, fmt.Errorf("DISTANCE is undefined for EXPLICIT preferences")
		}
	}
	s, isScored := p.(preference.Scored)
	if !isScored {
		return value.Value{}, fmt.Errorf("%s(%s): unsupported preference type", name, label)
	}
	score, err := s.Score(row)
	if err != nil {
		return value.Value{}, err
	}
	if math.IsInf(score, 1) { // NULL attribute value
		if name == "TOP" {
			return value.NewBool(false), nil
		}
		return value.NewNull(), nil
	}
	dist := score
	if !s.HasOptimum() {
		min, err := q.minScore(label, s)
		if err != nil {
			return value.Value{}, err
		}
		dist = score - min
	}
	switch name {
	case "DISTANCE":
		return value.NewFloat(dist), nil
	case "TOP":
		return value.NewBool(dist == 0), nil
	case "LEVEL":
		if s.Discrete() {
			return value.NewInt(int64(score) + 1), nil
		}
		if dist == 0 {
			return value.NewInt(1), nil
		}
		return value.NewInt(2), nil
	}
	return value.Value{}, fmt.Errorf("unknown quality function %s", name)
}

func (q *qualityCtx) minScore(label string, s preference.Scored) (float64, error) {
	if q.minScores == nil {
		q.minScores = map[string]float64{}
	}
	key := strings.ToLower(label)
	if v, ok := q.minScores[key]; ok {
		return v, nil
	}
	min := math.Inf(1)
	for _, row := range q.candidates {
		sc, err := s.Score(row)
		if err != nil {
			return 0, err
		}
		if sc < min {
			min = sc
		}
	}
	q.minScores[key] = min
	return min, nil
}

// qualityFuncs is the by-name environment of one BMO result row: it binds
// TOP/LEVEL/DISTANCE calls — also those inside a correlated subquery — to
// the quality context, and resolves no columns.
type qualityFuncs struct {
	q   *qualityCtx
	row value.Row
}

// Col implements expr.Env.
func (e *qualityFuncs) Col(string, string) (value.Value, bool) { return value.Value{}, false }

// Func implements expr.Env, binding TOP/LEVEL/DISTANCE.
func (e *qualityFuncs) Func(fc *ast.FuncCall) (value.Value, bool, error) {
	switch strings.ToUpper(fc.Name) {
	case "TOP", "LEVEL", "DISTANCE":
		if len(fc.Args) != 1 {
			return value.Value{}, false, fmt.Errorf("%s expects one attribute argument", fc.Name)
		}
		v, err := e.q.quality(strings.ToUpper(fc.Name), fc.Args[0], e.row)
		return v, true, err
	}
	return value.Value{}, false, nil
}

// runtime is the binder's runtime with the quality functions bound to row.
func (q *qualityCtx) runtime(row value.Row) *expr.Runtime {
	rt := *q.binder.rt
	rt.Outer = &qualityFuncs{q: q, row: row}
	return &rt
}

// butOnly applies the BUT ONLY quality filter (nil: keep everything).
func (q *qualityCtx) butOnly(cond ast.Expr, rows []value.Row) ([]value.Row, error) {
	if cond == nil {
		return rows, nil
	}
	keep := q.filter(cond)
	kept := rows[:0:0]
	for _, row := range rows {
		ok, err := keep(row)
		if err != nil {
			return nil, err
		}
		if ok {
			kept = append(kept, row)
		}
	}
	return kept, nil
}

// filter compiles a BUT ONLY condition into a row predicate.
func (q *qualityCtx) filter(cond ast.Expr) func(value.Row) (bool, error) {
	prog := expr.Compile(cond, q.binder.scope)
	return func(row value.Row) (bool, error) { return prog.EvalBool(q.runtime(row), row) }
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
