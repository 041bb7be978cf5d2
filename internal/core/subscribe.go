package core

import (
	"context"
	"fmt"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/live"
	"repro/internal/parser"
	"repro/internal/storage"
	"repro/internal/value"
)

// SubscribeOptions tunes a subscription's delivery behavior.
type SubscribeOptions struct {
	// Queue is the bounded delta-queue capacity (live.DefaultQueue when
	// 0). A consumer that falls behind by a full queue is evicted
	// rather than back-pressuring writers.
	Queue int
	// OnEvict runs once if the subscription is evicted as a slow
	// consumer; the server closes the network connection here.
	OnEvict func()
}

// Subscribe registers a continuous query: `SUBSCRIBE SELECT ... FROM t
// [WHERE ...] [PREFERRING ...]` (the SUBSCRIBE keyword is optional in
// the statement text). The returned subscription carries the result set
// as of registration (Initial) plus a delta channel that streams every
// later change, maintained incrementally under DML — see package live.
//
// If ctx is cancellable, cancelling it closes the subscription.
func (s *Session) Subscribe(ctx context.Context, sql string, args ...any) (*live.Subscription, error) {
	vals, err := value.FromGoArgs(args)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return s.SubscribeValues(ctx, sql, vals, SubscribeOptions{})
}

// SubscribeValues is Subscribe with pre-converted argument values and
// explicit options — the typed primitive behind the server layer.
func (s *Session) SubscribeValues(ctx context.Context, sql string, args []value.Value, opts SubscribeOptions) (*live.Subscription, error) {
	stmts, nparams, err := parser.ParseAllCount(sql)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("core: SUBSCRIBE takes exactly one statement, got %d", len(stmts))
	}
	if err := checkArgCount(nparams, args); err != nil {
		return nil, err
	}
	var sel *ast.Select
	switch st := stmts[0].(type) {
	case *ast.Subscribe:
		sel = st.Sel
	case *ast.Select:
		sel = st
	default:
		return nil, fmt.Errorf("core: cannot subscribe to a %s statement", stmtKind(stmts[0]))
	}
	return s.subscribeSelect(ctx, sel, args, opts)
}

// subscribeSelect validates the query shape, compiles the predicate /
// preference / projection, and registers the subscription atomically
// with respect to writers.
func (s *Session) subscribeSelect(ctx context.Context, sel *ast.Select, args []value.Value, opts SubscribeOptions) (*live.Subscription, error) {
	db := s.db
	tbl, cols, err := db.subscribeTarget(sel)
	if err != nil {
		return nil, err
	}
	if db.distSharded(tbl.Name) {
		return nil, fmt.Errorf("core: SUBSCRIBE is not supported on sharded table %s (writes happen on the shards, not the coordinator)", tbl.Name)
	}
	if err := checkSubscribeShape(sel); err != nil {
		return nil, err
	}

	var term ast.Pref
	if sel.HasPreference() {
		if term, err = db.resolvePrefs(sel.Preferring); err != nil {
			return nil, err
		}
		if prefHasSubquery(term) {
			return nil, fmt.Errorf("core: SUBSCRIBE does not support subqueries in PREFERRING")
		}
	}
	binder, _, prefs, err := db.bindPreference(cols, execEnv{ctx: ctx, params: args}, term)
	if err != nil {
		return nil, err
	}
	var cond func(value.Row) (bool, error)
	if sel.Where != nil {
		cond, _ = binder.Cond(sel.Where)
	}
	proj := expr.CompileProjection(sel.Items, binder.scope)

	// Registration must be atomic with respect to writers: under the
	// shared read lock no write statement runs, so the initial scan and
	// the listener attach see the same table state, and the frozen
	// Initial rows plus the delta stream form one consistent history.
	db.stmtMu.RLock()
	defer db.stmtMu.RUnlock()
	sub, err := db.live.Subscribe(live.Spec{
		SQL:     (&ast.Subscribe{Sel: sel}).SQL(),
		Table:   tbl,
		Columns: proj.Names(),
		Pref:    prefs[0],
		Cond:    cond,
		Project: func(row value.Row) (value.Row, error) { return proj.Row(binder.rt, row) },
		Queue:   opts.Queue,
		OnEvict: opts.OnEvict,
	})
	if err != nil {
		return nil, err
	}
	if ctx != nil && ctx.Done() != nil {
		// Cancellation closes the subscription (idempotent with an
		// explicit Close); the watcher lives until the context ends.
		go func() {
			<-ctx.Done()
			sub.Close()
		}()
	}
	return sub, nil
}

// subscribeTarget resolves the single-base-table FROM clause.
func (db *DB) subscribeTarget(sel *ast.Select) (*storage.Table, []engine.ColInfo, error) {
	if len(sel.From) != 1 {
		return nil, nil, fmt.Errorf("core: SUBSCRIBE requires exactly one table in FROM")
	}
	bt, ok := sel.From[0].(*ast.BaseTable)
	if !ok {
		return nil, nil, fmt.Errorf("core: SUBSCRIBE supports only a single base table (no joins or derived tables)")
	}
	cat := db.eng.Catalog()
	if _, isView := cat.View(bt.Name); isView {
		return nil, nil, fmt.Errorf("core: SUBSCRIBE over a view is not supported (subscribe to its base table)")
	}
	tbl, ok := cat.Table(bt.Name)
	if !ok {
		return nil, nil, fmt.Errorf("core: no such table %s", bt.Name)
	}
	qual := bt.Name
	if bt.Alias != "" {
		qual = bt.Alias
	}
	cols := make([]engine.ColInfo, len(tbl.Schema.Cols))
	for i, c := range tbl.Schema.Cols {
		cols[i] = engine.ColInfo{Qual: qual, Name: c.Name}
	}
	return tbl, cols, nil
}

// checkSubscribeShape rejects Select features incremental maintenance
// cannot uphold: anything that makes the result a non-monotone function
// of more than per-row membership (grouping, ordering, limits,
// quality-function post-processing) or that would re-run nested queries
// on every write (subqueries).
func checkSubscribeShape(sel *ast.Select) error {
	switch {
	case sel.Distinct:
		return fmt.Errorf("core: SUBSCRIBE does not support DISTINCT")
	case len(sel.GroupBy) > 0 || sel.Having != nil:
		return fmt.Errorf("core: SUBSCRIBE does not support GROUP BY / HAVING")
	case len(sel.Grouping) > 0:
		return fmt.Errorf("core: SUBSCRIBE does not support GROUPING")
	case sel.ButOnly != nil:
		return fmt.Errorf("core: SUBSCRIBE does not support BUT ONLY")
	case len(sel.OrderBy) > 0:
		return fmt.Errorf("core: SUBSCRIBE does not support ORDER BY (deltas are unordered)")
	case sel.Limit >= 0 || sel.Offset > 0 || sel.HasLimitParam():
		return fmt.Errorf("core: SUBSCRIBE does not support LIMIT / OFFSET")
	case selUsesQualityFuncs(sel):
		return fmt.Errorf("core: SUBSCRIBE does not support quality functions (TOP/LEVEL/DISTANCE)")
	}
	if exprHasSubquery(sel.Where) {
		return fmt.Errorf("core: SUBSCRIBE does not support subqueries in WHERE")
	}
	for _, it := range sel.Items {
		if exprHasSubquery(it.Expr) {
			return fmt.Errorf("core: SUBSCRIBE does not support subqueries in the select list")
		}
	}
	return nil
}
