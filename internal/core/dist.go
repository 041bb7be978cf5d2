package core

// Distributed preference SQL, coordinator side. A coordinator is a
// normal node with a Distributor injected (SetDistributor): statements
// touching a hash-partitioned table are intercepted in routeStmt /
// openCursor and executed scatter-gather — the per-shard preference
// query ships to every shard over the wire protocol, the partial
// skylines stream back concurrently, and a plan.Gather node merges them
// with the dominance-filtered partition merge. The coordinator keeps a
// local, always-empty copy of each sharded table purely as the schema
// authority for planning, binding and EXPLAIN.
//
// Execution is always native (ModeNative semantics); the rewrite mode
// cannot run on a relation no single node holds. Distributed queries
// reject the shapes whose semantics need the whole relation in one
// place before merging is sound: joins and derived tables over sharded
// tables, subqueries (they would evaluate against per-shard data),
// GROUP BY / HAVING / GROUPING, and the quality functions
// TOP/LEVEL/DISTANCE (they measure against the full candidate
// relation). Everything else — WHERE, PREFERRING (with cascade
// splitting), BUT ONLY, projection, ORDER BY, DISTINCT, LIMIT/OFFSET —
// works, with the clauses after the preference applied coordinator-side
// over the merged result.

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/value"
)

// Distributor is what a coordinator needs from the cluster layer: the
// sharded-table catalog, the gather transport, and single-shard /
// broadcast statement execution. internal/dist implements it over the
// wire client (this package cannot import dist — the client imports
// core), and cmd/prefserve injects it at startup.
type Distributor interface {
	// Lookup reports whether table is hash-partitioned, and over which
	// column.
	Lookup(table string) (hashCol string, ok bool)
	// Transport opens the per-shard row streams for gather plans.
	Transport() plan.ShardTransport
	// Exec runs sql on one shard (hash-routed INSERTs).
	Exec(ctx context.Context, shard int, sql string, args []value.Value) (int64, error)
	// ExecAll broadcasts sql to every shard and sums the affected counts
	// (DDL, broadcast UPDATE/DELETE).
	ExecAll(ctx context.Context, sql string, args []value.Value) (int64, error)
}

// SetDistributor turns this database into a coordinator. Set once at
// startup, before the node serves statements; a nil Distributor (the
// default) makes every code path below a no-op.
func (db *DB) SetDistributor(d Distributor) { db.dist = d }

// Distributor reports the injected cluster layer, nil on a plain node.
func (db *DB) Distributor() Distributor { return db.dist }

// stopFromCtx adapts a statement context to the exec layer's Stop hook.
func stopFromCtx(ctx context.Context) func() error {
	if ctx == nil {
		return nil
	}
	return func() error { return ctx.Err() }
}

// ---------------------------------------------------------------------------
// Sharded-table detection
// ---------------------------------------------------------------------------

// collectSelTables gathers every base-table name a query block
// references: the FROM tree (derived tables included), expression
// subqueries anywhere, and the preference term.
func collectSelTables(sel *ast.Select, out map[string]bool) {
	var from func(ast.TableRef)
	from = func(tr ast.TableRef) {
		switch x := tr.(type) {
		case *ast.BaseTable:
			out[strings.ToLower(x.Name)] = true
		case *ast.SubqueryTable:
			for _, t := range x.Sel.From {
				from(t)
			}
		case *ast.Join:
			from(x.Left)
			from(x.Right)
		}
	}
	for _, tr := range sel.From {
		from(tr)
	}
	ast.InspectSelect(sel, func(e ast.Expr) bool {
		if sub := ast.Subquery(e); sub != nil {
			collectSelTables(sub, out)
		}
		return true
	})
}

// distTouches reports whether the query block references any sharded
// table (used to keep sharded statements off the local-only fast
// paths: the prepared-statement plan cache, CREATE VIEW bodies).
func (db *DB) distTouches(sel *ast.Select) bool {
	if db.dist == nil || sel == nil {
		return false
	}
	names := map[string]bool{}
	collectSelTables(sel, names)
	for n := range names {
		if _, ok := db.dist.Lookup(n); ok {
			return true
		}
	}
	return false
}

// distSharded reports whether table is hash-partitioned on this node.
func (db *DB) distSharded(table string) bool {
	if db.dist == nil {
		return false
	}
	_, ok := db.dist.Lookup(table)
	return ok
}

// distSelectTable decides whether a SELECT is distributed. ok means the
// query reads exactly one sharded base table and takes the
// scatter-gather path; a non-nil error means it touches a sharded table
// in a shape the distributed executor cannot run soundly. (ok=false,
// err=nil) is the common case: a purely local query.
func (db *DB) distSelectTable(sel *ast.Select) (string, bool, error) {
	if db.dist == nil {
		return "", false, nil
	}
	names := map[string]bool{}
	collectSelTables(sel, names)
	sharded := ""
	for n := range names {
		if _, ok := db.dist.Lookup(n); ok {
			sharded = n
			break
		}
	}
	if sharded == "" {
		return "", false, nil
	}
	if len(sel.From) != 1 {
		return "", false, fmt.Errorf("core: sharded table %s can only be read with a single-table FROM (no joins)", sharded)
	}
	bt, ok := sel.From[0].(*ast.BaseTable)
	if !ok {
		return "", false, fmt.Errorf("core: sharded table %s cannot appear in a join or derived table", sharded)
	}
	if !db.distSharded(bt.Name) {
		return "", false, fmt.Errorf("core: sharded table %s can only be read as the single FROM table, not from a subquery", sharded)
	}
	if selectHas(sel, func(e ast.Expr) bool { return ast.Subquery(e) != nil }) {
		return "", false, fmt.Errorf("core: subqueries are not supported in queries over sharded table %s (they would evaluate per shard)", bt.Name)
	}
	if len(sel.GroupBy) > 0 || sel.Having != nil {
		return "", false, fmt.Errorf("core: GROUP BY/HAVING is not supported over sharded table %s", bt.Name)
	}
	if len(plan.Aggregates(sel)) > 0 {
		return "", false, fmt.Errorf("core: aggregates are not supported over sharded table %s (a per-shard aggregate is not the global one)", bt.Name)
	}
	if len(sel.Grouping) > 0 {
		return "", false, fmt.Errorf("core: GROUPING is not supported over sharded table %s (groups span shards)", bt.Name)
	}
	if selUsesQualityFuncs(sel) {
		return "", false, fmt.Errorf("core: TOP/LEVEL/DISTANCE are not supported over sharded table %s (they measure against the full candidate relation)", bt.Name)
	}
	return bt.Name, true, nil
}

// ---------------------------------------------------------------------------
// Distributed SELECT
// ---------------------------------------------------------------------------

// planDistSelect plans the scatter-gather execution of a SELECT over a
// sharded table. The shards get the candidate relation plus the first
// cascade stage (`SELECT * FROM t [WHERE ...] [PREFERRING stage1]`):
// skyline(R) ⊆ ∪ᵢ skyline(Rᵢ) makes pushing one preference stage sound,
// while later cascade stages discriminate among survivors over the
// whole relation — which no shard sees — so they stay at the
// coordinator as the merge's residual. Projection, BUT ONLY, ORDER BY,
// DISTINCT and LIMIT/OFFSET likewise run coordinator-side: the same
// ButOnly / QualityProject tail a local preference query has, over the
// Gather instead of a BMO.
func (s *Session) planDistSelect(sel *ast.Select, table string, ee execEnv, form planForm) (*stmtPlan, error) {
	db := s.db
	if !sel.HasPreference() && (sel.ButOnly != nil || len(sel.Grouping) > 0) {
		return nil, errNoPreferring
	}
	sel, err := db.resolveSel(sel)
	if err != nil {
		return nil, err
	}

	// Split the cascade: stage 1 ships to the shards, the rest is the
	// coordinator's residual.
	pushed := sel.Preferring
	var residual ast.Pref
	if c, ok := pushed.(*ast.PrefCascade); ok && len(c.Parts) > 1 {
		pushed = c.Parts[0]
		if len(c.Parts) == 2 {
			residual = c.Parts[1]
		} else {
			residual = &ast.PrefCascade{Parts: c.Parts[1:]}
		}
	}

	// The local (empty) copy of the sharded table is the schema
	// authority the preference and projection bind against.
	pipe, err := db.candidates(sel.From, nil, ee)
	if err != nil {
		return nil, err
	}
	cols := pipe.Columns()
	binder, _, prefs, err := db.bindPreference(cols, ee, pushed, residual)
	if err != nil {
		return nil, err
	}
	pref, post := prefs[0], prefs[1]

	// Shard statement: all columns, the hard WHERE, the pushed stage.
	// Parameters render positionally ($n with the original indices), so
	// re-parsing tells how many of the statement's arguments the shards
	// need — LIMIT/OFFSET parameters were already bound to literals and
	// never reach the shard SQL.
	shardSel := &ast.Select{
		Items:      []ast.SelectItem{{Expr: &ast.Star{}}},
		From:       sel.From,
		Where:      sel.Where,
		Preferring: pushed,
		Limit:      -1,
	}
	shardSQL := shardSel.SQL()
	_, np, err := parser.ParseSelectCount(shardSQL)
	if err != nil {
		return nil, fmt.Errorf("core: shard statement: %w", err)
	}
	args := ee.params
	if np <= len(args) {
		args = args[:np]
	}

	// Progressive when nothing runs after the merge: the shards stream
	// their skylines in the kernel's key order, which every evaluation
	// emits.
	progressive := pref != nil && post == nil
	if form == formStrict && !progressive {
		return nil, fmt.Errorf("core: the preference does not stream over sharded table %s (progressive gather needs a preference with no residual cascade stage)", table)
	}
	node := &plan.Gather{
		Table:       table,
		ShardSQL:    shardSQL,
		Args:        args,
		Cols:        cols,
		Transport:   db.dist.Transport(),
		Pref:        pref,
		Post:        post,
		Progressive: progressive,
		Workers:     s.Workers(),
	}
	env := &exec.Env{Rt: binder.rt, Stats: &exec.Stats{}, Stop: stopFromCtx(ee.ctx)}
	return s.newPlan(qualityTail(node, sel), env), nil
}

// ---------------------------------------------------------------------------
// Distributed DML and DDL
// ---------------------------------------------------------------------------

// hashShard routes a hash-column value: FNV-1a over the value's
// canonical key, mod the shard count. NULL keys hash like any other, so
// rows with a NULL hash column land on one deterministic shard.
func hashShard(v value.Value, n int) int {
	h := fnv.New32a()
	h.Write([]byte(v.Key()))
	return int(h.Sum32() % uint32(n))
}

// errDistSubquery rejects subqueries in sharded DML: forwarded verbatim
// they would evaluate against each shard's partition, not the relation.
func errDistSubquery(table string) error {
	return fmt.Errorf("core: subqueries are not supported in statements on sharded table %s (they would evaluate per shard)", table)
}

// distInsert hash-routes an INSERT into a sharded table: each row's
// expressions are evaluated at the coordinator, the hash column picks
// the shard, and every shard gets one literal INSERT with its rows. The
// local schema copy stays empty. handled=false means the statement does
// not involve a sharded table and takes the normal path.
func (s *Session) distInsert(ins *ast.Insert, ee execEnv) (bool, *Result, error) {
	db := s.db
	hashCol, ok := db.dist.Lookup(ins.Table)
	if !ok {
		if ins.Sel != nil && db.distTouches(ins.Sel) {
			return true, nil, fmt.Errorf("core: INSERT ... SELECT reading a sharded table is not supported")
		}
		return false, nil, nil
	}
	if ins.Sel != nil {
		return true, nil, fmt.Errorf("core: INSERT ... SELECT into sharded table %s is not supported", ins.Table)
	}
	// Position of the hash column among the inserted values; -1 (column
	// list without the hash column) hashes NULL.
	idx := -1
	if len(ins.Columns) > 0 {
		for i, c := range ins.Columns {
			if strings.EqualFold(c, hashCol) {
				idx = i
				break
			}
		}
	} else {
		tbl, ok := db.eng.Catalog().Table(ins.Table)
		if !ok {
			return true, nil, fmt.Errorf("core: no such table: %s", ins.Table)
		}
		idx = tbl.Schema.ColIndex(hashCol)
	}
	ev := expr.Evaluator{Runner: db.eng.RunnerArgs(ee.ctx, ee.params), Params: ee.params}
	n := len(db.dist.Transport().ShardNames())
	perShard := make([][]string, n)
	for _, row := range ins.Rows {
		vals := make([]string, len(row))
		hash := value.NewNull()
		for i, e := range row {
			v, err := ev.Eval(e, nil)
			if err != nil {
				return true, nil, err
			}
			if i == idx {
				hash = v
			}
			vals[i] = v.SQL()
		}
		sh := hashShard(hash, n)
		perShard[sh] = append(perShard[sh], "("+strings.Join(vals, ", ")+")")
	}
	var total int64
	for i, tuples := range perShard {
		if len(tuples) == 0 {
			continue
		}
		var b strings.Builder
		b.WriteString("INSERT INTO ")
		b.WriteString(ins.Table)
		if len(ins.Columns) > 0 {
			b.WriteString(" (" + strings.Join(ins.Columns, ", ") + ")")
		}
		b.WriteString(" VALUES " + strings.Join(tuples, ", "))
		aff, err := db.dist.Exec(ee.ctx, i, b.String(), nil)
		if err != nil {
			return true, nil, err
		}
		total += aff
	}
	return true, &Result{Affected: int(total)}, nil
}

// distExecBroadcast forwards a statement verbatim to every shard,
// trimming the argument list to the parameters the statement actually
// declares (a multi-statement script shares one argument list).
func (s *Session) distExecBroadcast(stmt ast.Stmt, ee execEnv) (*Result, error) {
	sqlText := stmt.SQL()
	args := ee.params
	if _, np, err := parser.ParseAllCount(sqlText); err == nil && np <= len(args) {
		args = args[:np]
	}
	aff, err := s.db.dist.ExecAll(ee.ctx, sqlText, args)
	if err != nil {
		return nil, err
	}
	return &Result{Affected: int(aff)}, nil
}

// distUpdate broadcasts an UPDATE on a sharded table (every row stays
// on its shard, so forwarding is exact) — unless it would change the
// hash column, which would need cross-shard row movement.
func (s *Session) distUpdate(up *ast.Update, ee execEnv) (bool, *Result, error) {
	hashCol, ok := s.db.dist.Lookup(up.Table)
	if !ok {
		return false, nil, nil
	}
	for _, set := range up.Sets {
		if strings.EqualFold(set.Column, hashCol) {
			return true, nil, fmt.Errorf("core: UPDATE cannot change hash column %s of sharded table %s (rows would need re-routing)", hashCol, up.Table)
		}
		if exprHasSubquery(set.Expr) {
			return true, nil, errDistSubquery(up.Table)
		}
	}
	if exprHasSubquery(up.Where) {
		return true, nil, errDistSubquery(up.Table)
	}
	res, err := s.distExecBroadcast(up, ee)
	return true, res, err
}

// distDelete broadcasts a DELETE on a sharded table.
func (s *Session) distDelete(del *ast.Delete, ee execEnv) (bool, *Result, error) {
	if !s.db.distSharded(del.Table) {
		return false, nil, nil
	}
	if exprHasSubquery(del.Where) {
		return true, nil, errDistSubquery(del.Table)
	}
	res, err := s.distExecBroadcast(del, ee)
	return true, res, err
}

// distCreateTable creates a sharded table: locally (the coordinator's
// empty schema copy) and on every shard.
func (s *Session) distCreateTable(ct *ast.CreateTable, hashCol string, ee execEnv) (*Result, error) {
	found := false
	for _, c := range ct.Cols {
		if strings.EqualFold(c.Name, hashCol) {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("core: sharded table %s has no hash column %s", ct.Name, hashCol)
	}
	res, err := s.db.eng.ExecStmtArgs(ee.ctx, ct, ee.params)
	if err != nil {
		return nil, err
	}
	if _, err := s.db.dist.ExecAll(ee.ctx, ct.SQL(), nil); err != nil {
		return nil, err
	}
	return res, nil
}

// distBroadcastDDL runs a DDL statement locally, then on every shard
// (DROP TABLE / CREATE INDEX on sharded tables).
func (s *Session) distBroadcastDDL(stmt ast.Stmt, ee execEnv) (*Result, error) {
	res, err := s.db.eng.ExecStmtArgs(ee.ctx, stmt, ee.params)
	if err != nil {
		return nil, err
	}
	if _, err := s.db.dist.ExecAll(ee.ctx, stmt.SQL(), nil); err != nil {
		return nil, err
	}
	return res, nil
}
