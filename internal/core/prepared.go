package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/value"
)

// Prepared is a statement script parsed once and re-executable many
// times: the unit the server's prepared-statement cache stores, keyed on
// SQL text. Parsing always happens exactly once (at Prepare). For a
// script that is a single plain SELECT, the logical plan is
// additionally cached and re-executed directly, skipping the planner —
// the plan is invalidated whenever the database's write epoch moves, so
// stale index choices or materialized view data never leak between
// writes.
//
// A Prepared is safe for concurrent re-execution from many sessions: the
// statements are never mutated during execution, and each execution
// builds a fresh operator tree and statement context over the shared
// plan.
type Prepared struct {
	SQL   string
	stmts []ast.Stmt
	// NumParams is the script's positional bind parameter count; every
	// execution must supply exactly this many arguments. The parsed
	// statements keep their ast.Param nodes, so one Prepared (and its
	// cached plan) serves every argument set.
	NumParams int

	mu          sync.Mutex
	unplannable bool // the single SELECT's plan cannot be reused (preference, LIMIT ?)
	planNode    plan.Node
	planEpoch   uint64
}

// Prepare parses a ';'-separated script once for repeated execution.
func (db *DB) Prepare(sql string) (*Prepared, error) {
	stmts, nparams, err := parser.ParseAllCount(sql)
	if err != nil {
		return nil, err
	}
	return &Prepared{SQL: sql, stmts: stmts, NumParams: nparams}, nil
}

// Stmts exposes the parsed statements (read-only; callers must not
// mutate them).
func (p *Prepared) Stmts() []ast.Stmt { return p.stmts }

// SingleSelect returns the script's statement when it is exactly one
// SELECT, the shape the server streams through a cursor.
func (p *Prepared) SingleSelect() (*ast.Select, bool) {
	if len(p.stmts) != 1 {
		return nil, false
	}
	sel, ok := p.stmts[0].(*ast.Select)
	return sel, ok
}

// cachedPlan returns a reusable logical plan for sel, rebuilding it when
// the write epoch moved since it was cached. reused reports whether the
// planner was skipped. The caller holds the shared read lock, so the
// epoch cannot move during the subsequent execution.
func (p *Prepared) cachedPlan(db *DB, sel *ast.Select) (node plan.Node, reused bool) {
	epoch := db.epoch.Load()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.unplannable {
		return nil, false
	}
	if p.planNode != nil && p.planEpoch == epoch {
		return p.planNode, true
	}
	// A parameterized LIMIT/OFFSET changes the plan's Limit node per
	// execution, and a preference plan binds its arguments at planning:
	// both latch the plan-per-execution path. A data-dependent failure —
	// e.g. the table doesn't exist yet — just skips caching this time
	// and retries on a later epoch.
	if sel.HasLimitParam() {
		p.unplannable = true
		return nil, false
	}
	n, err := db.eng.PlanStream(sel)
	if err != nil {
		p.unplannable = errors.Is(err, engine.ErrPreferenceQuery)
		return nil, false
	}
	p.planNode, p.planEpoch = n, epoch
	return n, false
}

// ExecPrepared runs a prepared script on this session. reusedPlan
// reports whether at least one statement skipped the planner by
// re-executing a cached plan.
func (s *Session) ExecPrepared(p *Prepared) (res *Result, reusedPlan bool, err error) {
	return s.ExecPreparedArgs(context.Background(), p, nil)
}

// ExecPreparedArgs re-executes a prepared script with fresh bind
// arguments under a cancellation context. The statement parses once (at
// Prepare) and — for a single plain SELECT — plans once: the
// cached plan re-executes with the new argument values, so a
// parameterized workload hits the plan cache across distinct arguments
// instead of planning per literal combination.
func (s *Session) ExecPreparedArgs(ctx context.Context, p *Prepared, args []value.Value) (res *Result, reusedPlan bool, err error) {
	if err := checkArgCount(p.NumParams, args); err != nil {
		return nil, false, err
	}
	ee := execEnv{ctx: ctx, params: args}
	res = &Result{}
	for _, st := range p.stmts {
		var r bool
		res, r, err = s.execPreparedStmt(p, st, ee)
		if err != nil {
			return nil, false, err
		}
		reusedPlan = reusedPlan || r
	}
	return res, reusedPlan, nil
}

func (s *Session) execPreparedStmt(p *Prepared, st ast.Stmt, ee execEnv) (*Result, bool, error) {
	db := s.db
	if StmtReadOnly(st) {
		db.stmtMu.RLock()
		defer db.stmtMu.RUnlock()
		// Sharded selects must route through the distributed path — the
		// local plan cache would read the coordinator's empty schema copy.
		if sel, ok := p.SingleSelect(); ok && sel == st && !db.distTouches(sel) {
			if node, reused := p.cachedPlan(db, sel); node != nil {
				if reused {
					mPlanReuses.Inc()
				} else {
					mPlanRebuilds.Inc()
				}
				start := time.Now()
				res, err := db.eng.ExecPlanArgs(ee.ctx, node, ee.params)
				s.observe("select", p.SQL, res, err, time.Since(start))
				return res, reused, err
			}
		}
		res, err := s.execStmt(st, ee)
		return res, false, err
	}
	db.stmtMu.Lock()
	defer db.stmtMu.Unlock()
	db.epoch.Add(1)
	mEpochBumps.Inc()
	res, err := s.execStmt(st, ee)
	return res, false, err
}
