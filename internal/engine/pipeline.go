package engine

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/value"
)

// This file wires the engine to the plan/exec pipeline: every SELECT —
// grouped and aggregate ones included — is compiled to a logical plan
// (internal/plan) and executed by the Volcano-style pull operators of
// internal/exec.

// plannerFor returns a planner bound to this statement: views materialize
// once per statement (the view cache), FROM subqueries evaluate recursively
// under the given correlation environment.
func (ctx *execContext) plannerFor(outer expr.Env) *plan.Planner {
	return &plan.Planner{
		Catalog: ctx.db.cat,
		Materialize: func(sel *ast.Select, viewName string) (plan.Schema, []value.Row, error) {
			if viewName != "" {
				key := strings.ToLower(viewName)
				rel, cached := ctx.viewCache[key]
				if !cached {
					var err error
					rel, err = ctx.evalSelect(sel, nil)
					if err != nil {
						return nil, nil, fmt.Errorf("view %s: %w", viewName, err)
					}
					ctx.viewCache[key] = rel
				}
				return rel.Cols, rel.Rows, nil
			}
			rel, err := ctx.evalSelect(sel, outer)
			if err != nil {
				return nil, nil, err
			}
			return rel.Cols, rel.Rows, nil
		},
	}
}

// planSelect plans one plain query block under the correlation
// environment outer. Preference clauses belong to the preference layer,
// and LIMIT/OFFSET parameters must have been bound by the core layer:
// one reaching the engine sits in a nested query block, where late
// binding is not supported.
func (ctx *execContext) planSelect(sel *ast.Select, outer expr.Env) (plan.Node, error) {
	if sel.HasPreference() || sel.ButOnly != nil || len(sel.Grouping) > 0 {
		return nil, ErrPreferenceQuery
	}
	if sel.HasLimitParam() {
		return nil, fmt.Errorf("engine: unresolved bind parameter in LIMIT/OFFSET (parameters are supported only in the outermost LIMIT/OFFSET)")
	}
	return ctx.plannerFor(outer).PlanSelect(sel)
}

// execEnv builds the operator environment of one query block: a runtime
// correlated to outer, and this statement's work counters and
// cancellation hook.
func (ctx *execContext) execEnv(outer expr.Env) *exec.Env {
	return &exec.Env{Rt: ctx.runtime(outer), Stats: ctx.stats, Stop: ctx.stop()}
}

// ---------------------------------------------------------------------------
// Public pipeline handle (used by the preference layer)
// ---------------------------------------------------------------------------

// Pipeline is a planned SELECT ready for pull-based execution. The
// preference layer puts its BMO and quality tail on the plan root before
// building; plain consumers build it as-is and stream.
type Pipeline struct {
	ctx  *execContext
	node plan.Node
}

// PipelineArgs plans a plain SELECT for execution under a cancellation
// context with bind arguments: parameters in the statement are evaluated
// per pull, and cancelling qctx stops the pipeline's scans. Preference
// queries are rejected with ErrPreferenceQuery.
func (db *DB) PipelineArgs(qctx context.Context, sel *ast.Select, params []value.Value) (*Pipeline, error) {
	ctx := newExecContext(db, qctx, params)
	node, err := ctx.planSelect(sel, nil)
	if err != nil {
		return nil, err
	}
	return &Pipeline{ctx: ctx, node: node}, nil
}

// PlanStream compiles a plain SELECT to its logical plan without
// executing it — the half of the work a prepared statement can cache.
// Views referenced by the statement are materialized into the plan, so
// cached plans must be invalidated when the data changes (the core
// layer's write epoch does this).
func (db *DB) PlanStream(sel *ast.Select) (plan.Node, error) {
	p, err := db.PipelineArgs(context.Background(), sel, nil)
	if err != nil {
		return nil, err
	}
	return p.node, nil
}

// ExecPlanArgs re-executes a cached plan with fresh bind arguments under a
// cancellation context — the step that turns the prepared-statement cache
// into a plan cache for parameterized workloads: one plan per SQL text,
// re-run with different argument values (probe keys, filter constants) on
// every execution. The plan is read-only during execution, so many
// goroutines may execute the same node concurrently.
func (db *DB) ExecPlanArgs(qctx context.Context, node plan.Node, params []value.Value) (*Result, error) {
	ctx := newExecContext(db, qctx, params)
	rows, err := ctx.run(node, nil)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: node.Schema().Names(), Rows: rows, Stats: ctx.stats}, nil
}

// Node returns the plan root, for wrapping or EXPLAIN formatting.
func (p *Pipeline) Node() plan.Node { return p.node }

// Columns returns the qualified output columns of the planned query.
func (p *Pipeline) Columns() []ColInfo { return p.node.Schema() }

// Env returns the operator environment of this statement — its runtime,
// work counters and cancellation hook — for exec.Build over the planned
// node or a tree the caller puts on top of it (the preference layer's
// BMO and quality tail).
func (p *Pipeline) Env() *exec.Env { return p.ctx.execEnv(nil) }
