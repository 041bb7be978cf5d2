package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/value"
)

// This file wires the engine to the plan/exec pipeline: SELECT statements
// are compiled to a logical plan (internal/plan) and executed by the
// Volcano-style pull operators of internal/exec. The grouped/aggregate
// path still materializes, but its FROM/WHERE input comes through the same
// pipeline.

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
				return rel.cols, rel.rows, nil
			}
			rel, err := ctx.evalSelect(sel, outer)
			if err != nil {
				return nil, nil, err
			}
			return rel.cols, rel.rows, nil
		},
	}
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

// Pipeline plans a plain, non-grouped SELECT for streaming execution.
// Grouped/aggregate queries (which must materialize) and preference
// queries are rejected.
func (db *DB) Pipeline(sel *ast.Select) (*Pipeline, error) {
	return db.PipelineArgs(context.Background(), sel, nil)
}

// PipelineArgs is Pipeline with a cancellation context and bind
// arguments: parameters in the statement are evaluated per pull, and
// cancelling qctx stops the pipeline's scans.
func (db *DB) PipelineArgs(qctx context.Context, sel *ast.Select, params []value.Value) (*Pipeline, error) {
	if sel.HasPreference() || sel.ButOnly != nil || len(sel.Grouping) > 0 {
		return nil, ErrPreferenceQuery
	}
	if len(sel.GroupBy) > 0 || hasAggregates(sel) {
		return nil, ErrNotStreamable
	}
	if sel.HasLimitParam() {
		return nil, fmt.Errorf("engine: unresolved bind parameter in LIMIT/OFFSET (parameters are supported only in the outermost LIMIT/OFFSET)")
	}
	ctx := newExecContextArgs(db, qctx, params)
	node, err := ctx.plannerFor(nil).PlanSelect(sel)
	if err != nil {
		return nil, err
	}
	return &Pipeline{ctx: ctx, node: node}, nil
}

// ErrNotStreamable marks statement shapes the streaming planner cannot
// compile at all (grouped/aggregate queries); unlike data-dependent
// plan failures (a table that doesn't exist yet), it never goes away
// for a given statement.
var ErrNotStreamable = errors.New("engine: grouped/aggregate queries do not stream")

// PlanStream compiles a plain streaming SELECT to its logical plan
// without executing it — the half of the work a prepared statement can
// cache. Grouped/aggregate and preference queries are rejected (they do
// not stream; see Pipeline) with shape errors (ErrNotStreamable,
// ErrPreferenceQuery); other failures are data-dependent and may
// succeed on retry. Views referenced by the statement are materialized
// into the plan, so cached plans must be invalidated when the data
// changes (the core layer's write epoch does this).
func (db *DB) PlanStream(sel *ast.Select) (plan.Node, error) {
	if sel.HasPreference() || sel.ButOnly != nil || len(sel.Grouping) > 0 {
		return nil, ErrPreferenceQuery
	}
	if len(sel.GroupBy) > 0 || hasAggregates(sel) || sel.HasLimitParam() {
		// A parameterized LIMIT/OFFSET changes the plan's Limit node per
		// execution, so the plan cannot be cached; the shape error latches
		// the statement onto the plan-per-execution path.
		return nil, ErrNotStreamable
	}
	ctx := newExecContext(db)
	return ctx.plannerFor(nil).PlanSelect(sel)
}

// ExecPlan executes a previously compiled plan with a fresh statement
// context: the re-execution half of a prepared statement. The plan is
// read-only during execution, so many goroutines may ExecPlan the same
// node concurrently.
func (db *DB) ExecPlan(node plan.Node) (*Result, error) {
	return db.ExecPlanArgs(context.Background(), node, nil)
}

// ExecPlanArgs re-executes a cached plan with fresh bind arguments under a
// cancellation context — the step that turns the prepared-statement cache
// into a plan cache for parameterized workloads: one plan per SQL text,
// re-run with different argument values (probe keys, filter constants) on
// every execution.
func (db *DB) ExecPlanArgs(qctx context.Context, node plan.Node, params []value.Value) (*Result, error) {
	ctx := newExecContextArgs(db, qctx, params)
	op, err := exec.Build(node, ctx.execEnv(nil))
	if err != nil {
		return nil, err
	}
	rows, err := exec.Drain(op)
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
