// Package expr evaluates scalar SQL expressions over rows with SQL
// three-valued logic (TRUE / FALSE / UNKNOWN-as-NULL). It is shared by the
// scans, filters, joins, aggregates and projections of the exec pipeline,
// the engine's DML, the preference level functions, and the BUT ONLY
// quality filter of the core.
//
// Evaluation is two-phase. Compile turns an expression plus the column
// scope of the rows it will see into a Program: column references the
// scope knows become row slots, operators are dispatched once. Running a
// Program needs only the row and a Runtime — bind parameters, the subquery
// runner, and the by-name environment for whatever the scope could not
// resolve — so a Program holds no per-execution state and one instance
// serves every execution of a cached plan and every worker goroutine of a
// parallel one.
package expr

import (
	"repro/internal/ast"
	"repro/internal/value"
)

// Env resolves, by name, what a Program's scope could not bind to a slot:
// columns of enclosing query blocks (outer correlation) and the quality
// functions TOP/LEVEL/DISTANCE, which the core binds through Func.
type Env interface {
	// Col returns the value of table.name (table may be empty) and whether
	// the column exists in this scope.
	Col(table, name string) (value.Value, bool)
	// Func may intercept a call of TOP, LEVEL or DISTANCE; a Program
	// asks it about no other name. handled=false falls through to the
	// built-in scalar functions.
	Func(fc *ast.FuncCall) (v value.Value, handled bool, err error)
}

// SubqueryRunner executes a subquery with a correlation environment. The
// engine implements it; a nil runner makes subqueries an error.
type SubqueryRunner interface {
	Subquery(sel *ast.Select, env Env) ([]value.Row, error)
}

// Runtime is what a Program needs besides the row: everything that changes
// from one execution to the next. Programs only read it, so one Runtime is
// shared by all programs (and worker goroutines) of an execution.
type Runtime struct {
	// Params are the execution's positional bind arguments: ast.Param
	// nodes evaluate to Params[Index].
	Params []value.Value
	// Runner executes nested SELECTs; nil makes subqueries an error.
	Runner SubqueryRunner
	// Outer resolves by name what the program's scope did not: outer
	// correlations and intercepted function calls. May be nil.
	Outer Env
}

// noRuntime stands in for a nil *Runtime: no parameters, no subqueries, no
// outer scope.
var noRuntime Runtime

// Evaluator computes one-off values — VALUES lists, preference parameters —
// by compiling against an empty scope and running once, so every column
// resolves by name through env. Anything evaluated per row is compiled
// once with Compile instead.
type Evaluator struct {
	Runner SubqueryRunner
	Params []value.Value
}

// Eval computes e under env (nil: no columns resolve).
func (ev *Evaluator) Eval(e ast.Expr, env Env) (value.Value, error) {
	rt := Runtime{Params: ev.Params, Runner: ev.Runner, Outer: env}
	return Compile(e, Scope{}).Eval(&rt, nil)
}

// ---------------------------------------------------------------------------
// Environments
// ---------------------------------------------------------------------------

// RowEnv is the by-name view of one row: what a subquery sees as its
// correlation environment, and what chains query blocks together. Columns
// resolve against the scope first, then the outer environment; function
// interception is the outer environment's alone.
type RowEnv struct {
	Scope Scope
	Row   value.Row
	Outer Env
}

// Col implements Env. A row shorter than the scope (one input of a join
// whose preference was compiled against the joined schema) simply does not
// hold the columns past its end.
func (e *RowEnv) Col(table, name string) (value.Value, bool) {
	if slot, ok := e.Scope.Resolve(table, name); ok && slot < len(e.Row) {
		return e.Row[slot], true
	}
	if e.Outer != nil {
		return e.Outer.Col(table, name)
	}
	return value.Value{}, false
}

// Func implements Env.
func (e *RowEnv) Func(fc *ast.FuncCall) (value.Value, bool, error) {
	if e.Outer != nil {
		return e.Outer.Func(fc)
	}
	return value.Value{}, false, nil
}

// MapEnv is a simple Env backed by a map of column name → value; useful in
// tests and for single-row evaluation.
type MapEnv map[string]value.Value

// Col implements Env.
func (m MapEnv) Col(table, name string) (value.Value, bool) {
	if table != "" {
		if v, ok := m[table+"."+name]; ok {
			return v, true
		}
	}
	v, ok := m[name]
	return v, ok
}

// Func implements Env (no interception).
func (m MapEnv) Func(*ast.FuncCall) (value.Value, bool, error) {
	return value.Value{}, false, nil
}
