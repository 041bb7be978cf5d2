package plan

import (
	"repro/internal/ast"
	"repro/internal/expr"
	"repro/internal/storage"
)

// VecFilter is a scan filter's column-vector plan: the conjuncts a scan
// may test against typed column vectors before it fetches a row. The
// scan runs them first, then the remaining conjuncts, in written order,
// on the survivors only.
//
// Reordering is sound only when no conjunct can raise an error, so a
// plan exists only when every conjunct is a comparison (=, <>, <, <=,
// >, >=) whose operands are the scan's own columns, literals and
// parameters. A parameter can still fail to evaluate (it is unbound);
// Params lists them all so the scan can check them at Open and fall back
// to the row path, which reports the error as it always has.
type VecFilter struct {
	Conjs  []VecConj
	Params []*expr.Program
}

// VecConj is one conjunct of the form `col op bound` (or `bound op col`,
// stored flipped) over a numeric column. Whether it runs on a vector is
// decided at Open: only a numeric, non-NULL bound does.
type VecConj struct {
	Index  int           // position in the scan's Filter
	Col    int           // table column
	Accept expr.Signs    // value.Compare outcomes, column on the left, that keep the row
	Bound  *expr.Program // the literal or parameter
}

// VecFilter returns the scan's column-vector plan, nil when the filter
// runs row by row.
func (s *SeqScan) VecFilter() *VecFilter {
	return s.vec.get(func() *VecFilter { return vecFilter(s.Filter, s.schema, s.Table, -1) })
}

// VecFilter returns the residual's column-vector plan, nil when it runs
// row by row. The probed column is never vectorized: the probe already
// selected on it.
func (s *IndexScan) VecFilter() *VecFilter {
	return s.vec.get(func() *VecFilter { return vecFilter(s.Filter, s.schema, s.Table, s.Col) })
}

func vecFilter(filter []ast.Expr, schema Schema, tbl *storage.Table, skipCol int) *VecFilter {
	scope := schema.Scope()
	vf := &VecFilter{}
	for i, e := range filter {
		c, ok := comparison(e, scope, &vf.Params)
		if !ok {
			return nil
		}
		if c.Col < 0 || c.Col == skipCol || !storage.Vectorizable(tbl.Schema.Cols[c.Col].Kind) {
			continue
		}
		c.Index = i
		vf.Conjs = append(vf.Conjs, c)
	}
	if len(vf.Conjs) == 0 {
		return nil
	}
	return vf
}

// ColumnComparison recognizes e as `col op bound` (or `bound op col`)
// over one column of schema and a literal or parameter bound — the shape
// a vectorized BMO scores a Bool preference from. Index is left 0.
func ColumnComparison(e ast.Expr, schema Schema) (VecConj, bool) {
	var params []*expr.Program
	c, ok := comparison(e, schema.Scope(), &params)
	return c, ok && c.Col >= 0
}

// comparison classifies e: ok reports a comparison (=, <>, <, <=, >, >=)
// whose operands are columns of scope, literals and parameters, and
// appends its parameters to params. When exactly one side is a column,
// c is `col op bound` with the operator flipped if the column is on the
// right; otherwise (column against column, constant against constant)
// c.Col is -1.
func comparison(e ast.Expr, scope expr.Scope, params *[]*expr.Program) (c VecConj, ok bool) {
	b, ok := e.(*ast.Binary)
	if !ok {
		return c, false
	}
	accept, ok := expr.Comparison(b.Op)
	if !ok {
		return c, false
	}
	// operand classifies one side: a resolved column (col >= 0) or a
	// constant; ok=false for anything else.
	operand := func(e ast.Expr) (col int, ok bool) {
		switch x := e.(type) {
		case *ast.Column:
			return scope.Resolve(x.Table, x.Name)
		case *ast.Param:
			*params = append(*params, expr.Compile(x, expr.Scope{}))
			return -1, true
		case *ast.Literal:
			return -1, true
		}
		return 0, false
	}
	lc, lok := operand(b.L)
	rc, rok := operand(b.R)
	if !lok || !rok {
		return c, false
	}
	col, bound := lc, b.R
	switch {
	case lc >= 0 && rc < 0:
	case lc < 0 && rc >= 0:
		col, bound, accept = rc, b.L, accept.Flip()
	default:
		return VecConj{Col: -1}, true
	}
	return VecConj{Col: col, Accept: accept, Bound: expr.Compile(bound, expr.Scope{})}, true
}
