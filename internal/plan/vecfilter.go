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
	// operand classifies one side of a comparison: a resolved column
	// (col >= 0) or a constant; ok=false for anything else.
	operand := func(e ast.Expr) (col int, ok bool) {
		switch x := e.(type) {
		case *ast.Column:
			return scope.Resolve(x.Table, x.Name)
		case *ast.Param:
			vf.Params = append(vf.Params, expr.Compile(x, expr.Scope{}))
			return -1, true
		case *ast.Literal:
			return -1, true
		}
		return 0, false
	}
	for i, e := range filter {
		b, ok := e.(*ast.Binary)
		if !ok {
			return nil
		}
		accept, ok := expr.Comparison(b.Op)
		if !ok {
			return nil
		}
		lc, lok := operand(b.L)
		rc, rok := operand(b.R)
		if !lok || !rok {
			return nil
		}
		col, bound := lc, b.R
		switch {
		case lc >= 0 && rc < 0:
		case lc < 0 && rc >= 0:
			col, bound, accept = rc, b.L, accept.Flip()
		default:
			continue // column against column, or constant against constant
		}
		if col == skipCol || !storage.Vectorizable(tbl.Schema.Cols[col].Kind) {
			continue
		}
		vf.Conjs = append(vf.Conjs, VecConj{Index: i, Col: col, Accept: accept,
			Bound: expr.Compile(bound, expr.Scope{})})
	}
	if len(vf.Conjs) == 0 {
		return nil
	}
	return vf
}
