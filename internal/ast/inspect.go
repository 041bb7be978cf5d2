package ast

// Inspect traverses an expression tree depth-first: it calls fn(e) and,
// when fn returns true, inspects e's operands in source order. Nil
// operands are skipped. Subquery expressions (InSelect, Exists,
// ScalarSub) are visited, but their nested query blocks are not entered
// (InSelect's left operand is): each caller picks its own policy for
// nested blocks — descend through Subquery and InspectSelect, stop, or
// treat the node as opaque.
func Inspect(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *Unary:
		Inspect(x.X, fn)
	case *Binary:
		Inspect(x.L, fn)
		Inspect(x.R, fn)
	case *IsNull:
		Inspect(x.X, fn)
	case *InList:
		Inspect(x.X, fn)
		for _, i := range x.List {
			Inspect(i, fn)
		}
	case *InSelect:
		Inspect(x.X, fn)
	case *Between:
		Inspect(x.X, fn)
		Inspect(x.Lo, fn)
		Inspect(x.Hi, fn)
	case *Like:
		Inspect(x.X, fn)
		Inspect(x.Pattern, fn)
	case *Case:
		Inspect(x.Operand, fn)
		for _, w := range x.Whens {
			Inspect(w.When, fn)
			Inspect(w.Then, fn)
		}
		Inspect(x.Else, fn)
	case *FuncCall:
		for _, a := range x.Args {
			Inspect(a, fn)
		}
	}
}

// Subquery returns the nested query block of a subquery expression, nil
// for every other node.
func Subquery(e Expr) *Select {
	switch x := e.(type) {
	case *InSelect:
		return x.Sub
	case *Exists:
		return x.Sub
	case *ScalarSub:
		return x.Sub
	}
	return nil
}

// InspectSelect calls Inspect(e, fn) for every expression of a query
// block: the select list, join ON conditions, WHERE, the PREFERRING term,
// GROUPING, BUT ONLY, GROUP BY, HAVING, ORDER BY and LIMIT/OFFSET
// parameters. Derived tables in FROM are part of the block's input and
// are walked too; subquery expressions are not entered (see Inspect).
func InspectSelect(sel *Select, fn func(Expr) bool) {
	if sel == nil {
		return
	}
	for _, it := range sel.Items {
		Inspect(it.Expr, fn)
	}
	for _, tr := range sel.From {
		inspectTableRef(tr, fn)
	}
	Inspect(sel.Where, fn)
	WalkPrefExprs(sel.Preferring, func(e Expr) { Inspect(e, fn) })
	for _, c := range sel.Grouping {
		Inspect(c, fn)
	}
	Inspect(sel.ButOnly, fn)
	for _, e := range sel.GroupBy {
		Inspect(e, fn)
	}
	Inspect(sel.Having, fn)
	for _, ob := range sel.OrderBy {
		Inspect(ob.Expr, fn)
	}
	for _, p := range []*Param{sel.LimitParam, sel.OffsetParam} {
		if p != nil {
			Inspect(p, fn)
		}
	}
}

func inspectTableRef(tr TableRef, fn func(Expr) bool) {
	switch t := tr.(type) {
	case *SubqueryTable:
		InspectSelect(t.Sel, fn)
	case *Join:
		inspectTableRef(t.Left, fn)
		inspectTableRef(t.Right, fn)
		Inspect(t.On, fn)
	}
}
