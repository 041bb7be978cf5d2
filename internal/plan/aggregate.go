package plan

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/ast"
	"repro/internal/expr"
)

var aggregateNames = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// Aggregates returns the aggregate calls of a query block's SELECT list,
// HAVING and ORDER BY, deduplicated by SQL text in first-occurrence
// order. Nested query blocks are not entered: their aggregates are
// their own.
func Aggregates(sel *ast.Select) []*ast.FuncCall {
	var out []*ast.FuncCall
	collect := func(e ast.Expr) {
		ast.Inspect(e, func(x ast.Expr) bool {
			fc, ok := x.(*ast.FuncCall)
			if ok && aggregateNames[strings.ToUpper(fc.Name)] &&
				!slices.ContainsFunc(out, func(c *ast.FuncCall) bool { return c.SQL() == fc.SQL() }) {
				out = append(out, fc)
			}
			return true
		})
	}
	for _, it := range sel.Items {
		collect(it.Expr)
	}
	collect(sel.Having)
	for _, ob := range sel.OrderBy {
		collect(ob.Expr)
	}
	return out
}

// Aggregate groups its input by the GROUP BY keys and computes the
// block's aggregate calls per group. Each output row is the group's
// first input row followed by one value per call, in Calls order. The
// call columns are expr.Col Call columns, so the HAVING, SELECT list and
// ORDER BY above read a call's value from its slot, and `*` skips them.
// Without keys the whole input is one group, which exists even when the
// input is empty.
type Aggregate struct {
	Child   Node
	GroupBy []ast.Expr
	Calls   []*ast.FuncCall
	schema  Schema
	keys    compiled[[]*expr.Program]
	args    compiled[[]*expr.Program]
}

// NewAggregate builds the node and its schema. Every call must take
// exactly one argument, and only COUNT may take `*`.
func NewAggregate(child Node, groupBy []ast.Expr, calls []*ast.FuncCall) (*Aggregate, error) {
	sch := append(Schema{}, child.Schema()...)
	for _, fc := range calls {
		name := strings.ToUpper(fc.Name)
		if len(fc.Args) != 1 {
			return nil, fmt.Errorf("%s expects one argument", name)
		}
		if _, star := fc.Args[0].(*ast.Star); star && name != "COUNT" {
			return nil, fmt.Errorf("%s(*) is not valid", name)
		}
		sch = append(sch, ColRef{Name: fc.SQL(), Call: true})
	}
	return &Aggregate{Child: child, GroupBy: groupBy, Calls: calls, schema: sch}, nil
}

// Schema implements Node.
func (a *Aggregate) Schema() Schema { return a.schema }

// GroupKeys returns the compiled GROUP BY keys over the child's rows.
func (a *Aggregate) GroupKeys() []*expr.Program {
	return a.keys.get(func() []*expr.Program { return compileAll(a.GroupBy, a.Child.Schema()) })
}

// Args returns each call's compiled argument over the child's rows; nil
// for COUNT(*).
func (a *Aggregate) Args() []*expr.Program {
	return a.args.get(func() []*expr.Program {
		args := make([]*expr.Program, len(a.Calls))
		for i, fc := range a.Calls {
			if _, star := fc.Args[0].(*ast.Star); !star {
				args[i] = expr.Compile(fc.Args[0], a.Child.Schema().Scope())
			}
		}
		return args
	})
}

// Explain implements Node.
func (a *Aggregate) Explain() string {
	out := "Aggregate"
	if len(a.GroupBy) > 0 {
		out += " keys=[" + joinSQL(a.GroupBy, ", ") + "]"
	}
	if len(a.Calls) > 0 {
		out += " calls=[" + joinSQL(a.Calls, ", ") + "]"
	}
	return out
}

// compileAll compiles each expression against sch.
func compileAll(es []ast.Expr, sch Schema) []*expr.Program {
	out := make([]*expr.Program, len(es))
	for i, e := range es {
		out[i] = expr.Compile(e, sch.Scope())
	}
	return out
}
