package plan

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/expr"
)

// The tail of a preference query (§2.2.4–2.2.5): after BMO come the
// BUT ONLY quality filter and the projection, both of which may call
// the quality functions TOP/LEVEL/DISTANCE. The executor binds those
// calls to the registry and candidate relation of the BMO node below
// (plan.BMO.Reg and its input); above a pushed or gathered plan there is
// no such node, which is why the planner keeps quality-bearing queries
// unpushed and refuses them over sharded tables.

// ButOnly keeps the BMO result rows whose condition holds — the paper's
// BUT ONLY clause, applied after match-making.
type ButOnly struct {
	Child Node
	Cond  ast.Expr
	cond  compiled[*expr.Program]
}

// Schema implements Node.
func (b *ButOnly) Schema() Schema { return b.Child.Schema() }

// CondProg returns the compiled condition over the child's rows.
func (b *ButOnly) CondProg() *expr.Program {
	return b.cond.get(func() *expr.Program { return expr.Compile(b.Cond, b.Schema().Scope()) })
}

// Explain implements Node.
func (b *ButOnly) Explain() string { return "ButOnly [" + b.Cond.SQL() + "]" }

// QualityProject is the last step of a preference query: the SELECT
// list, ORDER BY (over the source row, not the output), DISTINCT, OFFSET
// and LIMIT, in that order. With ORDER BY it materializes and sorts;
// otherwise it streams and stops pulling once LIMIT rows are out.
type QualityProject struct {
	Child    Node
	Items    []ast.SelectItem
	OrderBy  []ast.OrderItem
	Distinct bool
	Limit    int64 // -1 = none
	Offset   int64
	proj     *expr.Projection
	keys     compiled[[]*expr.Program]
}

// NewQualityProject builds the projection tail of sel over child.
func NewQualityProject(child Node, sel *ast.Select) *QualityProject {
	return &QualityProject{Child: child, Items: sel.Items, OrderBy: sel.OrderBy,
		Distinct: sel.Distinct, Limit: sel.Limit, Offset: sel.Offset,
		proj: expr.CompileProjection(sel.Items, child.Schema().Scope())}
}

// Schema implements Node.
func (q *QualityProject) Schema() Schema { return q.proj.Cols }

// Projection returns the compiled SELECT list.
func (q *QualityProject) Projection() *expr.Projection { return q.proj }

// SortKeys returns the compiled ORDER BY keys over the child's rows.
func (q *QualityProject) SortKeys() []*expr.Program {
	return q.keys.get(func() []*expr.Program {
		keys := make([]*expr.Program, len(q.OrderBy))
		for i, ob := range q.OrderBy {
			keys[i] = expr.Compile(ob.Expr, q.Child.Schema().Scope())
		}
		return keys
	})
}

// Explain implements Node.
func (q *QualityProject) Explain() string {
	out := "QualityProject " + selectListSQL(q.Items, q.OrderBy)
	if q.Distinct {
		out += " distinct"
	}
	if q.Limit >= 0 {
		out += fmt.Sprintf(" limit=%d", q.Limit)
	}
	if q.Offset > 0 {
		out += fmt.Sprintf(" offset=%d", q.Offset)
	}
	return out
}
