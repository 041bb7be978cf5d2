package plan

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/storage"
	"repro/internal/value"
)

// Catalog resolves table and view names during planning. *storage.Catalog
// satisfies it directly.
type Catalog interface {
	Table(name string) (*storage.Table, bool)
	View(name string) (*ast.Select, bool)
}

// Materializer evaluates a nested SELECT (a view or a FROM subquery) to a
// materialized relation; the engine supplies it so nested query blocks keep
// their full recursive semantics (and views their per-statement cache —
// viewName is non-empty for views).
type Materializer func(sel *ast.Select, viewName string) (Schema, []value.Row, error)

// Planner compiles a SELECT block into a logical plan, applying a small set
// of rewrite rules: predicate pushdown into scans, equality-predicate →
// index-scan selection, limit pushdown, and hash-join build-side choice
// ("filtered side inner").
type Planner struct {
	Catalog     Catalog
	Materialize Materializer
}

// PlanSelect plans a full SELECT block: source (FROM + WHERE) →
// [Aggregate → Filter(HAVING)] → project (+ sort) → distinct → limit. A
// block is grouped — gets the Aggregate — when it has GROUP BY, HAVING,
// or an aggregate call in its SELECT list, HAVING or ORDER BY.
func (p *Planner) PlanSelect(sel *ast.Select) (Node, error) {
	calls := Aggregates(sel)
	grouped := len(sel.GroupBy) > 0 || sel.Having != nil || len(calls) > 0
	// Groups come out in first-seen order, so a grouped block's source
	// order shows through the sort's ties and must not change.
	src, err := p.PlanSource(sel.From, sel.Where, len(sel.OrderBy) > 0 && !grouped)
	if err != nil {
		return nil, err
	}
	if grouped {
		if src, err = NewAggregate(src, sel.GroupBy, calls); err != nil {
			return nil, err
		}
		if sel.Having != nil {
			src = &Filter{Child: src, Conds: []ast.Expr{sel.Having}}
		}
	}
	var node Node = NewProject(src, sel.Items, sel.OrderBy)
	if sel.Distinct {
		node = &Distinct{Child: node}
	}
	if sel.Limit >= 0 || sel.Offset > 0 {
		node = pushLimit(&Limit{Child: node, Count: sel.Limit, Offset: sel.Offset})
	}
	return node, nil
}

// PlanSource plans the FROM/WHERE part of a SELECT: the input of
// PlanSelect's upper nodes and the candidate relation of preference
// queries.
// reorderOK tells the planner that row order will be re-established above
// (ORDER BY), unlocking order-changing physical choices.
func (p *Planner) PlanSource(from []ast.TableRef, where ast.Expr, reorderOK bool) (Node, error) {
	if len(from) == 0 {
		// SELECT without FROM: one empty row so expressions evaluate once.
		var node Node = &Values{Name: "dual", Rows: []value.Row{{}}}
		if where != nil {
			node = &Filter{Child: node, Conds: []ast.Expr{where}}
		}
		return node, nil
	}

	sources := make([]Node, len(from))
	for i, tr := range from {
		n, err := p.planTableRef(tr)
		if err != nil {
			return nil, err
		}
		sources[i] = n
	}

	// Full concatenated schema and per-source offsets, for first-match
	// column resolution identical to the engine's.
	var full Schema
	offsets := make([]int, len(sources)+1)
	for i, s := range sources {
		offsets[i] = len(full)
		full = append(full, s.Schema()...)
	}
	offsets[len(sources)] = len(full)
	sourceOf := func(gi int) int {
		for i := 0; i < len(sources); i++ {
			if gi >= offsets[i] && gi < offsets[i+1] {
				return i
			}
		}
		return -1
	}

	// Predicate pushdown: a conjunct whose resolvable column references all
	// land in one source moves below the join into that source's scan.
	// Conjuncts with subqueries, spanning several sources, or referencing
	// no source at all (constants, outer correlation) stay residual.
	pushed := make([][]ast.Expr, len(sources))
	var residual []ast.Expr
	for _, c := range splitConjuncts(where) {
		cols, opaque := analyzeExpr(c)
		srcIdx := -2 // -2 = unpinned so far, -1 = spans sources
		if !opaque {
			for _, col := range cols {
				gi, n := full.ColIndex(col.Table, col.Name)
				if n == 0 {
					continue // outer-correlated: does not pin a source
				}
				k := sourceOf(gi)
				if srcIdx == -2 || srcIdx == k {
					srcIdx = k
				} else {
					srcIdx = -1
					break
				}
			}
		}
		if !opaque && srcIdx >= 0 {
			pushed[srcIdx] = append(pushed[srcIdx], c)
		} else {
			residual = append(residual, c)
		}
	}
	for i, s := range sources {
		if len(pushed[i]) == 0 {
			continue
		}
		if scan, ok := s.(*SeqScan); ok {
			scan.Filter = append(scan.Filter, pushed[i]...)
			sources[i] = maybeIndexScan(scan)
		} else {
			sources[i] = &Filter{Child: s, Conds: pushed[i]}
		}
	}

	// Fold sources left-deep. One residual equi-conjunct per fold upgrades
	// the cross product to a hash join; when a sort above will re-order
	// rows anyway, a filtered left side becomes the build side.
	node := sources[0]
	for i := 1; i < len(sources); i++ {
		right := sources[i]
		on, lcol, rcol, rest := takeEquiJoin(residual, node.Schema(), right.Schema())
		residual = rest
		typ := ast.CrossJoin
		if on != nil {
			typ = ast.InnerJoin
		}
		j := NewJoin(node, right, typ, on, lcol, rcol)
		if reorderOK && isFiltered(node) && !isFiltered(right) {
			j.BuildLeft = true
		}
		node = j
	}
	if len(residual) > 0 {
		node = &Filter{Child: node, Conds: residual}
	}
	return node, nil
}

func (p *Planner) planTableRef(tr ast.TableRef) (Node, error) {
	switch t := tr.(type) {
	case *ast.BaseTable:
		qual := t.Alias
		if qual == "" {
			qual = t.Name
		}
		if tbl, ok := p.Catalog.Table(t.Name); ok {
			return NewSeqScan(tbl, qual), nil
		}
		if vsel, ok := p.Catalog.View(t.Name); ok {
			sch, rows, err := p.Materialize(vsel, t.Name)
			if err != nil {
				return nil, err
			}
			return &Values{Name: qual, Cols: aliasSchema(sch, qual), Rows: rows}, nil
		}
		// The engine prefix is kept for error-message compatibility with
		// the pre-pipeline executor.
		return nil, fmt.Errorf("engine: no such table or view: %s", t.Name)
	case *ast.SubqueryTable:
		sch, rows, err := p.Materialize(t.Sel, "")
		if err != nil {
			return nil, err
		}
		return &Values{Name: t.Alias, Cols: aliasSchema(sch, t.Alias), Rows: rows}, nil
	case *ast.Join:
		left, err := p.planTableRef(t.Left)
		if err != nil {
			return nil, err
		}
		right, err := p.planTableRef(t.Right)
		if err != nil {
			return nil, err
		}
		if t.Type == ast.CrossJoin {
			return NewJoin(left, right, ast.CrossJoin, nil, -1, -1), nil
		}
		lcol, rcol := equiCols(t.On, left.Schema(), right.Schema())
		return NewJoin(left, right, t.Type, t.On, lcol, rcol), nil
	}
	return nil, fmt.Errorf("engine: unsupported table reference %T", tr)
}

// aliasSchema re-qualifies all columns under one alias (empty keeps the
// original qualifiers), the planner's form of the engine's aliasRelation.
func aliasSchema(sch Schema, alias string) Schema {
	out := make(Schema, len(sch))
	for i, c := range sch {
		q := alias
		if q == "" {
			q = c.Qual
		}
		out[i] = ColRef{Qual: q, Name: c.Name}
	}
	return out
}

// splitConjuncts flattens a WHERE tree over AND.
func splitConjuncts(e ast.Expr) []ast.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*ast.Binary); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []ast.Expr{e}
}

// analyzeExpr collects the column references of e and reports whether it is
// opaque to the planner (contains a subquery or an unknown node), which
// pins it to the residual filter.
func analyzeExpr(e ast.Expr) (cols []*ast.Column, opaque bool) {
	ast.Inspect(e, func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.Column:
			cols = append(cols, x)
		case *ast.Param:
			// A bind parameter is a late-bound constant: it references no
			// columns, so conjuncts over it push down (and `col = ?` can
			// become an index probe whose key is evaluated per execution).
		case *ast.Literal, *ast.Star, *ast.Unary, *ast.Binary, *ast.IsNull, *ast.InList,
			*ast.Between, *ast.Like, *ast.Case, *ast.FuncCall:
		default: // subqueries and unknown nodes
			opaque = true
		}
		return !opaque
	})
	return cols, opaque
}

// maybeIndexScan converts a filtered sequential scan into an index probe
// when some pushed conjunct is `col = key` with col carrying an index and
// key free of locally-resolved columns. The full conjunct list stays as the
// residual filter, so the probe only needs to over-approximate.
func maybeIndexScan(scan *SeqScan) Node {
	try := func(colE, keyE ast.Expr, probe int) Node {
		col, ok := colE.(*ast.Column)
		if !ok {
			return nil
		}
		pos, n := scan.schema.ColIndex(col.Table, col.Name)
		if n == 0 {
			return nil
		}
		kcols, opaque := analyzeExpr(keyE)
		if opaque {
			return nil
		}
		for _, kc := range kcols {
			if _, kn := scan.schema.ColIndex(kc.Table, kc.Name); kn > 0 {
				return nil // key references this table: not a probe constant
			}
		}
		idx := scan.Table.IndexOn(pos)
		if idx == nil || len(idx.Columns) != 1 {
			// Composite indexes cannot answer single-column probes
			// (Index.Lookup requires an exact one-column key).
			return nil
		}
		return &IndexScan{Table: scan.Table, Qual: scan.Qual, Index: idx,
			Col: pos, Key: keyE, Probe: probe, Filter: scan.Filter, schema: scan.schema}
	}
	for i, cond := range scan.Filter {
		b, ok := cond.(*ast.Binary)
		if !ok || b.Op != "=" {
			continue
		}
		if n := try(b.L, b.R, i); n != nil {
			return n
		}
		if n := try(b.R, b.L, i); n != nil {
			return n
		}
	}
	return scan
}

// takeEquiJoin finds the first residual conjunct of the form l.x = r.y
// joining the two schemas, removing it from the residual list.
func takeEquiJoin(residual []ast.Expr, left, right Schema) (on ast.Expr, lcol, rcol int, rest []ast.Expr) {
	for i, c := range residual {
		if l, r := equiCols(c, left, right); l >= 0 {
			rest = append(append([]ast.Expr{}, residual[:i]...), residual[i+1:]...)
			return c, l, r, rest
		}
	}
	return nil, -1, -1, residual
}

// equiCols recognizes conditions of the form l.x = r.y (either operand
// order) where each side resolves uniquely in its schema, like the engine's
// hash-join detection.
func equiCols(on ast.Expr, left, right Schema) (int, int) {
	b, ok := on.(*ast.Binary)
	if !ok || b.Op != "=" {
		return -1, -1
	}
	lc, ok1 := b.L.(*ast.Column)
	rc, ok2 := b.R.(*ast.Column)
	if !ok1 || !ok2 {
		return -1, -1
	}
	li, ln := left.ColIndex(lc.Table, lc.Name)
	ri, rn := right.ColIndex(rc.Table, rc.Name)
	if ln == 1 && rn == 1 {
		return li, ri
	}
	li, ln = left.ColIndex(rc.Table, rc.Name)
	ri, rn = right.ColIndex(lc.Table, lc.Name)
	if ln == 1 && rn == 1 {
		return li, ri
	}
	return -1, -1
}

// isFiltered reports whether a node reduces its input's cardinality — the
// signal for making it the hash-join build side.
func isFiltered(n Node) bool {
	switch x := n.(type) {
	case *SeqScan:
		return len(x.Filter) > 0
	case *IndexScan:
		return true
	case *Filter:
		return true
	}
	return false
}

// pushLimit pushes the row budget of a LIMIT through row-preserving
// streaming operators into an unfiltered scan or a materialized relation.
func pushLimit(l *Limit) Node {
	if l.Count < 0 {
		return l
	}
	budget := l.Count + l.Offset
	child := l.Child
	for {
		switch c := child.(type) {
		case *Project:
			if len(c.OrderBy) > 0 {
				return l // sort consumes everything anyway
			}
			child = c.Child
		case *SeqScan:
			if len(c.Filter) == 0 && (c.Limit < 0 || c.Limit > budget) {
				c.Limit = budget
			}
			return l
		case *Values:
			if int64(len(c.Rows)) > budget {
				c.Rows = c.Rows[:budget]
			}
			return l
		default:
			return l
		}
	}
}
