package core

import (
	"strings"

	"repro/internal/ast"
	"repro/internal/bmo"
	"repro/internal/plan"
	"repro/internal/preference"
	"repro/internal/storage"
)

// The vectorized-BMO planning step: after the preference-algebra
// pushdown has had its chance, an unpushed root BMO node over a large
// score-based preference whose candidates are a scan's selection is
// switched to the vectorized physical operator (plan.BMO.VecCols) — the
// columnar batch-at-a-time skyline with zone-map pruning.
//
// Selection criteria, all statistics- or shape-derived so EXPLAIN is
// deterministic:
//
//   - the node's algorithm is Auto (an explicit algorithm choice is
//     respected verbatim);
//   - the node is still the root (a pushed plan already moved dominance
//     below the join — the rewritten fragments keep their own physics);
//   - every stage of the preference is score-based (a weak order or a
//     Pareto accumulation of weak orders; a CASCADE of such stages
//     qualifies, EXPLICIT and ELSE are refused) — see bmo.ScoreStages;
//   - the candidate pipeline is a pass-through projection over one
//     table's SeqScan or IndexScan, filtered or not
//     (plan.SelectionScan); every other child — a join, a derived table
//     — keeps the row path, whose kernels return the same rows in the
//     same order;
//   - the preference carries no subqueries (those re-enter the engine
//     per row and must keep the row-at-a-time evaluator);
//   - every score component reads exactly one resolvable input column —
//     opaque computed expressions are refused;
//   - the estimated candidate cardinality reaches the threshold from
//     which Auto runs parallel (the flat score matrix only pays off
//     when the input is large).
//
// The node names the scan (plan.BMO.VecScan): the executor takes the
// scan's selection — captured heap plus surviving positions — fills the
// score matrix from column vectors at those positions, and fetches the
// winners' rows only. A CASCADE's stages run one after the other, each
// on the previous stage's winners. Which components a kernel fills is
// decided from the preference's syntax (scoreKernels); the rest are
// scored row by row at the same positions.

// vectorize applies the planning step to root in place; node is the
// plan maybePush returned.
func vectorize(sel *ast.Select, root *plan.BMO, node plan.Node) {
	if node != plan.Node(root) || root.Algo != bmo.Auto {
		return
	}
	if root.EstRows < bmo.AutoParallelThreshold {
		return
	}
	scorers, _, ok := bmo.ScoreStages(root.Pref)
	if !ok || len(scorers) == 0 {
		return
	}
	scan, tbl := plan.SelectionScan(root.Child)
	if scan == nil {
		return
	}
	if prefHasSubquery(sel.Preferring) {
		return
	}
	sch := root.Child.Schema()
	cols := make([]int, len(scorers))
	for i, sc := range scorers {
		at, ok := sc.(preference.Attributed)
		if !ok {
			return
		}
		attrs := at.Attributes()
		if len(attrs) != 1 {
			return // computed expression reading several columns
		}
		qual, name, qualified := strings.Cut(attrs[0], ".")
		if !qualified {
			qual, name = "", attrs[0]
		}
		idx, n := sch.ColIndex(qual, name)
		if n != 1 {
			return // opaque label, or ambiguous across the candidate schema
		}
		cols[i] = idx
	}
	root.VecCols = cols
	root.Progressive = false
	root.VecScan = scan
	scoreKernels(sel.Preferring, root, sch, tbl)
}

// scoreKernels decides, from the preference's syntax and the column
// kinds of tbl, which components a kernel fills from the scan's column
// vectors: POS and NEG over a bare column reference of any kind (TEXT
// through dictionary codes), and LOWEST, HIGHEST, AROUND, BETWEEN and a
// condition `col op bound` over a numeric one. Every other component — a
// computed operand such as -a or ABS(a - 50), which reads one column but
// is not it, a TEXT column under a numeric kernel, an ELSE chain,
// CONTAINS — gets VecCols[j] = -1 and is scored row by row, so no
// vector is built for it. The components are the Pareto parts of each
// CASCADE stage in order, as bmo.ScoreStages lists them.
func scoreKernels(p ast.Pref, root *plan.BMO, sch plan.Schema, tbl *storage.Table) {
	var parts []ast.Pref
	var add func(p ast.Pref)
	add = func(p ast.Pref) {
		switch t := p.(type) {
		case *ast.PrefCascade:
			for _, q := range t.Parts {
				add(q)
			}
		case *ast.PrefPareto:
			parts = append(parts, t.Parts...)
		default:
			parts = append(parts, p)
		}
	}
	add(p)
	if len(parts) != len(root.VecCols) {
		parts = nil // not the compiled scorer list: score every component by row
	}
	column := func(e ast.Expr) int {
		if c, ok := e.(*ast.Column); ok {
			if idx, n := sch.ColIndex(c.Table, c.Name); n == 1 {
				return idx
			}
		}
		return -1
	}
	numeric := func(col int) int {
		if col >= 0 && storage.Vectorizable(tbl.Schema.Cols[col].Kind) {
			return col
		}
		return -1
	}
	for j := range root.VecCols {
		col := -1
		if parts != nil {
			switch t := parts[j].(type) {
			case *ast.PrefLowest:
				col = numeric(column(t.X))
			case *ast.PrefHighest:
				col = numeric(column(t.X))
			case *ast.PrefAround:
				col = numeric(column(t.X))
			case *ast.PrefBetween:
				col = numeric(column(t.X))
			case *ast.PrefPos:
				col = column(t.X)
			case *ast.PrefNeg:
				col = column(t.X)
			case *ast.PrefBool:
				if c, ok := plan.ColumnComparison(t.Cond, sch); ok && numeric(c.Col) >= 0 {
					c.Index = j
					root.VecConds = append(root.VecConds, c)
					col = c.Col
				}
			}
		}
		root.VecCols[j] = col
	}
}
