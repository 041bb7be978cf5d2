package core

import (
	"strings"

	"repro/internal/ast"
	"repro/internal/bmo"
	"repro/internal/plan"
	"repro/internal/preference"
	"repro/internal/value"
)

// The vectorized-BMO planning step: after the preference-algebra
// pushdown has had its chance, an unpushed root BMO node over a large
// score-based preference is switched to the vectorized physical
// operator (plan.BMO.Vec) — the columnar batch-at-a-time skyline with
// zone-map pruning.
//
// Selection criteria, all statistics- or shape-derived so EXPLAIN is
// deterministic:
//
//   - the session has `SET vectorized = on` (default) and the algorithm
//     on Auto (an explicit algorithm choice is respected verbatim);
//   - the node is still the root (a pushed plan already moved dominance
//     below the join — the rewritten fragments keep their own physics);
//   - the preference is fully score-based (a weak order or a Pareto
//     accumulation of weak orders; CASCADE and EXPLICIT are refused);
//   - the preference carries no subqueries (those re-enter the engine
//     per row and must keep the row-at-a-time evaluator);
//   - every score component reads exactly one resolvable input column —
//     opaque computed expressions are refused;
//   - the estimated candidate cardinality reaches the same threshold
//     that promotes Auto to the parallel path (the flat score matrix
//     only pays off when the input is large).
//
// When the candidate pipeline is additionally a bare single-table scan
// (no filter, no limit — heap order equals input order), the node also
// names that scan so the executor fills score vectors straight from the
// column vectors of the heap the scan captured (plan.BMO.VecScan).

// vectorize applies the planning step to root in place; node is the
// plan maybePush returned.
func (s *Session) vectorize(sel *ast.Select, root *plan.BMO, node plan.Node) {
	if node != plan.Node(root) || !s.Vectorized() || s.Algorithm() != bmo.Auto {
		return
	}
	if root.EstRows < bmo.AutoParallelThreshold {
		return
	}
	scorers, ok := bmo.ScoreBased(root.Pref)
	if !ok || len(scorers) == 0 {
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
	scan, bare := bareScan(root.Child)
	if scan != nil {
		// Columnar availability: score kernels consume numeric vectors
		// only. (Non-scan children carry no schema kinds to check; their
		// generic fill scores through the compiled getters, which report
		// non-numeric values as the row-at-a-time path would.)
		for _, c := range cols {
			switch scan.Table.Schema.Cols[c].Kind {
			case value.Int, value.Float, value.Bool, value.Date:
			default:
				return
			}
		}
	}
	root.Vec = true
	root.VecCols = cols
	root.Progressive = false
	root.ParallelHint = false
	if bare {
		root.VecScan = scan
	}
}

// bareScan unwraps the canonical candidate pipeline Project(*)→SeqScan.
// The scan is returned whenever the pipeline bottoms out in one
// unordered full-star projection over a single table scan; bare
// additionally requires the scan to emit the raw heap (no filter, no
// limit), the condition for the positional columnar fill.
func bareScan(n plan.Node) (scan *plan.SeqScan, bare bool) {
	proj, ok := n.(*plan.Project)
	if !ok || len(proj.Items) != 1 || len(proj.OrderBy) != 0 {
		return nil, false
	}
	if st, ok := proj.Items[0].Expr.(*ast.Star); !ok || st.Table != "" {
		return nil, false
	}
	scan, ok = proj.Child.(*plan.SeqScan)
	if !ok {
		return nil, false
	}
	return scan, len(scan.Filter) == 0 && scan.Limit < 0
}
