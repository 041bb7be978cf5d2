package core

import (
	"repro/internal/bmo"
	"repro/internal/plan"
)

// The vectorized-BMO planning step: after the preference-algebra
// pushdown has had its chance, an unpushed root BMO node over a large
// candidate set that is a scan's selection is marked Vectorized: its
// key fill reads column vectors (plan.BMO.Vectorized), with zone-map
// pruning for an exact key. Every BMO node runs the same operator over
// (heap, positions); the mark decides only whether kernels fill key
// elements from column vectors or every element is scored on the rows.
//
// Selection criteria, all statistics- or shape-derived so EXPLAIN is
// deterministic:
//
//   - the node's algorithm is Auto (an explicit algorithm choice is
//     respected verbatim);
//   - the node is still the root (a pushed plan already moved dominance
//     below the join — the rewritten fragments keep their own physics);
//     a GROUPING root qualifies like any other;
//   - the candidate pipeline is a pass-through projection over one
//     table's SeqScan or IndexScan, filtered or not
//     (plan.SelectionScan); over any other child — a join, a derived
//     table — there is no heap whose column vectors a kernel could read;
//   - the estimated candidate cardinality reaches the threshold from
//     which Auto runs parallel. A kernel reads a column vector, which is
//     built over the whole heap version (about 84 ns a row) the first
//     time a statement reads that column at that version; scoring reads
//     only the selected rows. A small selection does not repay the
//     build.
//
// The step decides nothing per component: the compiled preference
// records the column a kernel reads (preference.Slot,
// preference.Comparison), the executor checks its kind against the
// scanned table, and every other component — LOWEST(d1 + d2), a
// subquery operand (on one worker, see Session.bmoWorkers) — is scored
// row by row at the selected positions. A vectorized node is batch:
// making its cursor progressive is open.

// vectorize applies the planning step to root in place; node is the
// plan maybePush returned.
func vectorize(root *plan.BMO, node plan.Node) {
	if node != plan.Node(root) || root.Algo != bmo.Auto || root.EstRows < bmo.AutoParallelThreshold {
		return
	}
	if scan, _ := plan.SelectionScan(root.Child); scan == nil {
		return
	}
	root.Vectorized = true
	root.Progressive = false
}
