package plan

import (
	"strings"

	"repro/internal/ast"
	"repro/internal/bmo"
	"repro/internal/preference"
)

// This file implements the preference-algebra rewrite laws of the paper's
// optimizer: moving the Best-Matches-Only operator (preference selection)
// below joins so the expensive dominance work runs on the small join
// inputs instead of the multiplied join output.
//
// Three laws are applied, each with an explicit soundness guard:
//
//	(a) whole-preference pushdown — when every attribute the preference
//	    reads comes from one input of an inner equi- or cross join, the
//	    BMO above the join is replaced by a BMO on that input. For
//	    equi-joins the pushed node additionally restricts its input to
//	    tuples with at least one join partner (a semijoin, taken from the
//	    other input): BMO(P, L ⋈ R) = BMO(P, L ⋉ R) ⋈ R. Without the
//	    partner filter a tuple dominated only by partner-less tuples
//	    would be lost; with it the law is exact, so no BMO remains above
//	    the join.
//
//	(b) Pareto split — a Pareto accumulation whose components each read
//	    only one side is split into per-side pre-filters below the join
//	    plus the residual full preference above it. The pre-filters
//	    evaluate dominance group-wise per join-key value: a group-local
//	    dominator shares the victim's join partners, so a tuple it
//	    removes could never re-enter the skyline after the join
//	    (key-preserving in the paper's sense). Components spanning both
//	    sides (or with unknown provenance) refuse the split: a mixed
//	    component could rate the dominator's join partners worse and
//	    resurrect the victim.
//
//	(c) cascade decomposition/collapse — BMO(P1 ▷ P2, R) evaluates as
//	    BMO(P2, BMO(P1, R)) (the paper's stage-wise CASCADE semantics),
//	    so the head stage pushes independently through (a)/(b) and
//	    adjacent BMO∘BMO nodes left behind by the decomposition collapse
//	    back into a single cascade evaluation.
//
// Guards that refuse any rewrite: LEFT joins (pre-filtering the
// preserved side changes which rows get NULL padding), nested-loop theta
// joins (no join-key grouping or partner hashing), residual filters
// between the BMO and the join (hard selection must see the unfiltered
// BMO input — or rather the BMO must see only filtered rows), and
// preferences whose attributes do not resolve to exactly one schema
// column.

// PushBMO applies the preference-algebra transformation laws to a BMO
// node sitting above a join, returning the rewritten plan root — or the
// node itself when no law applies. The rewrite never mutates the input
// nodes, so callers may keep the unpushed tree for comparison.
func PushBMO(b *BMO) Node {
	if n, ok := pushBMO(b); ok {
		return n
	}
	return b
}

func pushBMO(b *BMO) (Node, bool) {
	// Law (c), collapse direction: two stacked BMO nodes are one
	// cascade evaluation. Merging first lets the cascade rule below see
	// (and push) the combined head stage.
	if inner, ok := b.Child.(*BMO); ok && isResidual(inner) {
		merged := collapseBMO(b, inner)
		if n, ok := pushBMO(merged); ok {
			return n, true
		}
		return merged, true
	}

	proj, join := joinBelow(b.Child)
	if join == nil || !pushableJoin(join) {
		return nil, false
	}
	classify := sideClassifier(join)

	// Law (a): the whole preference reads one input. Equi-joins need the
	// partner filter, which re-executes the other input as the semijoin
	// source — not worth it when that subtree already contains dominance
	// work (a previously pushed cascade stage): the stage stays above
	// the join instead.
	if sides, mixed := preference.SplitParts([]preference.Preference{b.Pref}, classify); len(mixed) == 0 {
		inputs := [2]Node{join.Left, join.Right}
		for side := 0; side < 2; side++ {
			if len(sides[side]) == 1 && !(join.LCol >= 0 && hasBMO(inputs[1-side])) {
				return rebuildAbove(proj, pushWhole(b, join, side)), true
			}
		}
	}

	// Law (b): split a Pareto accumulation into per-side pre-filters.
	if par, ok := b.Pref.(*preference.Pareto); ok {
		sides, mixed := par.Split(classify)
		if len(mixed) == 0 && len(sides[0]) > 0 && len(sides[1]) > 0 {
			nj := cloneJoin(join,
				prefilter(b, join, 0, sides[0]),
				prefilter(b, join, 1, sides[1]))
			resid := NewBMO(rebuildAbove(proj, nj), b.Pref, b.Algo, b.Progressive, b.Workers)
			resid.Pushdown = "split"
			return resid, true
		}
	}

	// Law (c), decompose direction: push the cascade's head stage and
	// keep the rest above. If the head only splits (leaving a residual
	// BMO), the residual and the rest collapse back into one node.
	if c, ok := b.Pref.(*preference.Cascade); ok && len(c.Parts) > 1 {
		head := NewBMO(b.Child, c.Parts[0], b.Algo, false, b.Workers)
		pushedHead, ok := pushBMO(head)
		if !ok {
			return nil, false
		}
		var rest preference.Preference
		if len(c.Parts) == 2 {
			rest = c.Parts[1]
		} else {
			rest = &preference.Cascade{Parts: c.Parts[1:]}
		}
		outer := NewBMO(pushedHead, rest, b.Algo, b.Progressive, b.Workers)
		if innerB, ok := outer.Child.(*BMO); ok && isResidual(innerB) {
			return collapseBMO(outer, innerB), true
		}
		// Head fully below the join: later stages may push to the
		// other side.
		if n, ok := pushBMO(outer); ok {
			return n, true
		}
		return outer, true
	}
	return nil, false
}

// isResidual reports whether a BMO node evaluates its full input above a
// join (possibly a split residual) — as opposed to a pre-filter placed
// below one, which must not merge with a node above it.
func isResidual(b *BMO) bool {
	return b.SemiSource == nil && b.GroupCol < 0 && b.Pad == 0 &&
		(b.Pushdown == "" || b.Pushdown == "split")
}

// collapseBMO merges two adjacent BMO nodes into one cascade evaluation:
// BMO(P2, BMO(P1, R)) = BMO(P1 ▷ P2, R). The inner node's pushdown
// marker survives (a collapsed split residual is still the split's
// residual); the outer node's progressive flag decides the evaluation
// shape, as it did before the merge.
func collapseBMO(outer, inner *BMO) *BMO {
	parts := append(bmo.Stages(inner.Pref), bmo.Stages(outer.Pref)...)
	merged := NewBMO(inner.Child, &preference.Cascade{Parts: parts}, outer.Algo, outer.Progressive, outer.Workers)
	merged.Pushdown = inner.Pushdown
	return merged
}

// joinBelow looks through a pass-through projection for the join a BMO
// node sits above. A residual Filter between them blocks the rewrite
// (the BMO must only see rows passing the hard selection), as does any
// other intervening operator.
func joinBelow(n Node) (*Project, *Join) {
	if p, ok := n.(*Project); ok && p.PassThrough() {
		if j, ok := p.Child.(*Join); ok {
			return p, j
		}
		return nil, nil
	}
	if j, ok := n.(*Join); ok {
		return nil, j
	}
	return nil, nil
}

// pushableJoin restricts the rewrite to join shapes with sound pushdown
// semantics: inner hash equi-joins (partner sets are per-key hash
// buckets) and pure cross joins (every tuple pairs with every other).
// LEFT joins preserve unmatched rows with NULL padding — pre-filtering
// would change which rows get padded — and nested-loop theta joins give
// no key to group or hash partners by.
func pushableJoin(j *Join) bool {
	if j.Type == ast.LeftJoin {
		return false
	}
	if j.LCol >= 0 {
		return true
	}
	return j.On == nil
}

// sideClassifier maps a preference attribute label to the join input it
// comes from: 0 = left, 1 = right. Labels must resolve to exactly one
// column of the join schema (the same first-match rules the preference
// binder used); ambiguous, computed, or unknown labels classify to
// neither side and veto the rewrite for their preference component.
func sideClassifier(j *Join) func(attr string) (int, bool) {
	full := j.Schema()
	nleft := len(j.Left.Schema())
	return func(attr string) (int, bool) {
		qual, name, _ := strings.Cut(attr, ".")
		if name == "" {
			qual, name = "", attr
		}
		idx, n := full.ColIndex(qual, name)
		if n != 1 {
			return 0, false
		}
		if idx < nleft {
			return 0, true
		}
		return 1, true
	}
}

// pushWhole applies law (a): the join is rebuilt with the given side
// wrapped in a BMO evaluating the whole preference, plus the partner
// filter against the other input for equi-joins.
func pushWhole(b *BMO, j *Join, side int) *Join {
	inputs := [2]Node{j.Left, j.Right}
	pushed := NewBMO(inputs[side], b.Pref, b.Algo, false, b.Workers)
	pushed.Pushdown = [2]string{"left", "right"}[side]
	if side == 1 {
		pushed.Pad = len(j.Left.Schema())
	}
	if j.LCol >= 0 {
		pushed.SemiSource = inputs[1-side]
		if side == 0 {
			pushed.SemiLocalCol, pushed.SemiSourceCol = j.LCol, j.RCol
		} else {
			pushed.SemiLocalCol, pushed.SemiSourceCol = j.RCol, j.LCol
		}
	}
	inputs[side] = pushed
	return cloneJoin(j, inputs[0], inputs[1])
}

// prefilter builds one side's group-wise pre-filter for law (b): the
// side's Pareto components, evaluated among rows sharing a join-key
// value (or globally under a cross join, where every tuple shares all
// partners).
func prefilter(b *BMO, j *Join, side int, parts []preference.Preference) *BMO {
	inputs := [2]Node{j.Left, j.Right}
	var pref preference.Preference
	if len(parts) == 1 {
		pref = parts[0]
	} else {
		pref = &preference.Pareto{Parts: parts}
	}
	pushed := NewBMO(inputs[side], pref, b.Algo, false, b.Workers)
	pushed.Pushdown = [2]string{"left", "right"}[side]
	if side == 1 {
		pushed.Pad = len(j.Left.Schema())
	}
	if j.LCol >= 0 {
		pushed.GroupCol = [2]int{j.LCol, j.RCol}[side]
	}
	return pushed
}

// hasBMO reports whether a subtree contains dominance work — the signal
// that it is too expensive to re-execute as a semijoin source.
func hasBMO(n Node) bool {
	if _, ok := n.(*BMO); ok {
		return true
	}
	for _, c := range children(n) {
		if hasBMO(c) {
			return true
		}
	}
	return false
}

// cloneJoin rebuilds a join with new inputs, preserving its physical
// annotations; the original node stays untouched.
func cloneJoin(j *Join, left, right Node) *Join {
	nj := NewJoin(left, right, j.Type, j.On, j.LCol, j.RCol)
	nj.BuildLeft = j.BuildLeft
	return nj
}

// rebuildAbove re-wraps the rewritten join in the pass-through
// projection it was found under, when there was one.
func rebuildAbove(proj *Project, n Node) Node {
	if proj == nil {
		return n
	}
	return NewProject(n, proj.Items, proj.OrderBy)
}
