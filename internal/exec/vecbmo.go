package exec

import (
	"math"
	"time"

	"repro/internal/bmo"
	"repro/internal/expr"
	"repro/internal/preference"
	"repro/internal/storage"
	"repro/internal/value"
)

// Vectorized BMO execution: the planner set the node's Vectorized flag
// after verifying every stage of the preference is score-based and that
// the candidates are a scan's selection. The operator fills a flat score
// matrix and hands it to the batch zone-map kernel, which returns the
// winners' indices.
//
// The operator never pulls a row from its child: it takes the scan's
// selection (captured heap, surviving positions), fills each score
// column at those positions — from column vectors where a kernel serves
// the component (fillKernel), otherwise by scoring the heap rows — and
// fetches heap rows for the winners only. A CASCADE runs through
// bmo.ReduceStages: stage 1 fills its columns at every selected
// position, each later stage only at the previous stage's winners, in
// the order that stage returned them, and the driver stops once at most
// one candidate is left. That is the row path's BMO(P2, BMO(P1, R)) with
// the same input order per stage, so the same rows come out in the same
// order, and a later stage never scores — nor fails on — a row an
// earlier one eliminated. Every other input takes the row path
// (BMOOp.Open). Zone-map counters land in the statement Stats for
// EXPLAIN ANALYZE.

// takeSelection drains the scan's selection into b.heap and b.sel, and
// counts its rows as the scan's and the pass-through projection's
// output, which is what they emit as far as EXPLAIN ANALYZE is
// concerned.
func (b *BMOOp) takeSelection() error {
	start := time.Now()
	h, sel, err := b.scan.selection()
	if err != nil {
		return err
	}
	b.heap, b.sel = h, sel
	nanos := int64(time.Since(start))
	b.env.NodeStats(b.scan.node()).AddEmitted(int64(len(sel)), nanos)
	b.env.NodeStats(b.node.Child).AddEmitted(int64(len(sel)), nanos)
	return nil
}

// openSelection is Open on a vectorized node: the child is open, and
// its scan hands over its selection.
func (b *BMOOp) openSelection() error {
	if err := b.takeSelection(); err != nil {
		return err
	}
	b.countInput(len(b.sel))
	scorers, ends, _ := bmo.ScoreStages(b.node.Pref)
	at, err := bmo.ReduceStages(len(ends), b.sel, &bmo.Stats{}, b.config(), func(k int, at []int32) ([]int32, error) {
		lo := 0
		if k > 0 {
			lo = ends[k-1]
		}
		in, err := b.fillStage(scorers[lo:ends[k]], at)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			b.vin = in // scoreMin reads stage 1, filled at every candidate
		}
		win, err := b.evaluateVec(in)
		for i, w := range win {
			win[i] = at[w]
		}
		return win, err
	})
	if err != nil {
		return err
	}
	b.buf = make([]value.Row, len(at))
	for k, p := range at {
		b.buf[k] = b.heap.Rows[p]
	}
	return nil
}

// fillStage fills the score matrix of one stage, components scorers,
// at the heap positions sel.
func (b *BMOOp) fillStage(scorers []preference.Scored, sel []int32) (bmo.VecInput, error) {
	n, d := len(sel), len(scorers)
	in := bmo.VecInput{Dim: d, Flat: make([]float64, n*d)}
	if n == 0 {
		// Nothing selected: the scan may have captured no heap at all (a
		// probe with a NULL key, an empty table), so no vector is asked for.
		scorers = nil
	}
	for j, s := range scorers {
		done, err := b.fillKernel(&in, sel, j, s)
		if err != nil {
			return bmo.VecInput{}, err
		}
		if done {
			continue
		}
		for i, p := range sel {
			v, err := s.Score(b.heap.Rows[p])
			if err != nil {
				return bmo.VecInput{}, err
			}
			in.Flat[i*d+j] = v
		}
	}
	in.Sums = bmo.SaturateSums(in.Flat, n, d)
	return in, nil
}

// evaluateVec runs the score kernel on in and records its zone-map
// counters.
func (b *BMOOp) evaluateVec(in bmo.VecInput) ([]int32, error) {
	win, _, vst, err := bmo.EvaluateVecInput(in, b.config())
	if err != nil {
		return nil, err
	}
	b.ns.AddBlocks(int64(vst.BlocksScanned), int64(vst.BlocksPruned))
	if b.env != nil {
		b.env.count().AddVecBlocks(int64(vst.BlocksScanned), int64(vst.BlocksPruned))
	}
	return win, nil
}

// scoreMin returns the smallest score of component s over the candidates,
// read from the score matrix; ok=false when the operator filled no
// matrix or s is not one of its first stage's components. A later
// stage's matrix holds the survivors of the earlier stages only, and the
// minimum is over every candidate — which is what the row path scores,
// and fails on, too.
func (b *BMOOp) scoreMin(s preference.Scored) (min float64, ok bool) {
	if b.vin.Dim == 0 {
		return 0, false
	}
	scorers, _, _ := bmo.ScoreStages(b.node.Pref)
	for j, c := range scorers[:b.vin.Dim] {
		if c != s {
			continue
		}
		min = math.Inf(1)
		for i := j; i < len(b.vin.Flat); i += b.vin.Dim {
			if v := b.vin.Flat[i]; v < min {
				min = v
			}
		}
		return min, true
	}
	return 0, false
}

// fillKernel fills score column j of in, component s, from a column
// vector at the heap positions sel, and reports false when no kernel
// serves it: s names no column (a computed operand, a condition of
// another shape, an ELSE chain, CONTAINS), the column's kind has no
// kernel for s (numeric kernels read INT, FLOAT, BOOL and DATE; POS and
// NEG any kind, TEXT through dictionary codes), the column has no
// vector, or a Bool bound is not a number. A vector is asked for only
// once a kernel will read it. A kernel computes exactly what s.Score
// computes for the row; where Score reports an error (a NaN under a
// distance preference) the kernel asks Score for it.
func (b *BMOOp) fillKernel(in *bmo.VecInput, sel []int32, j int, s preference.Scored) (bool, error) {
	if p, ok := s.(*preference.Bool); ok {
		return p.Cmp != nil && b.fillCompare(in, sel, j, p.Cmp), nil
	}
	slotted, ok := s.(interface{ Column() (int, bool) })
	if !ok {
		return false, nil
	}
	col, ok := slotted.Column()
	_, pos := s.(*preference.Pos)
	_, neg := s.(*preference.Neg)
	if !ok || !pos && !neg && !b.numeric(col) {
		return false, nil
	}
	cv := b.heap.Vector(col)
	if cv == nil {
		return false, nil
	}
	switch p := s.(type) {
	case *preference.Pos:
		return fillMember(in, sel, j, cv, p.Vals, 0, 1), nil
	case *preference.Neg:
		return fillMember(in, sel, j, cv, p.Vals, 1, 0), nil
	}
	return b.fillDistance(in, sel, j, cv, s)
}

// numeric reports whether column col of the scanned table has numeric
// vectors.
func (b *BMOOp) numeric(col int) bool {
	return storage.Vectorizable(b.scan.table().Schema.Cols[col].Kind)
}

// fillDistance is the kernel of LOWEST, HIGHEST, AROUND and BETWEEN over
// a numeric vector: NULL scores +Inf, and a NaN fails as on the row path.
func (b *BMOOp) fillDistance(in *bmo.VecInput, sel []int32, j int, cv *storage.ColVec, s preference.Scored) (bool, error) {
	if cv.Nums == nil {
		return false, nil
	}
	d, flat, nums, inf := in.Dim, in.Flat, cv.Nums, math.Inf(1)
	for _, q := range sel {
		if x := nums[q]; x != x {
			_, err := s.Score(b.heap.Rows[q])
			return err != nil, err
		}
	}
	switch p := s.(type) {
	case *preference.Lowest:
		for i, q := range sel {
			v := inf
			if cv.IsValid(int(q)) {
				v = nums[q]
			}
			flat[i*d+j] = v
		}
	case *preference.Highest:
		for i, q := range sel {
			v := inf
			if cv.IsValid(int(q)) {
				v = -nums[q]
			}
			flat[i*d+j] = v
		}
	case *preference.Around:
		for i, q := range sel {
			v := inf
			if cv.IsValid(int(q)) {
				v = preference.AroundDistance(nums[q], p.Target)
			}
			flat[i*d+j] = v
		}
	case *preference.Between:
		for i, q := range sel {
			v := inf
			if cv.IsValid(int(q)) {
				switch x := nums[q]; {
				case x < p.Lo:
					v = p.Lo - x
				case x > p.Hi:
					v = x - p.Hi
				default:
					v = 0
				}
			}
			flat[i*d+j] = v
		}
	}
	return true, nil
}

// fillMember is the kernel of POS (in=0, out=1) and NEG (in=1, out=0):
// NULL scores +Inf.
func fillMember(m *bmo.VecInput, sel []int32, j int, cv *storage.ColVec, vals []value.Value, in, out float64) bool {
	set, ok := newMemberSet(cv, vals)
	if !ok {
		return false
	}
	d, flat, inf := m.Dim, m.Flat, math.Inf(1)
	for i, q := range sel {
		v := inf
		if cv.IsValid(int(q)) {
			v = out
			if set.has(int(q)) {
				v = in
			}
		}
		flat[i*d+j] = v
	}
	return true
}

// fillCompare is the kernel of a Bool component `col op bound`, with the
// scan filters' semantics: 0 where the comparison holds, 1 where it is
// false or UNKNOWN (NULL). It reports false when the column is not
// numeric or the bound does not evaluate to a number (those stay on the
// row path); the column's vector is fetched only for a numeric bound.
func (b *BMOOp) fillCompare(in *bmo.VecInput, sel []int32, j int, c *preference.Comparison) bool {
	if !b.numeric(c.Col) {
		return false
	}
	var rt *expr.Runtime
	if b.env != nil {
		rt = b.env.Rt
	}
	bound, err := c.Bound.Eval(rt, nil)
	if err != nil || bound.IsNull() || bound.K == value.Text {
		return false
	}
	cv := b.heap.Vector(c.Col)
	if cv == nil || cv.Nums == nil {
		return false
	}
	t := vecTest{vec: cv, bound: bound.Num(), accept: c.Accept}
	d, flat := in.Dim, in.Flat
	for i, q := range sel {
		v := 1.0
		if t.keep(int(q)) {
			v = 0
		}
		flat[i*d+j] = v
	}
	return true
}

// memberSet is the set-membership test of POS/NEG over a column vector,
// with the value.Key semantics of preference.NewSet: a member matches
// only values of its own key class (numbers, booleans, dates, text), so
// `b IN (1)` never matches TRUE and `s IN (5)` never matches '5'. Within
// a class keys are equal exactly when the values are: equal float64
// images (so -0.0 = 0), NaN matching NaN, or equal strings.
type memberSet struct {
	cv    *storage.ColVec
	codes []bool // TEXT: hit per dictionary code
	nums  []float64
	nan   bool
}

// newMemberSet builds the test of vals over cv; ok=false for a vector of
// a kind it cannot read.
func newMemberSet(cv *storage.ColVec, vals []value.Value) (*memberSet, bool) {
	m := &memberSet{cv: cv}
	switch {
	case cv.Codes != nil:
		m.codes = make([]bool, len(cv.Dict))
		for _, v := range vals {
			if v.K != value.Text {
				continue
			}
			if code, ok := cv.Dict[v.S]; ok {
				m.codes[code] = true
			}
		}
	case cv.Nums != nil:
		for _, v := range vals {
			if keyClass(v.K) == keyClass(cv.Kind) {
				x := v.Num()
				m.nan = m.nan || x != x
				m.nums = append(m.nums, x)
			}
		}
	default:
		return nil, false
	}
	return m, true
}

// has reports whether the non-NULL row p is a member.
func (m *memberSet) has(p int) bool {
	if m.codes != nil {
		return m.codes[m.cv.Codes[p]]
	}
	x := m.cv.Nums[p]
	if x != x {
		return m.nan
	}
	for _, v := range m.nums {
		if x == v {
			return true
		}
	}
	return false
}

// keyClass is the class of value.Key a kind's values fall in: INT and
// FLOAT share one.
func keyClass(k value.Kind) value.Kind {
	if k == value.Int {
		return value.Float
	}
	return k
}
