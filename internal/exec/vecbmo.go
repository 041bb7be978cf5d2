package exec

import (
	"math"
	"slices"
	"time"

	"repro/internal/bmo"
	"repro/internal/expr"
	"repro/internal/preference"
	"repro/internal/storage"
	"repro/internal/value"
)

// The BMO operator's key fill. Every stage of every BMO node fills a
// flat key matrix (bmo.VecInput) at its candidates' heap positions and
// hands it to the kernel, which returns the winners' indices; only the
// winners' rows are fetched (late materialization): every key is
// exact, so the kernel decides dominance on the matrix alone. A CASCADE
// runs through bmo.ReduceStages: stage 1 fills its key at every
// candidate, each later stage only at the previous stage's winners, in
// the order that stage returned them, and the loop stops once at most
// one candidate is left — BMO(P2, BMO(P1, R)), so a later stage never
// scores, nor fails on, a row an earlier one eliminated.
//
// The planner marks a node Vectorized after verifying that its
// candidates are a scan's selection and that the estimate repays a
// column vector's build (see core's vectorize step). On such a node the
// operator never pulls a row from its child: it takes the scan's
// selection (captured heap, surviving positions) and fills each key
// element a kernel serves from the heap's column vector (fillKernel).
// Every other element, and every element of any other node, is scored
// on the heap rows at the same positions. Zone-map counters of a
// vectorized node land in the statement Stats for EXPLAIN ANALYZE.

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

// fillStage fills the key matrix of one stage at the heap positions
// sel. On a columnar node, an element a kernel serves is filled from
// a column vector (fillKernel); every other element is scored on the
// heap rows, row by row.
func (b *BMOOp) fillStage(key preference.Key, sel []int32) (bmo.VecInput, error) {
	in := bmo.NewVecInput(key)
	n, d := len(sel), in.Dim
	in.Flat = make([]float64, n*d)
	var scored []int // the elements no kernel filled
	for j, s := range key.Comps {
		// Nothing selected: the scan may have captured no heap at all (a
		// probe with a NULL key, an empty table), so no vector is asked for.
		if b.columnar && n > 0 {
			done, err := b.fillKernel(&in, sel, j, s)
			if err != nil {
				return bmo.VecInput{}, err
			}
			if done {
				continue
			}
		}
		scored = append(scored, j)
	}
	for i := 0; len(scored) > 0 && i < n; i++ {
		r := b.heap.Rows[sel[i]]
		for _, j := range scored {
			v, err := key.Comps[j].Score(r)
			if err != nil {
				return bmo.VecInput{}, err
			}
			in.Flat[i*d+j] = v
		}
	}
	in.SumHeads()
	return in, nil
}

// evaluateVec runs the kernel on in under algo and, on a columnar
// node, records its elimination and zone-map counters.
func (b *BMOOp) evaluateVec(in bmo.VecInput, algo bmo.Algorithm) ([]int32, error) {
	win, _, vst, err := bmo.EvaluateVecInput(in, algo, b.config())
	if err != nil || !b.columnar {
		return win, err
	}
	b.ns.AddVec(vst)
	if b.env != nil {
		b.env.count().AddVecBlocks(int64(vst.BlocksScanned), int64(vst.BlocksPruned))
	}
	return win, nil
}

// scoreMin returns the smallest score of component s over the candidates,
// read from the first stage's key matrix; ok=false when no matrix was
// filled at every candidate (a reference algorithm, a GROUPING of more
// than one group) or s is not one of its key elements. A later stage's
// matrix holds the survivors of the earlier stages only, and the
// minimum is over every candidate — which is what Input's rows score,
// and fail on, too.
func (b *BMOOp) scoreMin(s preference.Scored) (min float64, ok bool) {
	if b.vin.Dim == 0 {
		return 0, false
	}
	for j, c := range preference.KeyOf(bmo.Stages(b.node.Pref)[0]).Comps {
		if c != preference.Scorer(s) {
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

// fillKernel fills key column j of in, element s, from a column vector
// at the heap positions sel, and reports false when no kernel serves it:
// s names no column (a computed operand, a condition of another shape,
// an ELSE chain, CONTAINS), the column's kind has no kernel for s
// (numeric kernels read INT, FLOAT, BOOL and DATE; POS, NEG and
// EXPLICIT any kind, TEXT through dictionary codes), the column has no
// vector, or a Bool bound is not a number. A vector is asked for only
// once a kernel will read it. A kernel computes exactly what s.Score
// computes for the row; where Score reports an error (a NaN under a
// distance preference) the kernel asks Score for it.
func (b *BMOOp) fillKernel(in *bmo.VecInput, sel []int32, j int, s preference.Scorer) (bool, error) {
	if p, ok := s.(*preference.Bool); ok {
		return p.Cmp != nil && b.fillCompare(in, sel, j, p.Cmp), nil
	}
	slotted, ok := s.(interface{ Column() (int, bool) })
	if !ok {
		return false, nil
	}
	col, ok := slotted.Column()
	vs, byValue := valueScoresOf(s)
	if !ok || !byValue && !b.numeric(col) {
		return false, nil
	}
	cv := b.heap.Vector(col)
	if cv == nil {
		return false, nil
	}
	if byValue {
		return fillValues(in, sel, j, cv, vs), nil
	}
	return b.fillDistance(in, sel, j, cv, s)
}

// numeric reports whether column col of the scanned table has numeric
// vectors.
func (b *BMOOp) numeric(col int) bool {
	return storage.Vectorizable(b.scan.table().Schema.Cols[col].Kind)
}

// fillDistance is the kernel of LOWEST, HIGHEST, AROUND and BETWEEN over
// a numeric vector: NULL scores +Inf, and a NaN fails as Score does.
func (b *BMOOp) fillDistance(in *bmo.VecInput, sel []int32, j int, cv *storage.ColVec, s preference.Scorer) (bool, error) {
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

// fillValues is the kernel of a component scored by value (POS, NEG,
// EXPLICIT).
func fillValues(m *bmo.VecInput, sel []int32, j int, cv *storage.ColVec, vs valueScores) bool {
	t, ok := newScoreTable(cv, vs)
	if !ok {
		return false
	}
	d, flat := m.Dim, m.Flat
	for i, q := range sel {
		v := vs.null
		if cv.IsValid(int(q)) {
			v = t.score(int(q))
		}
		flat[i*d+j] = v
	}
	return true
}

// fillCompare is the kernel of a Bool component `col op bound`, with the
// scan filters' semantics: 0 where the comparison holds, 1 where it is
// false or UNKNOWN (NULL). It reports false when the column is not
// numeric or the bound does not evaluate to a number (those rows are
// scored); the column's vector is fetched only for a numeric bound.
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

// valueScores is a component that scores by value: vals[k] scores
// scores[k], any other value other and NULL null.
type valueScores struct {
	vals        []value.Value
	scores      []float64
	other, null float64
}

// valueScoresOf returns s's scores by value; ok=false unless s is POS,
// NEG or EXPLICIT.
func valueScoresOf(s preference.Scorer) (vs valueScores, ok bool) {
	vs.null = math.Inf(1)
	switch p := s.(type) {
	case *preference.Pos:
		vs.vals, vs.scores, vs.other = p.Vals, make([]float64, len(p.Vals)), 1
	case *preference.Neg:
		vs.vals, vs.scores = p.Vals, slices.Repeat([]float64{1}, len(p.Vals))
	case *preference.Position:
		vs.vals, vs.scores = p.Vals, make([]float64, len(p.Vals))
		for k, v := range p.Vals {
			vs.scores[k] = p.Of(v)
		}
		vs.other, vs.null = float64(len(p.Vals)+1), p.Of(value.NewNull())
	default:
		return vs, false
	}
	return vs, true
}

// scoreTable is a valueScores over a column vector, with the value.Key
// semantics of preference.NewSet and EXPLICIT's graph: a value matches
// only values of its own key class (numbers, booleans, dates, text), so
// `b IN (1)` never matches TRUE and `s IN (5)` never matches '5'. Within
// a class keys are equal exactly when the values are: equal float64
// images (so -0.0 = 0), NaN matching NaN, or equal strings.
type scoreTable struct {
	cv     *storage.ColVec
	codes  []float64 // TEXT: the score per dictionary code
	nums   []float64 // numbers: the values of cv's key class…
	scores []float64 // …and their scores
	other  float64
}

// newScoreTable builds the table of vs over cv; ok=false for a vector of
// a kind it cannot read.
func newScoreTable(cv *storage.ColVec, vs valueScores) (*scoreTable, bool) {
	t := &scoreTable{cv: cv, other: vs.other}
	switch {
	case cv.Codes != nil:
		t.codes = slices.Repeat([]float64{vs.other}, len(cv.Dict))
		for k, v := range vs.vals {
			if code, ok := cv.Dict[v.S]; ok && v.K == value.Text {
				t.codes[code] = vs.scores[k]
			}
		}
	case cv.Nums != nil:
		for k, v := range vs.vals {
			if keyClass(v.K) == keyClass(cv.Kind) {
				t.nums = append(t.nums, v.Num())
				t.scores = append(t.scores, vs.scores[k])
			}
		}
	default:
		return nil, false
	}
	return t, true
}

// score returns the non-NULL row p's score.
func (t *scoreTable) score(p int) float64 {
	if t.codes != nil {
		return t.codes[t.cv.Codes[p]]
	}
	x := t.cv.Nums[p]
	for k, v := range t.nums {
		if x == v || x != x && v != v {
			return t.scores[k]
		}
	}
	return t.other
}

// keyClass is the class of value.Key a kind's values fall in: INT and
// FLOAT share one.
func keyClass(k value.Kind) value.Kind {
	if k == value.Int {
		return value.Float
	}
	return k
}
