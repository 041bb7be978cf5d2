package exec

import (
	"math"

	"repro/internal/bmo"
	"repro/internal/preference"
	"repro/internal/storage"
	"repro/internal/value"
)

// Vectorized BMO execution: the planner gave the node VecCols after
// verifying the preference is fully score-based over resolvable numeric
// columns. The operator fills a flat score matrix — straight from the
// column vectors of the heap its bare scan (VecScan) captured, otherwise
// by generic per-row scoring — and hands it to the batch zone-map
// kernel. Zone-map counters land in the statement Stats for EXPLAIN
// ANALYZE.

// openVectorized is the VecCols branch of BMOOp.Open; the input is
// already materialized and counted.
func (b *BMOOp) openVectorized() error {
	scorers, _ := bmo.ScoreBased(b.node.Pref)
	var in bmo.VecInput
	filled := false
	if b.scan != nil && len(b.scan.cur.heap.Rows) == len(b.input) {
		in, filled = fillColumnar(scorers, b.node.VecCols, b.scan.cur.heap, b.input)
	}
	if !filled {
		var err error
		if in, err = bmo.BuildVecInput(scorers, b.input); err != nil {
			return err
		}
	}
	out, _, vst, err := bmo.EvaluateVecInput(in, b.config())
	if err != nil {
		return err
	}
	b.ns.AddBlocks(int64(vst.BlocksScanned), int64(vst.BlocksPruned))
	if b.env != nil {
		b.env.count().AddVecBlocks(int64(vst.BlocksScanned), int64(vst.BlocksPruned))
	}
	b.buf = out
	return nil
}

// fillColumnar builds the score matrix from the heap's column vectors
// with per-preference kernels — tight loops over typed float64 vectors,
// no value boxing and no per-row interface dispatch. It reports false
// when some component has no specialized kernel (discrete scorers read
// boxed values), sending the operator down the generic fill.
func fillColumnar(scorers []preference.Scored, cols []int, h storage.Heap, rows []value.Row) (bmo.VecInput, bool) {
	for _, s := range scorers {
		switch s.(type) {
		case *preference.Lowest, *preference.Highest, *preference.Around, *preference.Between:
		default:
			return bmo.VecInput{}, false
		}
	}
	n := len(h.Rows)
	d := len(scorers)
	flat := make([]float64, n*d)
	inf := math.Inf(1)
	for j, s := range scorers {
		cv := h.Vector(cols[j])
		if cv == nil {
			return bmo.VecInput{}, false
		}
		nums, k := cv.Nums, j
		switch p := s.(type) {
		case *preference.Lowest:
			for i := 0; i < n; i++ {
				v := inf
				if cv.IsValid(i) {
					v = nums[i]
				}
				flat[i*d+k] = v
			}
		case *preference.Highest:
			for i := 0; i < n; i++ {
				v := inf
				if cv.IsValid(i) {
					v = -nums[i]
				}
				flat[i*d+k] = v
			}
		case *preference.Around:
			for i := 0; i < n; i++ {
				v := inf
				if cv.IsValid(i) {
					v = math.Abs(nums[i] - p.Target)
				}
				flat[i*d+k] = v
			}
		case *preference.Between:
			for i := 0; i < n; i++ {
				v := inf
				if cv.IsValid(i) {
					switch x := nums[i]; {
					case x < p.Lo:
						v = p.Lo - x
					case x > p.Hi:
						v = x - p.Hi
					default:
						v = 0
					}
				}
				flat[i*d+k] = v
			}
		}
	}
	in := bmo.VecInput{Rows: rows, Dim: d, Flat: flat, Sums: bmo.SaturateSums(flat, n, d)}
	return in, true
}
