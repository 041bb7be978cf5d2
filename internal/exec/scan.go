package exec

import (
	"math"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/value"
)

// Scans walk the candidates of one captured heap: every row for a
// sequential scan, the probed positions for an index scan. When the
// filter has a column-vector plan (plan.VecFilter), the conjuncts whose
// vector is at hand are tested on the vectors first and a row is fetched
// only when it passes them — the column-at-a-time selection of
// MonetDB/X100 — and then only the remaining conjuncts run on it, in
// written order. Every candidate still counts as scanned, so RowsScanned
// means the same on either path.

type seqScan struct {
	n       *plan.SeqScan
	env     *Env
	cur     heapCursor
	emitted int64
}

func newSeqScan(n *plan.SeqScan, env *Env) *seqScan {
	return &seqScan{n: n, env: env}
}

func (s *seqScan) Schema() plan.Schema { return s.n.Schema() }

func (s *seqScan) Open() error {
	s.cur.open(s.n.Table.Heap(), nil, true, s.n.Cond(), s.n.VecFilter(), s.env.Rt)
	s.emitted = 0
	return nil
}

func (s *seqScan) Next() (value.Row, error) {
	if s.n.Limit >= 0 && s.emitted >= s.n.Limit {
		return nil, nil
	}
	row, err := s.cur.next(s.env)
	if row != nil {
		s.emitted++
	}
	return row, err
}

func (s *seqScan) Close() error { return nil }

type indexScan struct {
	n   *plan.IndexScan
	env *Env
	ns  *NodeStats
	cur heapCursor
}

func newIndexScan(n *plan.IndexScan, env *Env) *indexScan {
	return &indexScan{n: n, env: env, ns: env.NodeStats(n)}
}

func (s *indexScan) Schema() plan.Schema { return s.n.Schema() }

func (s *indexScan) Open() error {
	h, pos, all, err := s.probe()
	if err != nil {
		return err
	}
	s.cur.open(h, pos, all, s.n.Cond(), s.n.VecFilter(), s.env.Rt)
	return nil
}

// probe captures the candidates: the heap with the probed positions, or
// with all set when the probe cannot be answered by the index, or none.
func (s *indexScan) probe() (h storage.Heap, pos []int, all bool, err error) {
	tbl := s.n.Table
	if tbl.RowCount() == 0 {
		return h, nil, false, nil
	}
	key, err := s.n.KeyProg().Eval(s.env.Rt, nil)
	if err != nil || key.IsNull() {
		// col = NULL is UNKNOWN for every row: nothing can match.
		return h, nil, false, err
	}
	cv, err := value.Coerce(key, tbl.Schema.Cols[s.n.Col].Kind)
	if err != nil || key.K == value.Float && math.IsNaN(key.F) {
		// Kinds the probe cannot represent exactly, and NaN, which `=`
		// finds equal to every number: fall back to a full scan; the
		// residual filter keeps the result correct.
		return tbl.Heap(), nil, true, nil
	}
	s.env.count().AddIndexProbes(1)
	s.ns.AddProbes(1)
	h, pos, ok := tbl.ProbeHeap(s.n.Index, cv)
	return h, pos, !ok, nil
}

func (s *indexScan) Next() (value.Row, error) { return s.cur.next(s.env) }

func (s *indexScan) Close() error { return nil }

// heapCursor yields the candidates of one captured heap that pass a scan
// filter.
type heapCursor struct {
	heap   storage.Heap
	pos    []int // candidate positions, unless all
	all    bool  // every heap row is a candidate
	i      int
	vecs   []vecTest  // conjuncts tested on column vectors
	rest   expr.Conds // conjuncts tested on fetched rows
	polled int64
}

// vecTest is one `column op bound` conjunct over a column vector, with
// value.Compare's semantics: a NULL column value is UNKNOWN and drops
// the row.
type vecTest struct {
	vec    *storage.ColVec
	bound  float64
	accept expr.Signs
}

func (t *vecTest) keep(p int) bool {
	return t.vec.IsValid(p) && t.accept.Has(value.CompareNum(t.vec.Nums[p], t.bound))
}

// open starts the cursor over h. A conjunct of vf runs on a vector when
// its bound evaluates to a numeric, non-NULL value; a missing vector is
// built from h at once (storage.Heap.Vector). Should any parameter of
// the filter fail to evaluate, the whole filter runs on rows, in written
// order, so the error surfaces exactly as it always has.
func (c *heapCursor) open(h storage.Heap, pos []int, all bool, cond expr.Conds, vf *plan.VecFilter, rt *expr.Runtime) {
	*c = heapCursor{heap: h, pos: pos, all: all, rest: cond, polled: c.polled}
	if vf == nil || len(h.Rows) == 0 {
		return
	}
	for _, p := range vf.Params {
		if _, err := p.Eval(rt, nil); err != nil {
			return
		}
	}
	var onVec []bool
	for _, vc := range vf.Conjs {
		b, err := vc.Bound.Eval(rt, nil)
		if err != nil || b.IsNull() || b.K == value.Text {
			continue // TEXT and NULL bounds stay on the row path
		}
		vec := h.Vector(vc.Col)
		if vec == nil {
			continue
		}
		if onVec == nil {
			onVec = make([]bool, len(cond))
		}
		onVec[vc.Index] = true
		c.vecs = append(c.vecs, vecTest{vec: vec, bound: b.Num(), accept: vc.Accept})
	}
	if onVec == nil {
		return
	}
	c.rest = make(expr.Conds, 0, len(cond)-len(c.vecs))
	for i, p := range cond {
		if !onVec[i] {
			c.rest = append(c.rest, p)
		}
	}
}

// next returns the next passing row, nil at exhaustion. The candidates it
// examined are counted once per return rather than once per row.
func (c *heapCursor) next(env *Env) (value.Row, error) {
	row, scanned, err := c.advance(env)
	if scanned > 0 {
		env.count().AddRowsScanned(scanned)
	}
	return row, err
}

func (c *heapCursor) advance(env *Env) (row value.Row, scanned int64, err error) {
	n := len(c.pos)
	if c.all {
		n = len(c.heap.Rows)
	}
candidates:
	for {
		if err := env.checkStop(&c.polled); err != nil {
			return nil, scanned, err
		}
		if c.i >= n {
			return nil, scanned, nil
		}
		p := c.i
		if !c.all {
			p = c.pos[p]
		}
		c.i++
		scanned++
		for k := range c.vecs {
			if !c.vecs[k].keep(p) {
				continue candidates
			}
		}
		row := c.heap.Rows[p]
		keep, err := c.rest.Match(env.Rt, row)
		if err != nil {
			return nil, scanned, err
		}
		if keep {
			return row, scanned, nil
		}
	}
}
