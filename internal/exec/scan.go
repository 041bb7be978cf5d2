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
//
// A scan under a BMO (plan.SelectionScan) is not pulled row by row: the
// BMO takes its selection — the captured heap and the positions that
// pass the filter — and fetches only the winners' rows (late
// materialization, Abadi et al., "Materialization Strategies in a
// Column-Oriented DBMS", ICDE 2007).

// selector is a scan that hands a BMO its selection instead of its
// rows.
type selector interface {
	node() plan.Node
	table() *storage.Table
	// selection drains the opened scan: the heap it captured and the
	// positions of the candidates that pass its filter, in heap order.
	selection() (storage.Heap, []int32, error)
}

// cursorScan is what both scan kinds share: the environment and the
// cursor over the captured heap.
type cursorScan struct {
	env *Env
	cur heapCursor
}

// selection implements selector; the planner never hands a limited scan
// to a BMO.
func (s *cursorScan) selection() (storage.Heap, []int32, error) {
	sel, err := s.cur.selection(s.env)
	return s.cur.heap, sel, err
}

type seqScan struct {
	cursorScan
	n       *plan.SeqScan
	emitted int64
}

func newSeqScan(n *plan.SeqScan, env *Env) *seqScan {
	return &seqScan{cursorScan: cursorScan{env: env}, n: n}
}

func (s *seqScan) Schema() plan.Schema { return s.n.Schema() }

func (s *seqScan) Open() error {
	s.cur.open(s.n.Table.Heap(), nil, true, s.n.Cond(), -1, s.n.VecFilter(), s.env.Rt)
	s.emitted = 0
	return nil
}

func (s *seqScan) node() plan.Node { return s.n }

func (s *seqScan) table() *storage.Table { return s.n.Table }

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
	cursorScan
	n  *plan.IndexScan
	ns *NodeStats
}

func newIndexScan(n *plan.IndexScan, env *Env) *indexScan {
	return &indexScan{cursorScan: cursorScan{env: env}, n: n, ns: env.NodeStats(n)}
}

func (s *indexScan) Schema() plan.Schema { return s.n.Schema() }

func (s *indexScan) Open() error {
	h, pos, all, exact, err := s.probe()
	if err != nil {
		return err
	}
	skip := -1
	if exact {
		skip = s.n.Probe
	}
	s.cur.open(h, pos, all, s.n.Cond(), skip, s.n.VecFilter(), s.env.Rt)
	return nil
}

func (s *indexScan) node() plan.Node { return s.n }

func (s *indexScan) table() *storage.Table { return s.n.Table }

// probe captures the candidates: the heap with the probed positions, or
// with all set when the probe cannot be answered by the index, or none.
// exact reports that every row of the probed bucket satisfies the probed
// conjunct: the key coerced to the column's kind without changing its
// value under `=`. Bucket members share the coerced key's value.Key,
// hence its value, so the conjunct need not run again. It does run when
// the coercion changed the key — 5 probes a TEXT column as '5', which
// `s = 5` never matches; 5.5 probes an INT column as 5.
func (s *indexScan) probe() (h storage.Heap, pos []int, all, exact bool, err error) {
	tbl := s.n.Table
	if tbl.RowCount() == 0 {
		return h, nil, false, false, nil
	}
	key, err := s.n.KeyProg().Eval(s.env.Rt, nil)
	if err != nil || key.IsNull() {
		// col = NULL is UNKNOWN for every row: nothing can match.
		return h, nil, false, false, err
	}
	cv, err := value.Coerce(key, tbl.Schema.Cols[s.n.Col].Kind)
	if err != nil || key.K == value.Float && math.IsNaN(key.F) {
		// Kinds the probe cannot represent exactly, and NaN, which `=`
		// finds equal to every number: fall back to a full scan; the
		// residual filter keeps the result correct.
		return tbl.Heap(), nil, true, false, nil
	}
	s.env.count().AddIndexProbes(1)
	s.ns.AddProbes(1)
	h, pos, ok := tbl.ProbeHeap(s.n.Index, cv)
	cmp, comparable := value.Compare(key, cv)
	return h, pos, !ok, ok && comparable && cmp == 0, nil
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

// open starts the cursor over h. Conjunct skip (-1: none) is implied by
// the candidates and never runs. A conjunct of vf runs on a vector when
// its bound evaluates to a numeric, non-NULL value; a missing vector is
// built from h at once (storage.Heap.Vector). Should any parameter of
// the filter fail to evaluate, the whole filter runs on rows, in written
// order, so the error surfaces exactly as it always has.
func (c *heapCursor) open(h storage.Heap, pos []int, all bool, cond expr.Conds, skip int, vf *plan.VecFilter, rt *expr.Runtime) {
	*c = heapCursor{heap: h, pos: pos, all: all, rest: cond, polled: c.polled}
	var dropped []bool // conjuncts that do not run on rows
	drop := func(i int) {
		if dropped == nil {
			dropped = make([]bool, len(cond))
		}
		dropped[i] = true
	}
	if skip >= 0 {
		drop(skip)
	}
	if vf != nil && len(h.Rows) > 0 && paramsEval(vf.Params, rt) {
		for _, vc := range vf.Conjs {
			b, err := vc.Bound.Eval(rt, nil)
			if err != nil || b.IsNull() || b.K == value.Text {
				continue // TEXT and NULL bounds stay on the row path
			}
			vec := h.Vector(vc.Col)
			if vec == nil {
				continue
			}
			drop(vc.Index)
			c.vecs = append(c.vecs, vecTest{vec: vec, bound: b.Num(), accept: vc.Accept})
		}
	}
	if dropped == nil {
		return
	}
	c.rest = make(expr.Conds, 0, len(cond))
	for i, p := range cond {
		if !dropped[i] {
			c.rest = append(c.rest, p)
		}
	}
}

// paramsEval reports whether every parameter evaluates.
func paramsEval(params []*expr.Program, rt *expr.Runtime) bool {
	for _, p := range params {
		if _, err := p.Eval(rt, nil); err != nil {
			return false
		}
	}
	return true
}

// next returns the next passing row, nil at exhaustion. The candidates it
// examined are counted once per return rather than once per row.
func (c *heapCursor) next(env *Env) (value.Row, error) {
	p, scanned, err := c.advance(env)
	if scanned > 0 {
		env.count().AddRowsScanned(scanned)
	}
	if p < 0 || err != nil {
		return nil, err
	}
	return c.heap.Rows[p], nil
}

// selection drains the cursor into the positions of the passing
// candidates; a row is fetched only when a conjunct must run on it.
// Without a filter every candidate passes, so the positions take one
// allocation.
func (c *heapCursor) selection(env *Env) ([]int32, error) {
	var sel []int32
	if len(c.vecs) == 0 && len(c.rest) == 0 {
		sel = make([]int32, 0, c.candidates()-c.i)
	}
	var scanned int64
	defer func() { env.count().AddRowsScanned(scanned) }()
	for {
		p, k, err := c.advance(env)
		scanned += k
		if p < 0 || err != nil {
			return sel, err
		}
		sel = append(sel, int32(p))
	}
}

// candidates returns the number of candidates the cursor walks.
func (c *heapCursor) candidates() int {
	if c.all {
		return len(c.heap.Rows)
	}
	return len(c.pos)
}

// advance returns the heap position of the next passing candidate, -1 at
// exhaustion, and the number of candidates it examined.
func (c *heapCursor) advance(env *Env) (pos int, scanned int64, err error) {
	n := c.candidates()
candidates:
	for {
		if err := env.checkStop(&c.polled); err != nil {
			return -1, scanned, err
		}
		if c.i >= n {
			return -1, scanned, nil
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
		if len(c.rest) > 0 {
			keep, err := c.rest.Match(env.Rt, c.heap.Rows[p])
			if err != nil {
				return -1, scanned, err
			}
			if !keep {
				continue
			}
		}
		return p, scanned, nil
	}
}
