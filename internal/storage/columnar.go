package storage

import (
	"repro/internal/metrics"
	"repro/internal/value"
)

// Column vectors: typed, column-major copies of numeric heap columns, the
// input of the scans' vector filters and of the vectorized BMO fill.
// Numeric columns (INT, FLOAT, BOOL, DATE) decompose into a float64
// vector plus a validity bitmap; TEXT columns have no vector.
//
// Each table keeps one cache of them, keyed by (column, heap version):
// a Columnar holds the vectors of one heap version, filled column by
// column as readers ask. A vector is built from exactly the heap a
// reader captured (Heap), so it always describes the rows that reader
// sees; it is published only when no newer version is cached, and a
// newer version replaces the whole cache. Only the columns someone reads
// are built: the first request for a column at a heap version builds
// it, later ones at that version share it.

// ColVec is one numeric column as a typed vector: Nums[i] holds row i's
// value as a float64 (value.Value.Num semantics: INT/BOOL/DATE widen,
// FLOAT passes through) and bit i of Valid marks it non-NULL. Slots of
// NULL rows hold 0 and must be ignored via the bitmap.
type ColVec struct {
	Kind  value.Kind
	Nums  []float64
	Valid []uint64
}

// IsValid reports whether row i is non-NULL.
func (c *ColVec) IsValid(i int) bool {
	return c.Valid[i>>6]&(1<<(uint(i)&63)) != 0
}

// Columnar is the column vectors of one heap version. Cols is parallel
// to the table schema; a nil slot is a TEXT column or one nobody has
// read at this version. A published Columnar is immutable: adding a
// column publishes a copy.
type Columnar struct {
	// Epoch is the tag Table.Columnar was called with (0 for caches the
	// scans filled).
	Epoch uint64
	NRows int
	Cols  []*ColVec

	version uint64
}

// Columnar returns the table's whole column-major image — every numeric
// column of the current heap — tagged with the caller's epoch. A cached
// image with the same tag over the current heap is returned as is; a
// different tag rebuilds every column, so the call measures a cold
// build. It shares the scans' cache and builder.
func (t *Table) Columnar(epoch uint64) *Columnar {
	h := t.Heap()
	if c := t.vecs.Load(); c != nil && c.Epoch == epoch && c.version == h.Version && c.complete(&t.Schema) {
		return c
	}
	n := len(t.Schema.Cols)
	c := &Columnar{Epoch: epoch, NRows: len(h.Rows), Cols: make([]*ColVec, n), version: h.Version}
	for j, col := range t.Schema.Cols {
		c.Cols[j] = buildColVec(h.Rows, j, col.Kind)
	}
	t.cmu.Lock()
	if cur := t.vecs.Load(); cur == nil || cur.version <= h.Version {
		t.vecs.Store(c)
	}
	t.cmu.Unlock()
	return c
}

// complete reports whether every numeric column has its vector.
func (c *Columnar) complete(s *Schema) bool {
	for j, col := range s.Cols {
		if Vectorizable(col.Kind) && c.Cols[j] == nil {
			return false
		}
	}
	return true
}

// Vector returns column col of the heap as a typed vector, building and
// caching it on a miss; nil for a non-numeric column.
func (h Heap) Vector(col int) *ColVec {
	t := h.t
	kind := t.Schema.Cols[col].Kind
	if !Vectorizable(kind) {
		return nil
	}
	if c := t.vecs.Load(); c != nil && c.version == h.Version && c.Cols[col] != nil {
		return c.Cols[col]
	}
	v := buildColVec(h.Rows, col, kind)
	t.cmu.Lock()
	defer t.cmu.Unlock()
	next := t.vecs.Load()
	switch {
	case next != nil && next.version > h.Version:
		return v // a newer version is cached: keep it, serve v privately
	case next != nil && next.version == h.Version:
		cp := *next
		cp.Cols = append([]*ColVec(nil), next.Cols...)
		next = &cp
	default:
		next = &Columnar{NRows: len(h.Rows), Cols: make([]*ColVec, len(t.Schema.Cols)), version: h.Version}
	}
	next.Cols[col] = v
	t.vecs.Store(next)
	return v
}

// Vectorizable reports whether columns of kind k have column vectors.
func Vectorizable(k value.Kind) bool {
	return k == value.Int || k == value.Float || k == value.Bool || k == value.Date
}

// mColumnarRebuilds counts column-vector builds — the write-amplification
// cost of the cache (a hit is free).
var mColumnarRebuilds = metrics.Default.Counter("prefsql_columnar_rebuilds_total",
	"Column-vector builds (a column first read at a new heap version)")

// buildColVec is the one column-vector builder: column col of rows,
// which must be one captured heap. It returns nil for a non-numeric
// column.
func buildColVec(rows []value.Row, col int, kind value.Kind) *ColVec {
	if !Vectorizable(kind) {
		return nil
	}
	mColumnarRebuilds.Inc()
	n := len(rows)
	cv := &ColVec{Kind: kind, Nums: make([]float64, n), Valid: make([]uint64, (n+63)/64)}
	for i, r := range rows {
		v := r[col]
		if v.IsNull() {
			continue
		}
		cv.Nums[i] = v.Num()
		cv.Valid[i>>6] |= 1 << (uint(i) & 63)
	}
	return cv
}
