package storage

import (
	"repro/internal/metrics"
	"repro/internal/value"
)

// Column vectors: typed, column-major copies of heap columns, the input
// of the scans' vector filters and of the vectorized BMO fill. Numeric
// columns (INT, FLOAT, BOOL, DATE) decompose into a float64 vector plus
// a validity bitmap; a TEXT column into a dictionary — its distinct
// strings, each with a uint32 code — plus one code per row and the same
// bitmap (Abadi, Madden, Ferreira: "Integrating Compression and Execution
// in Column-Oriented Database Systems", SIGMOD 2006). Only the BMO fill
// reads TEXT codes, so a TEXT column is coded only when a statement
// scores it.
//
// Each table keeps one cache of them, keyed by (column, heap version):
// a Columnar holds the vectors of one heap version, filled column by
// column as readers ask. A vector is built from exactly the heap a
// reader captured (Heap), so it always describes the rows that reader
// sees; it is published only when no newer version is cached, and a
// newer version replaces the whole cache. Only the columns someone reads
// are built: the first request for a column at a heap version builds
// it, later ones at that version share it.

// ColVec is one column as a typed vector, and bit i of Valid marks row
// i non-NULL. For a numeric column Nums[i] holds row i's value as a
// float64 (value.Value.Num semantics: INT/BOOL/DATE widen, FLOAT passes
// through). For a TEXT column Codes[i] is row i's code in Dict, which
// maps each distinct string to its code (0, 1, ...); Nums is nil. Slots
// of NULL rows hold 0 and must be ignored via the bitmap.
type ColVec struct {
	Kind  value.Kind
	Nums  []float64
	Valid []uint64
	Codes []uint32
	Dict  map[string]uint32
}

// IsValid reports whether row i is non-NULL.
func (c *ColVec) IsValid(i int) bool {
	return c.Valid[i>>6]&(1<<(uint(i)&63)) != 0
}

// Columnar is the column vectors of one heap version. Cols is parallel
// to the table schema; a nil slot is a column nobody has read at this
// version. A published Columnar is immutable: adding a column publishes
// a copy.
type Columnar struct {
	// Epoch is the tag Table.Columnar was called with (0 for caches the
	// scans filled).
	Epoch uint64
	NRows int
	Cols  []*ColVec

	version uint64
}

// Columnar returns the table's whole column-major image — every numeric
// column of the current heap, no TEXT codes — tagged with the caller's
// epoch. A cached image with the same tag over the current heap is
// returned as is; a different tag rebuilds every column, so the call
// measures a cold build. It shares the scans' cache and builder.
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

// Vector returns column col of the heap as a typed vector — numeric, or
// dictionary codes for TEXT — building and caching it on a miss; nil for
// a column of another kind, or a TEXT column holding a non-text value.
func (h Heap) Vector(col int) *ColVec {
	t := h.t
	if c := t.vecs.Load(); c != nil && c.version == h.Version && c.Cols[col] != nil {
		return c.Cols[col]
	}
	var v *ColVec
	if kind := t.Schema.Cols[col].Kind; kind == value.Text {
		v = buildTextVec(h.Rows, col)
	} else {
		v = buildColVec(h.Rows, col, kind)
	}
	if v == nil {
		return nil
	}
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

// Vectorizable reports whether columns of kind k have numeric column
// vectors.
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

// buildTextVec dictionary-codes TEXT column col of rows, which must be
// one captured heap. It returns nil when a non-NULL value is not TEXT,
// which a coerced heap never holds.
func buildTextVec(rows []value.Row, col int) *ColVec {
	mColumnarRebuilds.Inc()
	n := len(rows)
	cv := &ColVec{Kind: value.Text, Valid: make([]uint64, (n+63)/64), Codes: make([]uint32, n),
		Dict: map[string]uint32{}}
	for i, r := range rows {
		v := r[col]
		if v.IsNull() {
			continue
		}
		if v.K != value.Text {
			return nil
		}
		code, ok := cv.Dict[v.S]
		if !ok {
			code = uint32(len(cv.Dict))
			cv.Dict[v.S] = code
		}
		cv.Codes[i] = code
		cv.Valid[i>>6] |= 1 << (uint(i) & 63)
	}
	return cv
}
