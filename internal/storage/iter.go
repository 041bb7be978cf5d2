package storage

import (
	"strings"

	"repro/internal/value"
)

// RowIter is a pull-based iterator over stored rows: the scan interface the
// execution layer consumes instead of raw row slices, so that operators can
// stop pulling early (LIMIT, EXISTS probes) without the table having been
// copied out first.
type RowIter interface {
	// Next returns the next row, or ok=false once the scan is exhausted.
	// Callers must not mutate the returned row.
	Next() (value.Row, bool)
}

// heapIter walks the heap in insertion order.
type heapIter struct {
	rows []value.Row
	i    int
}

func (it *heapIter) Next() (value.Row, bool) {
	if it.i >= len(it.rows) {
		return nil, false
	}
	r := it.rows[it.i]
	it.i++
	return r, true
}

// Heap is a table's heap as of one instant: the copy-on-write row slice
// and the heap version it belongs to, captured in one critical section.
// Writers never change a captured slice (inserts append past its length;
// updates, deletes and truncation publish a fresh one), so a Heap keeps
// naming exactly the rows it was captured over, and its version keys the
// column vectors built from them (see columnar.go).
type Heap struct {
	Rows    []value.Row
	Version uint64
	t       *Table
}

// Heap captures the table's current heap.
func (t *Table) Heap() Heap {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.heapLocked()
}

// heapLocked is Heap for callers holding t.mu.
func (t *Table) heapLocked() Heap { return Heap{Rows: t.rows, Version: t.version, t: t} }

// posIter resolves heap positions lazily.
type posIter struct {
	rows []value.Row
	pos  []int
	i    int
}

func (it *posIter) Next() (value.Row, bool) {
	if it.i >= len(it.pos) {
		return nil, false
	}
	r := it.rows[it.pos[it.i]]
	it.i++
	return r, true
}

// ProbeHeap is the index-scan access path: it captures the heap and the
// positions of the rows whose leading column of ix equals v, in heap
// order, in one critical section (writers are excluded), so the
// positions always index that heap. Only the probed index is touched,
// unlike a full Snapshot. ix is resolved by name against the table's
// current index set; ok=false reports that the probe degraded — the
// index was dropped, or the caller's plan predates a re-create over
// another column — and the caller must scan the whole heap, which the
// residual filter corrects, rather than index a compacted heap out of
// range or drop matching rows.
func (t *Table) ProbeHeap(ix *Index, v value.Value) (h Heap, pos []int, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	h = t.heapLocked()
	own, found := t.indexes[strings.ToLower(ix.Name)]
	if !found || !sameLeadingColumn(own, ix) {
		return h, nil, false
	}
	return h, own.Lookup(v), true
}

// sameLeadingColumn reports whether a probe planned against want can be
// answered by have: both single-column over the same schema position.
func sameLeadingColumn(have, want *Index) bool {
	return len(have.Columns) == 1 && len(want.Columns) == 1 && have.Columns[0] == want.Columns[0]
}
