package storage

import (
	"fmt"
	"sort"

	"repro/internal/value"
)

// Backend is the durability seam: a sink for logical mutations that
// must be made persistent before they are applied to the in-memory
// heap. The in-memory engine runs with a nil backend (no logging); the
// disk backend (internal/storage/disk) appends each mutation to a
// write-ahead log and returns only once the record is durable (its
// group-commit fsync completed), giving log-before-apply ordering: a
// mutation visible to readers is always recoverable.
//
// DML records are positional — Update and Delete name heap positions in
// the table's current row slice. That is deterministic because writers
// are serialized (the core layer's statement write lock) and the Table
// mutation methods keep positions stable: Insert appends, Update
// replaces in place, Delete compacts in order. Replay of the same
// record sequence over the same starting heap reproduces the same heap.
type Backend interface {
	LogInsert(table string, rows []value.Row) error
	LogUpdate(table string, pos []int, rows []value.Row) error
	LogDelete(table string, pos []int) error
	LogTruncate(table string) error
	LogCreateTable(name string, schema Schema) error
	LogDropTable(name string) error
	LogCreateIndex(table, index string, cols []string) error
	LogDropIndex(table, index string) error
	LogCreateView(name, sql string) error
	LogDropView(name string) error
}

// SetBackend attaches a durability backend to the catalog and every
// table currently in it; tables created afterwards inherit it. Call it
// once, after recovery replay has rebuilt the in-memory state — replay
// runs against backend-less tables precisely so it does not re-log the
// records it is applying.
func (c *Catalog) SetBackend(b Backend) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.backend = b
	for _, t := range c.tables {
		t.backend = b
	}
}

// IndexDef names an index and its columns (schema-resolved to names so
// it can be persisted and replayed through CreateIndex).
type IndexDef struct {
	Name    string
	Columns []string
}

// IndexDefs returns the table's index definitions sorted by name, for
// deterministic checkpoint manifests.
func (t *Table) IndexDefs() []IndexDef {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]IndexDef, 0, len(t.indexes))
	for _, ix := range t.indexes {
		cols := make([]string, len(ix.Columns))
		for i, p := range ix.Columns {
			cols[i] = t.Schema.Cols[p].Name
		}
		out = append(out, IndexDef{Name: ix.Name, Columns: cols})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// InsertBatch appends a batch of rows with one backend record (one
// group-commit fsync) instead of one per row — the bulk-load path.
// Constraint checks cover the batch as a whole: a duplicate primary key
// anywhere in it fails the entire batch before anything is logged or
// applied.
func (t *Table) InsertBatch(rows []value.Row) error {
	if len(rows) == 0 {
		return nil
	}
	norms := make([]value.Row, len(rows))
	for i, r := range rows {
		norm, err := t.normalize(r)
		if err != nil {
			return err
		}
		norms[i] = norm
	}
	if t.pkCol >= 0 {
		t.mu.RLock()
		keys := make(map[string]bool, len(t.rows)+len(norms))
		for _, r := range t.rows {
			keys[r[t.pkCol].Key()] = true
		}
		t.mu.RUnlock()
		for _, r := range norms {
			k := r[t.pkCol].Key()
			if keys[k] {
				return fmt.Errorf("table %s: duplicate primary key %v", t.Name, r[t.pkCol])
			}
			keys[k] = true
		}
	}
	if b := t.backend; b != nil {
		if err := b.LogInsert(t.Name, norms); err != nil {
			return err
		}
	}
	t.mu.Lock()
	base := len(t.rows)
	t.rows = append(t.rows, norms...)
	t.version++
	for _, idx := range t.indexes {
		for i, r := range norms {
			idx.add(r, base+i)
		}
	}
	t.mu.Unlock()
	if t.watched() {
		t.notify(Change{Table: t.Name, Added: norms})
	}
	return nil
}

// ---------------------------------------------------------------------------
// Replay application
//
// The Apply* methods re-apply logged mutations during recovery. They
// bypass normalization, constraint checks, backend logging and change
// notification: the rows come out of the WAL already normalized and
// validated, the backend must not re-log its own replay, and no
// listeners exist before recovery completes. They also skip index
// maintenance and copy-on-write — replay is single-threaded with no
// readers, and re-deriving indexes per record would make recovery
// O(records × rows) — so the recovering backend MUST call Reindex once
// after the last record is applied. Only a row's width is re-checked:
// a damaged record must fail recovery, not the index rebuild after it.
// ---------------------------------------------------------------------------

// ApplyInsert appends rows replayed from the log.
func (t *Table) ApplyInsert(rows []value.Row) error {
	if err := t.checkWidths(rows); err != nil {
		return err
	}
	t.mu.Lock()
	t.rows = append(t.rows, rows...)
	t.version++
	t.mu.Unlock()
	return nil
}

// checkWidths rejects replayed rows whose width is not the schema's.
func (t *Table) checkWidths(rows []value.Row) error {
	for _, r := range rows {
		if len(r) != len(t.Schema.Cols) {
			return fmt.Errorf("table %s: replayed row has %d values, schema has %d columns", t.Name, len(r), len(t.Schema.Cols))
		}
	}
	return nil
}

// ApplyUpdate replaces the rows at the logged positions, in place.
func (t *Table) ApplyUpdate(pos []int, rows []value.Row) error {
	if len(pos) != len(rows) {
		return fmt.Errorf("table %s: update replay has %d positions, %d rows", t.Name, len(pos), len(rows))
	}
	if err := t.checkWidths(rows); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.version++
	for i, p := range pos {
		if p < 0 || p >= len(t.rows) {
			return fmt.Errorf("table %s: update replay position %d out of range (%d rows)", t.Name, p, len(t.rows))
		}
		t.rows[p] = rows[i]
	}
	return nil
}

// ApplyDelete removes the rows at the logged positions (which are in
// ascending order, as Delete records them).
func (t *Table) ApplyDelete(pos []int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	drop := make(map[int]bool, len(pos))
	for _, p := range pos {
		if p < 0 || p >= len(t.rows) {
			return fmt.Errorf("table %s: delete replay position %d out of range (%d rows)", t.Name, p, len(t.rows))
		}
		drop[p] = true
	}
	kept := make([]value.Row, 0, len(t.rows)-len(drop))
	for i, r := range t.rows {
		if !drop[i] {
			kept = append(kept, r)
		}
	}
	t.rows = kept
	t.version++
	return nil
}

// ApplyTruncate clears the table during replay.
func (t *Table) ApplyTruncate() {
	t.mu.Lock()
	t.rows = nil
	t.version++
	t.mu.Unlock()
}

// Reindex rebuilds every index from the current rows. The recovering
// backend calls it once per table after replay, closing the books on
// the index maintenance the Apply* methods deferred.
func (t *Table) Reindex() {
	t.mu.Lock()
	t.rebuildIndexes()
	t.mu.Unlock()
}
