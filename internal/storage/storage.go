// Package storage implements the in-memory relational store underneath the
// SQL engine: the catalog of tables and views, typed heap tables with
// NOT NULL / PRIMARY KEY enforcement, hash indexes, and CSV bulk loading.
//
// Every heap mutation bumps the table's heap version. Readers capture a
// Heap — rows and version in one critical section — and ask it for
// column vectors, which the table caches per (column, heap version)
// (see columnar.go).
//
// It plays the role of the "existing SQL database" in the paper's
// architecture (§3.1): the layer the rewritten standard-SQL queries
// ultimately run against.
package storage

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/value"
)

// Column describes one table column.
type Column struct {
	Name       string
	Kind       value.Kind
	NotNull    bool
	PrimaryKey bool
}

// Schema is an ordered list of columns.
type Schema struct {
	Cols []Column
}

// ColIndex returns the position of the named column (case-insensitive),
// or -1 if absent.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// Table is a heap of typed rows plus its secondary indexes.
//
// Concurrency: any number of readers may run concurrently with each
// other and with one writer. Readers obtain a consistent view via
// Snapshot (or the Scan/Probe iterators, which snapshot internally);
// writers mutate copy-on-write under the table lock, so a view taken
// before a write keeps seeing the old heap. Writers themselves must be
// serialized by the caller — Update/Delete evaluate their callbacks on
// a private copy (the callbacks may scan this very table) and publish
// last-writer-wins, which the SQL layers guarantee via the statement
// write lock; direct Table users doing concurrent writes must bring
// their own serialization.
type Table struct {
	Name   string
	Schema Schema

	mu      sync.RWMutex
	rows    []value.Row
	indexes map[string]*Index
	pkCol   int // -1 if no primary key
	// version counts heap mutations: every write that changes rows bumps
	// it under mu, so a (rows, version) pair captured in one critical
	// section names exactly one heap state (see Heap).
	version uint64

	// vecs is the column-vector cache: typed vectors of one heap version,
	// built column by column on demand (see columnar.go). cmu serializes
	// its replacement; readers load it lock-free.
	cmu  sync.Mutex
	vecs atomic.Pointer[Columnar]

	// listeners is the copy-on-write change-listener set (see notify.go):
	// lmu serializes AddListener/remove, notify reads lock-free. Writers
	// invoke listeners only after releasing t.mu.
	lmu       sync.Mutex
	nextLsn   uint64
	listeners atomic.Pointer[[]changeEntry]

	// backend, when non-nil, receives every mutation before it is
	// applied (see backend.go). Set via Catalog.SetBackend; nil for the
	// default in-memory engine.
	backend Backend
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema Schema) *Table {
	pk := -1
	for i, c := range schema.Cols {
		if c.PrimaryKey {
			pk = i
			break
		}
	}
	return &Table{Name: name, Schema: schema, indexes: map[string]*Index{}, pkCol: pk}
}

// RowCount returns the number of rows.
func (t *Table) RowCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Rows exposes the heap as of the call, a copy-on-write snapshot: rows
// appended afterwards are invisible (the slice length is fixed) and
// updates/deletes replace the heap slice wholesale. Callers must not
// mutate the returned slice or its rows.
func (t *Table) Rows() []value.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// normalize coerces a row to the schema kinds and checks constraints.
func (t *Table) normalize(row value.Row) (value.Row, error) {
	if len(row) != len(t.Schema.Cols) {
		return nil, fmt.Errorf("table %s: row has %d values, schema has %d columns",
			t.Name, len(row), len(t.Schema.Cols))
	}
	out := make(value.Row, len(row))
	for i, v := range row {
		c := t.Schema.Cols[i]
		if v.IsNull() {
			if c.NotNull {
				return nil, fmt.Errorf("table %s: column %s is NOT NULL", t.Name, c.Name)
			}
			out[i] = v
			continue
		}
		cv, err := value.Coerce(v, c.Kind)
		if err != nil {
			return nil, fmt.Errorf("table %s, column %s: %v", t.Name, c.Name, err)
		}
		out[i] = cv
	}
	return out, nil
}

// Insert appends a row after type coercion and constraint checks.
func (t *Table) Insert(row value.Row) error {
	norm, err := t.normalize(row)
	if err != nil {
		return err
	}
	if b := t.backend; b != nil {
		// Log-before-apply. The primary-key pre-check runs outside the
		// table lock so the WAL fsync never holds it; writers are
		// serialized above this layer, so the check cannot go stale
		// between here and the locked apply below.
		if t.pkCol >= 0 {
			key := norm[t.pkCol].Key()
			for _, r := range t.Rows() {
				if r[t.pkCol].Key() == key {
					return fmt.Errorf("table %s: duplicate primary key %v", t.Name, norm[t.pkCol])
				}
			}
		}
		if err := b.LogInsert(t.Name, []value.Row{norm}); err != nil {
			return err
		}
	}
	t.mu.Lock()
	if t.pkCol >= 0 {
		key := norm[t.pkCol].Key()
		for _, r := range t.rows {
			if r[t.pkCol].Key() == key {
				t.mu.Unlock()
				return fmt.Errorf("table %s: duplicate primary key %v", t.Name, norm[t.pkCol])
			}
		}
	}
	pos := len(t.rows)
	t.rows = append(t.rows, norm)
	t.version++
	for _, idx := range t.indexes {
		idx.add(norm, pos)
	}
	t.mu.Unlock()
	// Listeners run strictly after the lock is released: they may read
	// this very table (see ChangeListener).
	if t.watched() {
		t.notify(Change{Table: t.Name, Added: []value.Row{norm}})
	}
	return nil
}

// Update applies set to each row matched by match; both callbacks receive
// the row. It returns the number of rows changed. Mutation is
// copy-on-write: the previous heap slice is left untouched so that open
// scan iterators keep a consistent snapshot.
func (t *Table) Update(match func(value.Row) (bool, error), set func(value.Row) (value.Row, error)) (int, error) {
	// Work on a private copy WITHOUT holding the table lock: the match/set
	// callbacks evaluate arbitrary expressions, including subqueries that
	// scan this same table (t.mu.RLock) — holding t.mu here would
	// self-deadlock. Statement-level exclusion (the core layer's write
	// lock) keeps concurrent writers off the table meanwhile.
	t.mu.RLock()
	rows := append([]value.Row(nil), t.rows...)
	t.mu.RUnlock()
	watched := t.watched()
	var added, removed []value.Row
	var pos []int
	var logged []value.Row
	n := 0
	for i, r := range rows {
		ok, err := match(r)
		if err != nil {
			return n, err // error: nothing published, table unchanged
		}
		if !ok {
			continue
		}
		updated, err := set(r.Clone())
		if err != nil {
			return n, err
		}
		norm, err := t.normalize(updated)
		if err != nil {
			return n, err
		}
		if watched {
			removed = append(removed, r)
			added = append(added, norm)
		}
		if t.backend != nil {
			pos = append(pos, i)
			logged = append(logged, norm)
		}
		rows[i] = norm
		n++
	}
	if n > 0 {
		if b := t.backend; b != nil {
			// Log-before-apply: a log failure publishes nothing.
			if err := b.LogUpdate(t.Name, pos, logged); err != nil {
				return 0, err
			}
		}
		t.mu.Lock()
		t.rows = rows
		t.version++
		t.rebuildIndexes()
		t.mu.Unlock()
		if watched {
			t.notify(Change{Table: t.Name, Added: added, Removed: removed})
		}
	}
	return n, nil
}

// Delete removes rows matched by match and returns how many were removed.
// Like Update, it never compacts the old heap slice in place: open scan
// iterators keep seeing their snapshot.
func (t *Table) Delete(match func(value.Row) (bool, error)) (int, error) {
	// Like Update: evaluate match without the table lock (it may scan
	// this table through a subquery) and only publish under it.
	t.mu.RLock()
	old := t.rows
	t.mu.RUnlock()
	watched := t.watched()
	kept := make([]value.Row, 0, len(old))
	var removed []value.Row
	var pos []int // ascending heap positions of the removed rows
	n := 0
	publish := func() error {
		if b := t.backend; b != nil && n > 0 {
			// Log-before-apply: a log failure publishes nothing.
			if err := b.LogDelete(t.Name, pos); err != nil {
				return err
			}
		}
		t.mu.Lock()
		t.rows = kept
		t.version++
		t.rebuildIndexes()
		t.mu.Unlock()
		if watched && len(removed) > 0 {
			t.notify(Change{Table: t.Name, Removed: removed})
		}
		return nil
	}
	for i, r := range old {
		ok, err := match(r)
		if err != nil {
			// keep remaining rows intact on error
			kept = append(kept, old[len(kept)+n:]...)
			if perr := publish(); perr != nil {
				return 0, perr
			}
			return n, err
		}
		if ok {
			if watched {
				removed = append(removed, r)
			}
			pos = append(pos, i)
			n++
			continue
		}
		kept = append(kept, r)
	}
	if n > 0 {
		if err := publish(); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// Truncate removes all rows. With a durability backend attached it can
// fail (the truncate record must reach the log first); in-memory tables
// always succeed.
func (t *Table) Truncate() error {
	if b := t.backend; b != nil {
		if err := b.LogTruncate(t.Name); err != nil {
			return err
		}
	}
	watched := t.watched()
	t.mu.Lock()
	old := t.rows
	t.rows = nil
	t.version++
	t.rebuildIndexes()
	t.mu.Unlock()
	if watched && len(old) > 0 {
		t.notify(Change{Table: t.Name, Removed: old})
	}
	return nil
}

func (t *Table) rebuildIndexes() {
	for _, idx := range t.indexes {
		idx.rebuild(t.rows)
	}
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

// Snapshot is an explicit consistent read view of a table: the heap
// slice and each index's bucket map as of one instant. Writers never
// invalidate either: inserts only append (to the heap and to the
// current bucket maps — positions beyond the snapshot's length are
// filtered out on probe), and updates/deletes swap in a fresh heap
// slice and fresh bucket maps, so the captured ones freeze exactly as
// they were. A Snapshot therefore keeps returning precisely the rows it
// was created over for as long as the caller holds it, regardless of
// concurrent writes.
//
// Heap and ProbeHeap on the Table itself capture the same copy-on-write
// view per call (one iteration each); Snapshot is the long-lived form
// for holders that must scan and probe the same instant repeatedly
// while writes proceed — TestSnapshotProbeAfterRebuild pins exactly
// that guarantee.
type Snapshot struct {
	Schema  Schema
	heap    Heap
	indexes map[string]snapIndex
}

// snapIndex pairs an index with the bucket map it had at capture time
// (the Index object itself keeps mutating with the live table).
type snapIndex struct {
	ix      *Index
	buckets map[string][]int
}

// Snapshot captures the table's current heap and index state.
func (t *Table) Snapshot() *Snapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx := make(map[string]snapIndex, len(t.indexes))
	for k, ix := range t.indexes {
		ix.mu.RLock()
		idx[k] = snapIndex{ix: ix, buckets: ix.buckets}
		ix.mu.RUnlock()
	}
	return &Snapshot{Schema: t.Schema, heap: t.heapLocked(), indexes: idx}
}

// Rows returns the snapshot's heap rows. Callers must not mutate them.
func (s *Snapshot) Rows() []value.Row { return s.heap.Rows }

// Len returns the number of rows in the snapshot.
func (s *Snapshot) Len() int { return len(s.heap.Rows) }

// Scan iterates the snapshot's rows in insertion order.
func (s *Snapshot) Scan() RowIter { return &heapIter{rows: s.heap.Rows} }

// Probe iterates the snapshot rows whose leading column of ix equals v.
// The probe resolves ix by name against the snapshot's captured bucket
// maps (the caller may hold an Index pointer from an older or newer
// plan) and filters out positions appended after the snapshot was
// taken. An index the snapshot doesn't know — created after the capture
// or since dropped — degrades to a full snapshot scan: the planner
// keeps the probed equality in the residual filter, so a probe may
// over-approximate but must never miss a matching row.
func (s *Snapshot) Probe(ix *Index, v value.Value) RowIter {
	rows := s.heap.Rows
	si, ok := s.indexes[strings.ToLower(ix.Name)]
	if !ok || !sameLeadingColumn(si.ix, ix) {
		return &heapIter{rows: rows}
	}
	// The captured map only ever grows (inserts append under the index
	// lock; rebuilds target a fresh map), so reading it needs the same
	// lock inserts hold.
	si.ix.mu.RLock()
	pos := si.buckets[singleKey(v)]
	si.ix.mu.RUnlock()
	// Positions beyond the snapshot heap belong to rows inserted later.
	n := 0
	for _, p := range pos {
		if p < len(rows) {
			n++
		}
	}
	if n < len(pos) {
		kept := make([]int, 0, n)
		for _, p := range pos {
			if p < len(rows) {
				kept = append(kept, p)
			}
		}
		pos = kept
	}
	return &posIter{rows: rows, pos: pos}
}

// ---------------------------------------------------------------------------
// Indexes
// ---------------------------------------------------------------------------

// Index is a hash index over one or more columns, mapping key → row
// positions in the heap. Bucket access is guarded by the index's own
// lock: inserts append to buckets in place, updates/deletes swap in a
// freshly built bucket map. Probes that must stay consistent with a
// specific heap version go through Snapshot.Probe, which pairs the
// lookup with the heap captured in the same instant.
type Index struct {
	Name    string
	Columns []int // positions in the schema

	mu      sync.RWMutex
	buckets map[string][]int
}

// CreateIndex builds a hash index over the named columns.
func (t *Table) CreateIndex(name string, cols []string) (*Index, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, exists := t.indexes[strings.ToLower(name)]; exists {
		return nil, fmt.Errorf("index %s already exists", name)
	}
	positions := make([]int, len(cols))
	for i, c := range cols {
		pos := t.Schema.ColIndex(c)
		if pos < 0 {
			return nil, fmt.Errorf("table %s: no column %s", t.Name, c)
		}
		positions[i] = pos
	}
	if b := t.backend; b != nil {
		// DDL is rare enough that logging under the table lock is fine.
		if err := b.LogCreateIndex(t.Name, name, cols); err != nil {
			return nil, err
		}
	}
	idx := &Index{Name: name, Columns: positions}
	idx.rebuild(t.rows)
	// Publish into a fresh map so snapshots keep their captured index set.
	next := make(map[string]*Index, len(t.indexes)+1)
	for k, v := range t.indexes {
		next[k] = v
	}
	next[strings.ToLower(name)] = idx
	t.indexes = next
	return idx, nil
}

// DropIndex removes the named index; it reports whether it existed.
func (t *Table) DropIndex(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := t.indexes[key]; !ok {
		return false
	}
	if b := t.backend; b != nil {
		if err := b.LogDropIndex(t.Name, name); err != nil {
			return false
		}
	}
	next := make(map[string]*Index, len(t.indexes))
	for k, v := range t.indexes {
		if k != key {
			next[k] = v
		}
	}
	t.indexes = next
	return true
}

// IndexOn returns an index whose leading column is col, if any. A
// single-column index is preferred over a composite one, because only
// single-column indexes can answer equality probes (see Lookup).
func (t *Table) IndexOn(col int) *Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var multi *Index
	for _, idx := range t.indexes {
		if len(idx.Columns) > 0 && idx.Columns[0] == col {
			if len(idx.Columns) == 1 {
				return idx
			}
			multi = idx
		}
	}
	return multi
}

// IndexNames lists index names sorted for deterministic output.
func (t *Table) IndexNames() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.indexes))
	for _, idx := range t.indexes {
		out = append(out, idx.Name)
	}
	sort.Strings(out)
	return out
}

// key builds the bucket key for a row. Each per-column key is length-
// prefixed so that column values containing any separator byte cannot
// make two distinct column tuples collide (e.g. ("a\x1e..b","c") vs
// ("a","b\x1e..c") under the old fixed-separator scheme).
func (ix *Index) key(row value.Row) string {
	var b strings.Builder
	for _, c := range ix.Columns {
		k := row[c].Key()
		b.WriteString(strconv.Itoa(len(k)))
		b.WriteByte(':')
		b.WriteString(k)
	}
	return b.String()
}

// singleKey is key for a one-column probe value.
func singleKey(v value.Value) string {
	k := v.Key()
	return strconv.Itoa(len(k)) + ":" + k
}

func (ix *Index) add(row value.Row, pos int) {
	k := ix.key(row)
	ix.mu.Lock()
	ix.buckets[k] = append(ix.buckets[k], pos)
	ix.mu.Unlock()
}

// rebuild derives the buckets from scratch and swaps them in atomically
// under the index lock, so concurrent Lookups see either the old or the
// new bucket map, never a partially built one.
func (ix *Index) rebuild(rows []value.Row) {
	next := map[string][]int{}
	for i, r := range rows {
		k := ix.key(r)
		next[k] = append(next[k], i)
	}
	ix.mu.Lock()
	ix.buckets = next
	ix.mu.Unlock()
}

// Lookup returns the heap positions of rows whose leading index column
// equals v. It only supports single-column probes (leading column). The
// returned slice only ever grows in place (inserts append), so callers
// may iterate it up to its returned length without further locking.
func (ix *Index) Lookup(v value.Value) []int {
	if len(ix.Columns) != 1 {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.buckets[singleKey(v)]
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

// Catalog holds all tables and views of one database. It is safe for
// concurrent use.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	views   map[string]*ast.Select
	backend Backend // nil for the in-memory engine; see SetBackend
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: map[string]*Table{}, views: map[string]*ast.Select{}}
}

// CreateTable registers a new table.
func (c *Catalog) CreateTable(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(t.Name)
	if _, ok := c.tables[key]; ok {
		return fmt.Errorf("table %s already exists", t.Name)
	}
	if _, ok := c.views[key]; ok {
		return fmt.Errorf("view %s already exists", t.Name)
	}
	if c.backend != nil {
		if err := c.backend.LogCreateTable(t.Name, t.Schema); err != nil {
			return err
		}
	}
	t.backend = c.backend
	c.tables[key] = t
	return nil
}

// Table looks up a table by name (case-insensitive).
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	return t, ok
}

// DropTable removes a table; it reports whether it existed.
func (c *Catalog) DropTable(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; !ok {
		return false
	}
	if c.backend != nil {
		if err := c.backend.LogDropTable(name); err != nil {
			return false
		}
	}
	delete(c.tables, key)
	return true
}

// CreateView registers a named view definition.
func (c *Catalog) CreateView(name string, sel *ast.Select) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.views[key]; ok {
		return fmt.Errorf("view %s already exists", name)
	}
	if _, ok := c.tables[key]; ok {
		return fmt.Errorf("table %s already exists", name)
	}
	if c.backend != nil {
		// Views persist as their SQL text and are re-parsed on recovery.
		if err := c.backend.LogCreateView(name, sel.SQL()); err != nil {
			return err
		}
	}
	c.views[key] = sel
	return nil
}

// View looks up a view definition.
func (c *Catalog) View(name string) (*ast.Select, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[strings.ToLower(name)]
	return v, ok
}

// DropView removes a view; it reports whether it existed.
func (c *Catalog) DropView(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.views[key]; !ok {
		return false
	}
	if c.backend != nil {
		if err := c.backend.LogDropView(name); err != nil {
			return false
		}
	}
	delete(c.views, key)
	return true
}

// TableNames lists all table names, sorted.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// ViewNames lists all view names, sorted.
func (c *Catalog) ViewNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.views))
	for name := range c.views {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// CSV bulk load
// ---------------------------------------------------------------------------

// LoadCSV bulk-loads CSV data (no header row) into the table, parsing each
// field according to the schema. Empty fields load as NULL for nullable
// columns. It returns the number of rows loaded.
func (t *Table) LoadCSV(r io.Reader) (int, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(t.Schema.Cols)
	n := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		row := make(value.Row, len(rec))
		for i, field := range rec {
			v, err := ParseField(field, t.Schema.Cols[i].Kind)
			if err != nil {
				return n, fmt.Errorf("row %d, column %s: %v", n+1, t.Schema.Cols[i].Name, err)
			}
			row[i] = v
		}
		if err := t.Insert(row); err != nil {
			return n, err
		}
		n++
	}
}

// ParseField converts one textual field to a value of the given kind.
// Empty text becomes NULL (except for Text columns, which keep "").
func ParseField(field string, kind value.Kind) (value.Value, error) {
	if field == "" && kind != value.Text {
		return value.NewNull(), nil
	}
	switch kind {
	case value.Int:
		i, err := strconv.ParseInt(strings.TrimSpace(field), 10, 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("invalid integer %q", field)
		}
		return value.NewInt(i), nil
	case value.Float:
		f, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("invalid float %q", field)
		}
		return value.NewFloat(f), nil
	case value.Bool:
		switch strings.ToLower(strings.TrimSpace(field)) {
		case "true", "t", "yes", "y", "1":
			return value.NewBool(true), nil
		case "false", "f", "no", "n", "0":
			return value.NewBool(false), nil
		}
		return value.Value{}, fmt.Errorf("invalid boolean %q", field)
	case value.Date:
		return value.ParseDate(strings.TrimSpace(field))
	default:
		return value.NewText(field), nil
	}
}
