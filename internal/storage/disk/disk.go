// Package disk is the durable storage backend: it implements
// storage.Backend over a write-ahead log (internal/storage/wal).
//
// The design is a checkpoint-plus-log scheme. The in-memory catalog
// remains the evaluation heap — every query keeps running against the
// copy-on-write tables exactly as in the default engine. Durability
// comes from two files per generation in the data directory, both
// sequences of the same CRC-framed records (see codec.go):
//
//   - image.<gen>.log — the catalog as of checkpoint generation <gen>:
//     per table a create-table record, its create-index records and
//     insert records of about 1 MiB each in heap order; then one
//     create-view record per view.
//   - wal.<gen>.log — the write-ahead log of every logical mutation
//     since that checkpoint. DML records are positional (see
//     storage.Backend); DDL records carry schemas, index column lists
//     and view SQL.
//
// MANIFEST (JSON, {"gen": N}) names the current generation. A
// checkpoint writes and fsyncs the next generation's image and a fresh
// empty WAL, then atomically swaps MANIFEST (tmp + rename + directory
// fsync) and deletes the old generation; a crash anywhere in between
// recovers from whichever generation MANIFEST still names, and Open
// removes orphaned files from unfinished checkpoints.
//
// Recovery (Open) replays the image and then the WAL tail through one
// function, applyRecord, which drives the storage.Apply* methods
// (bypassing re-logging), and only then attaches the backend to the
// catalog.
package disk

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/parser"
	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/value"
)

var (
	mRecoveries = metrics.Default.Counter("prefsql_disk_recoveries_total",
		"Data-directory opens that ran crash recovery (manifest load + WAL replay).")
	mRecoveredRows = metrics.Default.Counter("prefsql_disk_recovered_rows_total",
		"Rows restored from checkpoint images during recovery.")
	mReplayedRecords = metrics.Default.Counter("prefsql_disk_wal_records_replayed_total",
		"WAL records replayed during recovery.")
	mTornBytes = metrics.Default.Counter("prefsql_disk_wal_torn_bytes_total",
		"Torn-tail bytes truncated from the WAL during recovery.")
	mCheckpoints = metrics.Default.Counter("prefsql_disk_checkpoints_total",
		"Checkpoints completed (image + manifest swap).")
	mWalRecords = metrics.Default.Counter("prefsql_disk_wal_records_total",
		"Mutation records appended to the write-ahead log.")
)

const manifestName = "MANIFEST"

// Options configure Open.
type Options struct {
	// Sync selects WAL durability (default SyncAlways).
	Sync wal.SyncMode
}

// RecoveryStats reports what Open had to do to restore the database.
type RecoveryStats struct {
	Gen        uint64        // checkpoint generation recovered from
	Tables     int           // tables restored from the image
	HeapRows   int           // rows restored from the image
	WalRecords int           // WAL records replayed on top
	WalBytes   int64         // valid WAL bytes scanned
	TornBytes  int64         // torn-tail bytes truncated from the WAL
	Elapsed    time.Duration // wall time of the whole recovery
}

// manifest is the on-disk commit point: the generation whose image and
// WAL hold the database.
type manifest struct {
	Gen uint64 `json:"gen"`
}

// imageChunk is the payload size at which the image writer cuts a
// table's rows into the next insert record.
const imageChunk = 1 << 20

// DB is one open durable database. It implements storage.Backend.
type DB struct {
	dir  string
	cat  *storage.Catalog
	mode wal.SyncMode

	// mu guards the generation swap: Log* hold it shared while
	// appending to the current WAL, Checkpoint holds it exclusively
	// while retiring the log. Under the engine's statement write lock
	// there is no actual contention; the lock makes the backend safe
	// for direct (non-SQL) use too.
	mu  sync.RWMutex
	wal *wal.Log
	gen uint64

	closed bool
}

func walName(gen uint64) string   { return fmt.Sprintf("wal.%d.log", gen) }
func imageName(gen uint64) string { return fmt.Sprintf("image.%d.log", gen) }

// Open opens (creating if needed) the durable database in dir, running
// crash recovery: manifest load, image replay, WAL tail replay with
// torn-tail truncation. The returned catalog is fully restored and
// logging — hand it to engine.NewOn.
func Open(dir string, opts Options) (*DB, RecoveryStats, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, RecoveryStats{}, err
	}
	d := &DB{dir: dir, cat: storage.NewCatalog(), mode: opts.Sync}
	var stats RecoveryStats

	m, err := readManifest(dir)
	if errors.Is(err, os.ErrNotExist) {
		// Fresh database: an empty generation-1 image, then the
		// manifest naming it, so every manifest names a written image.
		m = &manifest{Gen: 1}
		if err := d.writeImage(m.Gen); err != nil {
			return nil, stats, err
		}
		if err := writeManifest(dir, m); err != nil {
			return nil, stats, err
		}
	} else if err != nil {
		return nil, stats, err
	}
	d.gen = m.Gen
	stats.Gen = m.Gen

	// The image was fsynced before MANIFEST named it, so a missing or
	// torn image is damage, not an interrupted write: refuse it.
	image := filepath.Join(dir, imageName(m.Gen))
	if _, err := os.Stat(image); err != nil {
		return nil, stats, fmt.Errorf("disk: %s names generation %d: %w", manifestName, m.Gen, err)
	}
	res, err := wal.Replay(image, d.applyRecord)
	if err != nil {
		return nil, stats, fmt.Errorf("disk: %s: %w", image, err)
	}
	if res.Truncated != 0 {
		return nil, stats, fmt.Errorf("disk: %s: torn image (%d trailing bytes)", image, res.Truncated)
	}
	for _, name := range d.cat.TableNames() {
		if tbl, ok := d.cat.Table(name); ok {
			stats.Tables++
			stats.HeapRows += tbl.RowCount()
		}
	}

	// Replay the WAL tail over the image. The catalog has no backend
	// attached yet, so replay does not re-log.
	walPath := filepath.Join(dir, walName(m.Gen))
	log, res, err := wal.OpenReplay(walPath, opts.Sync, d.applyRecord)
	if err != nil {
		return nil, stats, fmt.Errorf("disk: %s: %w", walPath, err)
	}
	d.wal = log
	stats.WalRecords = res.Records
	stats.WalBytes = res.Bytes
	stats.TornBytes = res.Truncated

	// Remove orphans from an unfinished checkpoint (files of any other
	// generation) — they were never reachable from MANIFEST.
	if err := d.removeOtherGenerations(m.Gen); err != nil {
		d.wal.Close()
		return nil, stats, err
	}

	// The Apply* replay methods defer index maintenance (a per-record
	// rebuild would make recovery quadratic); settle every table's
	// indexes in one pass now that the last record is in.
	for _, name := range d.cat.TableNames() {
		if tbl, ok := d.cat.Table(name); ok {
			tbl.Reindex()
		}
	}

	d.cat.SetBackend(d)
	stats.Elapsed = time.Since(start)
	mRecoveries.Inc()
	mRecoveredRows.Add(int64(stats.HeapRows))
	mReplayedRecords.Add(int64(stats.WalRecords))
	mTornBytes.Add(stats.TornBytes)
	return d, stats, nil
}

// Catalog returns the recovered, logging catalog.
func (d *DB) Catalog() *storage.Catalog { return d.cat }

// Dir returns the data directory.
func (d *DB) Dir() string { return d.dir }

// SyncMode returns the WAL durability mode.
func (d *DB) SyncMode() wal.SyncMode { return d.mode }

// Generation returns the current checkpoint generation.
func (d *DB) Generation() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.gen
}

// WalStats returns the current WAL's group-commit counters.
func (d *DB) WalStats() wal.Stats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.wal.Stats()
}

// PoolStats reports zero hits and misses: there is no buffer pool. It
// is kept only because the repository benchmark (benchmark/churn.go)
// still reads it.
func (d *DB) PoolStats() struct{ Hits, Misses uint64 } {
	return struct{ Hits, Misses uint64 }{}
}

// applyRecord replays one image or WAL record against the
// (backend-less) catalog.
func (d *DB) applyRecord(payload []byte) error {
	dec := &decoder{b: payload}
	op, err := dec.byte()
	if err != nil {
		return err
	}
	// Every op starts with a name (table for DML/table DDL, view name
	// for view DDL).
	name, err := dec.string()
	if err != nil {
		return err
	}
	table := func() (*storage.Table, error) {
		t, ok := d.cat.Table(name)
		if !ok {
			return nil, fmt.Errorf("disk: replay: no such table %q", name)
		}
		return t, nil
	}
	switch op {
	case opInsert:
		rows, err := dec.rows()
		if err != nil {
			return err
		}
		t, err := table()
		if err != nil {
			return err
		}
		return t.ApplyInsert(rows)
	case opUpdate:
		pos, err := dec.positions()
		if err != nil {
			return err
		}
		rows, err := dec.rows()
		if err != nil {
			return err
		}
		t, err := table()
		if err != nil {
			return err
		}
		return t.ApplyUpdate(pos, rows)
	case opDelete:
		pos, err := dec.positions()
		if err != nil {
			return err
		}
		t, err := table()
		if err != nil {
			return err
		}
		return t.ApplyDelete(pos)
	case opTruncate:
		t, err := table()
		if err != nil {
			return err
		}
		t.ApplyTruncate()
	case opCreateTable:
		schema, err := dec.schema()
		if err != nil {
			return err
		}
		return d.cat.CreateTable(storage.NewTable(name, schema))
	case opDropTable:
		d.cat.DropTable(name)
	case opCreateIndex:
		index, err := dec.string()
		if err != nil {
			return err
		}
		cols, err := dec.strings()
		if err != nil {
			return err
		}
		t, err := table()
		if err != nil {
			return err
		}
		_, err = t.CreateIndex(index, cols)
		return err
	case opDropIndex:
		index, err := dec.string()
		if err != nil {
			return err
		}
		t, err := table()
		if err != nil {
			return err
		}
		t.DropIndex(index)
	case opCreateView:
		sql, err := dec.string()
		if err != nil {
			return err
		}
		sel, err := parser.ParseSelect(sql)
		if err != nil {
			return fmt.Errorf("disk: replay: view %s: %w", name, err)
		}
		return d.cat.CreateView(name, sel)
	case opDropView:
		d.cat.DropView(name)
	default:
		return fmt.Errorf("disk: replay: unknown op %d", op)
	}
	return nil
}

// append frames and commits one record; it returns after the record's
// group fsync under SyncAlways.
func (d *DB) append(payload []byte) error {
	d.mu.RLock()
	log := d.wal
	closed := d.closed
	d.mu.RUnlock()
	if closed {
		return wal.ErrClosed
	}
	if err := log.Append(payload); err != nil {
		return err
	}
	mWalRecords.Inc()
	return nil
}

// storage.Backend implementation — every method encodes one logical
// record and blocks until it is durable.

func (d *DB) LogInsert(table string, rows []value.Row) error {
	return d.append(recInsert(table, rows))
}

func (d *DB) LogUpdate(table string, pos []int, rows []value.Row) error {
	return d.append(recUpdate(table, pos, rows))
}

func (d *DB) LogDelete(table string, pos []int) error {
	return d.append(recDelete(table, pos))
}

func (d *DB) LogTruncate(table string) error { return d.append(recTruncate(table)) }

func (d *DB) LogCreateTable(name string, schema storage.Schema) error {
	return d.append(recCreateTable(name, schema))
}

func (d *DB) LogDropTable(name string) error { return d.append(recDropTable(name)) }

func (d *DB) LogCreateIndex(table, index string, cols []string) error {
	return d.append(recCreateIndex(table, index, cols))
}

func (d *DB) LogDropIndex(table, index string) error {
	return d.append(recDropIndex(table, index))
}

func (d *DB) LogCreateView(name, sql string) error { return d.append(recCreateView(name, sql)) }

func (d *DB) LogDropView(name string) error { return d.append(recDropView(name)) }

// Checkpoint writes the next generation — the catalog's image and a
// fresh empty WAL — swaps MANIFEST atomically, then deletes the
// previous generation. The caller must hold off all writers for the
// duration (core.DB.Checkpoint runs it under the statement write lock).
func (d *DB) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return wal.ErrClosed
	}
	newGen := d.gen + 1
	if err := d.writeImage(newGen); err != nil {
		return err
	}
	// The new WAL must exist before MANIFEST names its generation.
	newWal, _, err := wal.Open(filepath.Join(d.dir, walName(newGen)), d.mode)
	if err != nil {
		return err
	}
	if err := writeManifest(d.dir, &manifest{Gen: newGen}); err != nil {
		newWal.Close()
		return err
	}
	// MANIFEST now names newGen: the swap is committed. Retire the old
	// generation; failures past this point leave only orphans, which
	// the next Open cleans up.
	oldWal := d.wal
	d.wal, d.gen = newWal, newGen
	oldWal.Close()
	if err := d.removeOtherGenerations(newGen); err != nil {
		return err
	}
	mCheckpoints.Inc()
	return nil
}

// writeImage writes generation gen's image — the catalog as records
// applyRecord restores — replacing whatever a failed checkpoint left
// under that name, and fsyncs it.
func (d *DB) writeImage(gen uint64) (err error) {
	path := filepath.Join(d.dir, imageName(gen))
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	img, _, err := wal.Open(path, wal.SyncOff)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := img.Close(); err == nil {
			err = cerr
		}
	}()
	for _, name := range d.cat.TableNames() {
		tbl, ok := d.cat.Table(name)
		if !ok {
			continue
		}
		if err := img.Append(recCreateTable(tbl.Name, tbl.Schema)); err != nil {
			return err
		}
		for _, ix := range tbl.IndexDefs() {
			if err := img.Append(recCreateIndex(tbl.Name, ix.Name, ix.Columns)); err != nil {
				return err
			}
		}
		rows := tbl.Rows()
		for lo := 0; lo < len(rows); {
			hi, size := lo, 0
			for hi < len(rows) && size < imageChunk {
				size += rowSizeHint(rows[hi])
				hi++
			}
			if err := img.Append(recInsert(tbl.Name, rows[lo:hi])); err != nil {
				return err
			}
			lo = hi
		}
	}
	for _, name := range d.cat.ViewNames() {
		if sel, ok := d.cat.View(name); ok {
			if err := img.Append(recCreateView(name, sel.SQL())); err != nil {
				return err
			}
		}
	}
	return img.Sync()
}

// rowSizeHint approximates a row's encoded size, for cutting image
// insert records near imageChunk.
func rowSizeHint(r value.Row) int {
	n := 1
	for _, v := range r {
		n += 9 + len(v.S)
	}
	return n
}

// Close checkpoints and shuts the backend down. The catalog keeps
// working in memory afterwards, but mutations fail: close the SQL
// layers first.
func (d *DB) Close() error {
	if err := d.Checkpoint(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return d.wal.Close()
}

// removeOtherGenerations deletes WAL and image files whose embedded
// generation differs from keep.
func (d *DB) removeOtherGenerations(keep uint64) error {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		base, ok := strings.CutSuffix(name, ".log")
		if !ok {
			continue
		}
		for _, prefix := range []string{"wal.", "image."} {
			g, ok := strings.CutPrefix(base, prefix)
			if !ok {
				continue
			}
			if gen, err := strconv.ParseUint(g, 10, 64); err == nil && gen != keep {
				if err := os.Remove(filepath.Join(d.dir, name)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// readManifest decodes MANIFEST strictly: a manifest from the paged
// heap format (with a table/view inventory) is refused, not read as an
// empty database.
func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("disk: %s: %w", manifestName, err)
	}
	return &m, nil
}

// writeManifest swaps the manifest atomically: write tmp, fsync,
// rename over MANIFEST, fsync the directory so the rename is durable.
func writeManifest(dir string, m *manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	dirf, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer dirf.Close()
	return dirf.Sync()
}
