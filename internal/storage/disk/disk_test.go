package disk

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/value"
)

func carSchema() storage.Schema {
	return storage.Schema{Cols: []storage.Column{
		{Name: "id", Kind: value.Int, NotNull: true},
		{Name: "make", Kind: value.Text},
		{Name: "price", Kind: value.Float},
	}}
}

func carRow(id int64, make_ string, price float64) value.Row {
	return value.Row{value.NewInt(id), value.NewText(make_), value.NewFloat(price)}
}

func openDB(t *testing.T, dir string) (*DB, RecoveryStats) {
	t.Helper()
	d, stats, err := Open(dir, Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return d, stats
}

func rowsEqual(a, b []value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j].Key() != b[i][j].Key() {
				return false
			}
		}
	}
	return true
}

// TestWalOnlyRecovery: mutations never checkpointed (no clean Close)
// must come back from the WAL alone.
func TestWalOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	d, _ := openDB(t, dir)
	cat := d.Catalog()
	tbl := storage.NewTable("cars", carSchema())
	if err := cat.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := tbl.Insert(carRow(int64(i), "Audi", float64(i*100))); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon d without Close: a crash. Reopen from disk.
	d2, stats := openDB(t, dir)
	if stats.WalRecords == 0 {
		t.Fatal("expected WAL replay work")
	}
	tbl2, ok := d2.Catalog().Table("cars")
	if !ok {
		t.Fatal("table cars not recovered")
	}
	if !rowsEqual(tbl.Rows(), tbl2.Rows()) {
		t.Fatalf("recovered %d rows, want %d (or content mismatch)", tbl2.RowCount(), tbl.RowCount())
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointAndTail: state = checkpoint image + WAL tail replayed
// on top; a clean Close leaves an empty tail.
func TestCheckpointAndTail(t *testing.T) {
	dir := t.TempDir()
	d, _ := openDB(t, dir)
	tbl := storage.NewTable("cars", carSchema())
	if err := d.Catalog().CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := tbl.Insert(carRow(int64(i), "BMW", 1)); err != nil {
			t.Fatal(err)
		}
	}
	gen := d.Generation()
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if d.Generation() != gen+1 {
		t.Fatalf("generation did not advance: %d -> %d", gen, d.Generation())
	}
	// Tail mutations after the checkpoint.
	for i := 30; i < 40; i++ {
		if err := tbl.Insert(carRow(int64(i), "VW", 2)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.Update(
		func(r value.Row) (bool, error) { return r[0].I == 5, nil },
		func(r value.Row) (value.Row, error) { r[2] = value.NewFloat(999); return r, nil },
	); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Delete(func(r value.Row) (bool, error) { return r[0].I == 7, nil }); err != nil {
		t.Fatal(err)
	}
	want := tbl.Rows()

	// Crash-reopen: image + tail.
	d2, stats := openDB(t, dir)
	if stats.HeapRows != 30 {
		t.Fatalf("heap image rows = %d, want 30", stats.HeapRows)
	}
	if stats.WalRecords != 12 { // 10 inserts + update + delete
		t.Fatalf("wal records replayed = %d, want 12", stats.WalRecords)
	}
	tbl2, _ := d2.Catalog().Table("cars")
	if !rowsEqual(want, tbl2.Rows()) {
		t.Fatal("recovered state does not match crash-time state")
	}
	// Clean close, reopen: all rows from the image, zero WAL tail.
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, stats := openDB(t, dir)
	if stats.WalRecords != 0 {
		t.Fatalf("after clean close: %d WAL records, want 0", stats.WalRecords)
	}
	if stats.HeapRows != 39 {
		t.Fatalf("after clean close: heap rows = %d, want 39", stats.HeapRows)
	}
	tbl3, _ := d3.Catalog().Table("cars")
	if !rowsEqual(want, tbl3.Rows()) {
		t.Fatal("state after clean close mismatch")
	}
	if err := d3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDDLPersistence: tables, indexes, views and their drops survive
// both WAL replay and checkpoint images.
func TestDDLPersistence(t *testing.T) {
	dir := t.TempDir()
	d, _ := openDB(t, dir)
	cat := d.Catalog()
	tbl := storage.NewTable("cars", carSchema())
	if err := cat.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateIndex("cars_make", []string{"make"}); err != nil {
		t.Fatal(err)
	}
	doomed := storage.NewTable("doomed", carSchema())
	if err := cat.CreateTable(doomed); err != nil {
		t.Fatal(err)
	}
	if !cat.DropTable("doomed") {
		t.Fatal("drop table failed")
	}
	if err := tbl.Insert(carRow(1, "Audi", 1)); err != nil {
		t.Fatal(err)
	}

	check := func(d *DB, phase string) {
		got, ok := d.Catalog().Table("cars")
		if !ok {
			t.Fatalf("%s: cars missing", phase)
		}
		defs := got.IndexDefs()
		if len(defs) != 1 || defs[0].Name != "cars_make" || defs[0].Columns[0] != "make" {
			t.Fatalf("%s: index not recovered: %+v", phase, defs)
		}
		if _, ok := d.Catalog().Table("doomed"); ok {
			t.Fatalf("%s: dropped table resurrected", phase)
		}
		if got.RowCount() != 1 {
			t.Fatalf("%s: rows = %d", phase, got.RowCount())
		}
		// The recovered index must actually work.
		ix := got.IndexOn(got.Schema.ColIndex("make"))
		if ix == nil || len(ix.Lookup(value.NewText("Audi"))) != 1 {
			t.Fatalf("%s: index lookup broken", phase)
		}
	}

	// Crash-reopen (DDL from WAL) ...
	d2, _ := openDB(t, dir)
	check(d2, "wal replay")
	// ... then clean close (DDL from the image).
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, _ := openDB(t, dir)
	check(d3, "image")
	if err := d3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTruncatePersistence: a logged truncate replays to an empty table.
func TestTruncatePersistence(t *testing.T) {
	dir := t.TempDir()
	d, _ := openDB(t, dir)
	tbl := storage.NewTable("cars", carSchema())
	if err := d.Catalog().CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := tbl.Insert(carRow(int64(i), "x", 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Truncate(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(carRow(9, "y", 0)); err != nil {
		t.Fatal(err)
	}
	d2, _ := openDB(t, dir)
	tbl2, _ := d2.Catalog().Table("cars")
	if tbl2.RowCount() != 1 || tbl2.Rows()[0][0].I != 9 {
		t.Fatalf("truncate replay wrong: %d rows", tbl2.RowCount())
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMidCheckpoint simulates a crash between writing next-gen
// files and the manifest swap: recovery must use the old generation and
// sweep the orphans.
func TestCrashMidCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d, _ := openDB(t, dir)
	tbl := storage.NewTable("cars", carSchema())
	if err := d.Catalog().CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := tbl.Insert(carRow(int64(i), "z", 0)); err != nil {
			t.Fatal(err)
		}
	}
	gen := d.Generation()
	// Fake the unfinished checkpoint: next-gen files exist, MANIFEST
	// still names the old generation.
	if err := os.WriteFile(filepath.Join(dir, imageName(gen+1)), []byte("garbage-from-a-dead-checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName(gen+1)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	d2, stats := openDB(t, dir)
	if stats.Gen != gen {
		t.Fatalf("recovered generation %d, want %d", stats.Gen, gen)
	}
	tbl2, _ := d2.Catalog().Table("cars")
	if tbl2.RowCount() != 10 {
		t.Fatalf("rows = %d, want 10", tbl2.RowCount())
	}
	// Orphans must be gone.
	if _, err := os.Stat(filepath.Join(dir, imageName(gen+1))); !os.IsNotExist(err) {
		t.Fatal("orphaned next-gen image not removed")
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJumboRow: a row far larger than a typical record survives the
// checkpoint image next to a small one, in insertion order.
func TestJumboRow(t *testing.T) {
	dir := t.TempDir()
	d, _ := openDB(t, dir)
	tbl := storage.NewTable("blobs", storage.Schema{Cols: []storage.Column{
		{Name: "id", Kind: value.Int},
		{Name: "body", Kind: value.Text},
	}})
	if err := d.Catalog().CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("lorem ipsum ", 4000) // ~48KB
	if err := tbl.Insert(value.Row{value.NewInt(1), value.NewText(big)}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(value.Row{value.NewInt(2), value.NewText("small")}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil { // forces the checkpoint image path
		t.Fatal(err)
	}
	d2, stats := openDB(t, dir)
	if stats.HeapRows != 2 {
		t.Fatalf("heap rows = %d, want 2", stats.HeapRows)
	}
	tbl2, _ := d2.Catalog().Table("blobs")
	rows := tbl2.Rows()
	// Insertion order must hold across the image.
	if rows[0][0].I != 1 || rows[0][1].S != big || rows[1][0].I != 2 {
		t.Fatal("jumbo row corrupted or reordered")
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialMemVsDisk drives randomized inserts, updates, deletes
// and truncates against an in-memory table and a disk-backed one, with
// periodic crash-reopens of the disk side, and requires identical rows
// after every batch. This is the storage-level half of the acceptance
// differential (the SQL-level half lives in internal/core).
func TestDifferentialMemVsDisk(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(10))

	mem := storage.NewTable("data", carSchema())
	d, _ := openDB(t, dir)
	dtbl := storage.NewTable("data", carSchema())
	if err := d.Catalog().CreateTable(dtbl); err != nil {
		t.Fatal(err)
	}

	makes := []string{"Audi", "BMW", "VW", "Opel"}
	nextID := int64(0)
	const steps = 400
	for i := 0; i < steps; i++ {
		switch k := rng.Intn(10); {
		case k < 6 || mem.RowCount() == 0: // insert
			nextID++
			row := carRow(nextID, makes[rng.Intn(len(makes))], float64(rng.Intn(1000)))
			if err := mem.Insert(row.Clone()); err != nil {
				t.Fatal(err)
			}
			if err := dtbl.Insert(row.Clone()); err != nil {
				t.Fatal(err)
			}
		case k < 8: // update one make
			target := makes[rng.Intn(len(makes))]
			price := float64(rng.Intn(1000))
			match := func(r value.Row) (bool, error) { return r[1].S == target, nil }
			set := func(r value.Row) (value.Row, error) { r[2] = value.NewFloat(price); return r, nil }
			n1, err := mem.Update(match, set)
			if err != nil {
				t.Fatal(err)
			}
			n2, err := dtbl.Update(match, set)
			if err != nil {
				t.Fatal(err)
			}
			if n1 != n2 {
				t.Fatalf("step %d: update counts diverge (%d vs %d)", i, n1, n2)
			}
		case k < 9: // delete a price band
			lo := float64(rng.Intn(1000))
			match := func(r value.Row) (bool, error) { return r[2].F >= lo && r[2].F < lo+100, nil }
			n1, err := mem.Delete(match)
			if err != nil {
				t.Fatal(err)
			}
			n2, err := dtbl.Delete(match)
			if err != nil {
				t.Fatal(err)
			}
			if n1 != n2 {
				t.Fatalf("step %d: delete counts diverge (%d vs %d)", i, n1, n2)
			}
		default:
			if rng.Intn(4) == 0 { // occasional truncate
				if err := mem.Truncate(); err != nil {
					t.Fatal(err)
				}
				if err := dtbl.Truncate(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !rowsEqual(mem.Rows(), dtbl.Rows()) {
			t.Fatalf("step %d: mem and disk diverged (%d vs %d rows)", i, mem.RowCount(), dtbl.RowCount())
		}
		// Periodically crash (no Close) or checkpoint, then reopen.
		if i%97 == 96 {
			if rng.Intn(2) == 0 {
				if err := d.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			d2, _ := openDB(t, dir)
			d = d2
			got, ok := d.Catalog().Table("data")
			if !ok {
				t.Fatalf("step %d: table lost across reopen", i)
			}
			dtbl = got
			if !rowsEqual(mem.Rows(), dtbl.Rows()) {
				t.Fatalf("step %d: reopen diverged (%d vs %d rows)", i, mem.RowCount(), dtbl.RowCount())
			}
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Final reopen sanity.
	d2, _ := openDB(t, dir)
	got, _ := d2.Catalog().Table("data")
	if !rowsEqual(mem.Rows(), got.Rows()) {
		t.Fatal("final state diverged")
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestViewPersistence: a view created through the catalog must survive
// both recovery paths and still parse to the same SQL.
func TestViewPersistence(t *testing.T) {
	dir := t.TempDir()
	d, _ := openDB(t, dir)
	tbl := storage.NewTable("cars", carSchema())
	if err := d.Catalog().CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	sel := mustParseSelect(t, "SELECT id, price FROM cars WHERE price < 100")
	if err := d.Catalog().CreateView("cheap", sel); err != nil {
		t.Fatal(err)
	}
	wantSQL := sel.SQL()

	d2, _ := openDB(t, dir) // crash path
	v, ok := d2.Catalog().View("cheap")
	if !ok {
		t.Fatal("view lost on WAL replay")
	}
	if v.SQL() != wantSQL {
		t.Fatalf("view SQL drifted: %q vs %q", v.SQL(), wantSQL)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, _ := openDB(t, dir) // image path
	v, ok = d3.Catalog().View("cheap")
	if !ok {
		t.Fatal("view lost on image recovery")
	}
	if v.SQL() != wantSQL {
		t.Fatalf("view SQL drifted after checkpoint: %q", v.SQL())
	}
	if err := d3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertBatchOneRecord: a bulk load of n rows must cost one WAL
// record, not n.
func TestInsertBatchOneRecord(t *testing.T) {
	dir := t.TempDir()
	d, _ := openDB(t, dir)
	tbl := storage.NewTable("cars", carSchema())
	if err := d.Catalog().CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	before := d.WalStats().Appends
	batch := make([]value.Row, 500)
	for i := range batch {
		batch[i] = carRow(int64(i), "m", float64(i))
	}
	if err := tbl.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := d.WalStats().Appends - before; got != 1 {
		t.Fatalf("bulk load appended %d WAL records, want 1", got)
	}
	d2, _ := openDB(t, dir)
	got, _ := d2.Catalog().Table("cars")
	if got.RowCount() != 500 {
		t.Fatalf("recovered %d rows, want 500", got.RowCount())
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

func mustParseSelect(t *testing.T, sql string) *ast.Select {
	t.Helper()
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// TestReplayRejectsWrongWidth: a CRC-valid record whose row is narrower
// than its table's schema fails Open with an error naming the table,
// instead of panicking in the index rebuild.
func TestReplayRejectsWrongWidth(t *testing.T) {
	narrow := []value.Row{{value.NewInt(1)}}
	for name, logBad := range map[string]func(*DB) error{
		"insert": func(d *DB) error { return d.LogInsert("t", narrow) },
		"update": func(d *DB) error { return d.LogUpdate("t", []int{0}, narrow) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d, _ := openDB(t, dir)
			tbl := storage.NewTable("t", storage.Schema{Cols: []storage.Column{
				{Name: "a", Kind: value.Int},
				{Name: "b", Kind: value.Int},
			}})
			if err := d.Catalog().CreateTable(tbl); err != nil {
				t.Fatal(err)
			}
			if _, err := tbl.CreateIndex("t_b", []string{"b"}); err != nil {
				t.Fatal(err)
			}
			if err := tbl.Insert(value.Row{value.NewInt(0), value.NewInt(0)}); err != nil {
				t.Fatal(err)
			}
			if err := logBad(d); err != nil {
				t.Fatal(err)
			}
			_, _, err := Open(dir, Options{Sync: wal.SyncOff})
			if err == nil || !strings.Contains(err.Error(), "table t:") {
				t.Fatalf("open = %v, want an error naming table t", err)
			}
		})
	}
}

// checkpointedCars returns a directory whose current generation's
// image holds a cars table with an index and 20 rows, plus a view.
func checkpointedCars(t testing.TB) (dir string, gen uint64) {
	t.Helper()
	dir = t.TempDir()
	d, _, err := Open(dir, Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	tbl := storage.NewTable("cars", carSchema())
	if err := d.Catalog().CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateIndex("cars_make", []string{"make"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := tbl.Insert(carRow(int64(i), "Audi", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := parser.ParseSelect("SELECT id FROM cars WHERE price < 10")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Catalog().CreateView("cheap", sel); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, d.Generation()
}

// TestOpenRefusesDamagedImage: the image was fsynced before MANIFEST
// named it, so a missing image, a torn image or a manifest this format
// cannot read fails Open loudly instead of opening an empty database.
func TestOpenRefusesDamagedImage(t *testing.T) {
	for name, damage := range map[string]func(dir string, gen uint64) error{
		"missing image": func(dir string, gen uint64) error {
			return os.Remove(filepath.Join(dir, imageName(gen)))
		},
		"torn image": func(dir string, gen uint64) error {
			path := filepath.Join(dir, imageName(gen))
			info, err := os.Stat(path)
			if err != nil {
				return err
			}
			return os.Truncate(path, info.Size()-3)
		},
		"old manifest": func(dir string, gen uint64) error {
			old := fmt.Sprintf(`{"gen": %d, "tables": [{"name": "cars", "cols": [{"name": "id", "kind": 1}]}], "views": null}`, gen)
			return os.WriteFile(filepath.Join(dir, manifestName), []byte(old), 0o644)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir, gen := checkpointedCars(t)
			if err := damage(dir, gen); err != nil {
				t.Fatal(err)
			}
			d, _, err := Open(dir, Options{Sync: wal.SyncOff})
			if err == nil {
				d.Close()
				t.Fatal("open succeeded over a damaged generation")
			}
			if _, err := os.Stat(filepath.Join(dir, walName(gen))); err != nil {
				t.Fatalf("failed open touched the WAL: %v", err)
			}
		})
	}
}

// TestCheckpointReplacesStaleImage: an image.<gen+1> left in the live
// directory by a failed checkpoint is replaced by the next checkpoint,
// not appended to.
func TestCheckpointReplacesStaleImage(t *testing.T) {
	dir, _ := checkpointedCars(t)
	d, _ := openDB(t, dir)
	tbl, _ := d.Catalog().Table("cars")
	if err := tbl.Insert(carRow(99, "VW", 1)); err != nil {
		t.Fatal(err)
	}
	want := tbl.Rows()
	stale, _, err := wal.Open(filepath.Join(dir, imageName(d.Generation()+1)), wal.SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	if err := stale.Append(recCreateTable("ghost", carSchema())); err != nil {
		t.Fatal(err)
	}
	if err := stale.Append(recInsert("ghost", []value.Row{carRow(1, "x", 1)})); err != nil {
		t.Fatal(err)
	}
	if err := stale.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d2, stats := openDB(t, dir)
	if _, ok := d2.Catalog().Table("ghost"); ok {
		t.Fatal("stale image records survived the checkpoint")
	}
	got, _ := d2.Catalog().Table("cars")
	if stats.HeapRows != len(want) || !rowsEqual(want, got.Rows()) {
		t.Fatalf("reopened %d image rows, want exactly the %d checkpointed", stats.HeapRows, len(want))
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzReplay feeds arbitrary bytes to recovery, either as the image of
// generation 1 or as its WAL next to a valid image, under a valid
// MANIFEST. With framed set, the bytes are one record payload behind a
// valid frame, so mutations reach the record decoder past the CRC.
// Images and WALs share one record format, so this one target covers
// both. Open must fail or return a catalog whose every row has its
// schema's width; it must never panic.
func FuzzReplay(f *testing.F) {
	src, gen := checkpointedCars(f)
	d, _, err := Open(src, Options{Sync: wal.SyncOff})
	if err != nil {
		f.Fatal(err)
	}
	tbl, _ := d.Catalog().Table("cars")
	if err := tbl.Insert(carRow(50, "BMW", 5)); err != nil {
		f.Fatal(err)
	}
	if _, err := tbl.Update(
		func(r value.Row) (bool, error) { return r[0].I == 3, nil },
		func(r value.Row) (value.Row, error) { r[1] = value.NewText("Opel"); return r, nil },
	); err != nil {
		f.Fatal(err)
	}
	if _, err := tbl.Delete(func(r value.Row) (bool, error) { return r[0].I < 2, nil }); err != nil {
		f.Fatal(err)
	}
	if !d.Catalog().DropView("cheap") {
		f.Fatal("drop view failed")
	}
	image, err := os.ReadFile(filepath.Join(src, imageName(gen)))
	if err != nil {
		f.Fatal(err)
	}
	tail, err := os.ReadFile(filepath.Join(src, walName(gen)))
	if err != nil {
		f.Fatal(err)
	}
	if err := d.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(image, false, false)
	f.Add(tail, true, false)
	f.Add([]byte{}, false, false)
	for _, rec := range [][]byte{
		recCreateTable("cars", carSchema()),
		recInsert("cars", []value.Row{carRow(7, "Fiat", 2)}),
		recUpdate("cars", []int{4}, []value.Row{carRow(7, "Fiat", 2)}),
		recDelete("cars", []int{0, 3}),
		recTruncate("cars"),
		recCreateIndex("cars", "cars_price", []string{"price"}),
		recDropIndex("cars", "cars_make"),
		recCreateView("dear", "SELECT make FROM cars WHERE price > 5"),
		recDropTable("cars"),
	} {
		f.Add(rec, true, true)
	}

	f.Fuzz(func(t *testing.T, data []byte, asWAL, framed bool) {
		dir := t.TempDir()
		if framed {
			log, _, err := wal.Open(filepath.Join(dir, "record"), wal.SyncOff)
			if err != nil {
				t.Fatal(err)
			}
			if err := log.Append(data); err != nil {
				t.Fatal(err)
			}
			log.Close()
			if data, err = os.ReadFile(filepath.Join(dir, "record")); err != nil {
				t.Fatal(err)
			}
		}
		img := data
		if asWAL {
			img = image
			if err := os.WriteFile(filepath.Join(dir, walName(1)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, imageName(1)), img, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"gen": 1}`), 0o644); err != nil {
			t.Fatal(err)
		}
		d, _, err := Open(dir, Options{Sync: wal.SyncOff})
		if err != nil {
			return
		}
		defer d.wal.Close() // no Close: its checkpoint would fsync per input
		for _, name := range d.Catalog().TableNames() {
			tbl, _ := d.Catalog().Table(name)
			for i, r := range tbl.Rows() {
				if len(r) != len(tbl.Schema.Cols) {
					t.Fatalf("table %s row %d has %d values, schema has %d", name, i, len(r), len(tbl.Schema.Cols))
				}
			}
		}
	})
}
