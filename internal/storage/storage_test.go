package storage

import (
	"strings"
	"testing"

	"repro/internal/value"
)

func carsTable() *Table {
	return NewTable("cars", Schema{Cols: []Column{
		{Name: "id", Kind: value.Int, PrimaryKey: true, NotNull: true},
		{Name: "make", Kind: value.Text},
		{Name: "price", Kind: value.Float},
	}})
}

func TestInsertAndScan(t *testing.T) {
	tbl := carsTable()
	if err := tbl.Insert(value.Row{value.NewInt(1), value.NewText("Audi"), value.NewFloat(40000)}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(value.Row{value.NewInt(2), value.NewText("BMW"), value.NewFloat(35000)}); err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 2 {
		t.Fatalf("count = %d", tbl.RowCount())
	}
	if tbl.Rows()[0][1].S != "Audi" {
		t.Errorf("row content: %v", tbl.Rows()[0])
	}
}

func TestInsertCoercesIntToFloat(t *testing.T) {
	tbl := carsTable()
	if err := tbl.Insert(value.Row{value.NewInt(1), value.NewText("Audi"), value.NewInt(40000)}); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Rows()[0][2]; got.K != value.Float || got.F != 40000 {
		t.Errorf("price not coerced: %#v", got)
	}
}

func TestInsertRejectsWrongArity(t *testing.T) {
	tbl := carsTable()
	if err := tbl.Insert(value.Row{value.NewInt(1)}); err == nil {
		t.Error("short row should fail")
	}
}

func TestInsertRejectsWrongType(t *testing.T) {
	tbl := carsTable()
	err := tbl.Insert(value.Row{value.NewText("x"), value.NewText("Audi"), value.NewFloat(1)})
	if err == nil {
		t.Error("text into int column should fail")
	}
}

func TestNotNullEnforced(t *testing.T) {
	tbl := carsTable()
	err := tbl.Insert(value.Row{value.NewNull(), value.NewText("Audi"), value.NewFloat(1)})
	if err == nil || !strings.Contains(err.Error(), "NOT NULL") {
		t.Errorf("null PK should fail: %v", err)
	}
	// nullable column accepts NULL
	if err := tbl.Insert(value.Row{value.NewInt(1), value.NewNull(), value.NewNull()}); err != nil {
		t.Errorf("nullable NULL rejected: %v", err)
	}
}

func TestPrimaryKeyUnique(t *testing.T) {
	tbl := carsTable()
	must(t, tbl.Insert(value.Row{value.NewInt(1), value.NewText("a"), value.NewFloat(1)}))
	err := tbl.Insert(value.Row{value.NewInt(1), value.NewText("b"), value.NewFloat(2)})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("dup PK: %v", err)
	}
}

func TestUpdateAndDelete(t *testing.T) {
	tbl := carsTable()
	for i := 1; i <= 5; i++ {
		must(t, tbl.Insert(value.Row{value.NewInt(int64(i)), value.NewText("m"), value.NewFloat(float64(i * 100))}))
	}
	n, err := tbl.Update(
		func(r value.Row) (bool, error) { return r[0].I%2 == 0, nil },
		func(r value.Row) (value.Row, error) { r[2] = value.NewFloat(0); return r, nil },
	)
	if err != nil || n != 2 {
		t.Fatalf("update: %d %v", n, err)
	}
	if tbl.Rows()[1][2].F != 0 {
		t.Error("row 2 not updated")
	}
	n, err = tbl.Delete(func(r value.Row) (bool, error) { return r[2].F == 0, nil })
	if err != nil || n != 2 {
		t.Fatalf("delete: %d %v", n, err)
	}
	if tbl.RowCount() != 3 {
		t.Errorf("count after delete = %d", tbl.RowCount())
	}
}

func TestTruncate(t *testing.T) {
	tbl := carsTable()
	must(t, tbl.Insert(value.Row{value.NewInt(1), value.NewText("a"), value.NewFloat(1)}))
	tbl.Truncate()
	if tbl.RowCount() != 0 {
		t.Error("truncate left rows")
	}
}

func TestHashIndex(t *testing.T) {
	tbl := carsTable()
	for i := 0; i < 10; i++ {
		make_ := "Audi"
		if i%2 == 1 {
			make_ = "BMW"
		}
		must(t, tbl.Insert(value.Row{value.NewInt(int64(i)), value.NewText(make_), value.NewFloat(1)}))
	}
	idx, err := tbl.CreateIndex("idx_make", []string{"make"})
	if err != nil {
		t.Fatal(err)
	}
	hits := idx.Lookup(value.NewText("Audi"))
	if len(hits) != 5 {
		t.Fatalf("lookup: %d hits", len(hits))
	}
	// index stays consistent across inserts and deletes
	must(t, tbl.Insert(value.Row{value.NewInt(100), value.NewText("Audi"), value.NewFloat(2)}))
	if len(idx.Lookup(value.NewText("Audi"))) != 6 {
		t.Error("index not maintained on insert")
	}
	if _, err := tbl.Delete(func(r value.Row) (bool, error) { return r[0].I == 0, nil }); err != nil {
		t.Fatal(err)
	}
	if len(idx.Lookup(value.NewText("Audi"))) != 5 {
		t.Error("index not maintained on delete")
	}
	// IndexOn finds it by leading column
	if tbl.IndexOn(1) == nil {
		t.Error("IndexOn(make) should find index")
	}
	if tbl.IndexOn(2) != nil {
		t.Error("IndexOn(price) should be nil")
	}
}

func TestCreateIndexErrors(t *testing.T) {
	tbl := carsTable()
	if _, err := tbl.CreateIndex("i", []string{"nope"}); err == nil {
		t.Error("bad column should fail")
	}
	if _, err := tbl.CreateIndex("i", []string{"make"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateIndex("i", []string{"make"}); err == nil {
		t.Error("duplicate index should fail")
	}
	if !tbl.DropIndex("i") || tbl.DropIndex("i") {
		t.Error("drop index semantics")
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	must(t, c.CreateTable(carsTable()))
	if err := c.CreateTable(carsTable()); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, ok := c.Table("CARS"); !ok {
		t.Error("lookup should be case-insensitive")
	}
	if names := c.TableNames(); len(names) != 1 || names[0] != "cars" {
		t.Errorf("names: %v", names)
	}
	if !c.DropTable("cars") || c.DropTable("cars") {
		t.Error("drop table semantics")
	}
}

func TestCatalogViews(t *testing.T) {
	c := NewCatalog()
	must(t, c.CreateView("v", nil))
	if err := c.CreateView("v", nil); err == nil {
		t.Error("duplicate view should fail")
	}
	if err := c.CreateTable(NewTable("v", Schema{})); err == nil {
		t.Error("table name clashing with view should fail")
	}
	if _, ok := c.View("V"); !ok {
		t.Error("view lookup case-insensitive")
	}
	if len(c.ViewNames()) != 1 {
		t.Error("view names")
	}
	if !c.DropView("v") || c.DropView("v") {
		t.Error("drop view semantics")
	}
}

func TestLoadCSV(t *testing.T) {
	tbl := NewTable("t", Schema{Cols: []Column{
		{Name: "id", Kind: value.Int},
		{Name: "name", Kind: value.Text},
		{Name: "price", Kind: value.Float},
		{Name: "diesel", Kind: value.Bool},
		{Name: "reg", Kind: value.Date},
	}})
	csvData := "1,Audi,40000.5,yes,1999/7/3\n2,BMW,35000,no,2000-01-01\n3,VW,,false,\n"
	n, err := tbl.LoadCSV(strings.NewReader(csvData))
	if err != nil || n != 3 {
		t.Fatalf("load: %d %v", n, err)
	}
	if !tbl.Rows()[0][3].IsTrue() {
		t.Error("bool parse")
	}
	if tbl.Rows()[2][2].K != value.Null {
		t.Error("empty float should be NULL")
	}
	if tbl.Rows()[0][4].String() != "1999-07-03" {
		t.Errorf("date parse: %v", tbl.Rows()[0][4])
	}
}

func TestLoadCSVErrors(t *testing.T) {
	tbl := NewTable("t", Schema{Cols: []Column{{Name: "id", Kind: value.Int}}})
	if _, err := tbl.LoadCSV(strings.NewReader("notanumber\n")); err == nil {
		t.Error("bad int should fail")
	}
	if _, err := tbl.LoadCSV(strings.NewReader("1,2\n")); err == nil {
		t.Error("wrong arity should fail")
	}
}

func TestParseFieldBoolForms(t *testing.T) {
	for _, s := range []string{"true", "T", "YES", "y", "1"} {
		v, err := ParseField(s, value.Bool)
		if err != nil || !v.IsTrue() {
			t.Errorf("ParseField(%q): %v %v", s, v, err)
		}
	}
	if _, err := ParseField("maybe", value.Bool); err == nil {
		t.Error("bad bool should fail")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestIndexKeyNoSeparatorCollision is the regression test for the old
// fixed-0x1e-separator composite key: two distinct column tuples whose
// values embed the separator byte must hash to different buckets.
func TestIndexKeyNoSeparatorCollision(t *testing.T) {
	tbl := NewTable("kv", Schema{Cols: []Column{
		{Name: "a", Kind: value.Text},
		{Name: "b", Kind: value.Text},
	}})
	// Under key(v) = Key(a) 0x1e Key(b) 0x1e these two rows collide:
	// ("a\x1e\x00sb", "c") and ("a", "b\x1e\x00sc") both flatten to
	// \x00sa 0x1e \x00sb 0x1e \x00sc 0x1e.
	r1 := value.Row{value.NewText("a\x1e\x00sb"), value.NewText("c")}
	r2 := value.Row{value.NewText("a"), value.NewText("b\x1e\x00sc")}
	if err := tbl.Insert(r1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(r2); err != nil {
		t.Fatal(err)
	}
	ix, err := tbl.CreateIndex("kv_ab", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if k1, k2 := ix.key(tbl.Rows()[0]), ix.key(tbl.Rows()[1]); k1 == k2 {
		t.Fatalf("distinct rows share index key %q", k1)
	}
	if len(ix.buckets) != 2 {
		t.Fatalf("buckets = %d, want 2", len(ix.buckets))
	}
}

// probeRows returns the rows ProbeHeap names: the probed positions, or
// the whole heap when the probe degraded.
func probeRows(tbl *Table, ix *Index, v value.Value) []value.Row {
	h, pos, ok := tbl.ProbeHeap(ix, v)
	if !ok {
		return h.Rows
	}
	rows := make([]value.Row, len(pos))
	for i, p := range pos {
		rows[i] = h.Rows[p]
	}
	return rows
}

// TestScanAndProbeIterators covers the heap and probe access paths.
func TestScanAndProbeIterators(t *testing.T) {
	tbl := carsTable()
	for i := 1; i <= 3; i++ {
		make := []string{"Audi", "BMW", "Audi"}[i-1]
		if err := tbl.Insert(value.Row{value.NewInt(int64(i)), value.NewText(make), value.NewFloat(1000 * float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(tbl.Heap().Rows); n != 3 {
		t.Fatalf("scan rows = %d", n)
	}
	ix, err := tbl.CreateIndex("cars_make", []string{"make"})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for _, r := range probeRows(tbl, ix, value.NewText("Audi")) {
		ids = append(ids, r[0].I)
	}
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("probe ids = %v", ids)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	tbl := carsTable()
	for i := 0; i < 4; i++ {
		must(t, tbl.Insert(value.Row{value.NewInt(int64(i)), value.NewText("Audi"), value.NewFloat(float64(i))}))
	}
	if _, err := tbl.CreateIndex("idx_make", []string{"make"}); err != nil {
		t.Fatal(err)
	}
	snap := tbl.Snapshot()

	// Writes after the snapshot: an insert, an update, and a delete.
	must(t, tbl.Insert(value.Row{value.NewInt(100), value.NewText("Audi"), value.NewFloat(9)}))
	if _, err := tbl.Update(
		func(r value.Row) (bool, error) { return r[0].I == 1, nil },
		func(r value.Row) (value.Row, error) { r[1] = value.NewText("BMW"); return r, nil },
	); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Delete(func(r value.Row) (bool, error) { return r[0].I == 2, nil }); err != nil {
		t.Fatal(err)
	}

	// The snapshot still sees the original four rows, unmodified.
	if snap.Len() != 4 {
		t.Fatalf("snapshot len = %d, want 4", snap.Len())
	}
	n := 0
	it := snap.Scan()
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		if r[1].S != "Audi" {
			t.Errorf("snapshot row %v mutated", r)
		}
		n++
	}
	if n != 4 {
		t.Errorf("snapshot scan returned %d rows, want 4", n)
	}
	// A snapshot probe never returns positions appended after the snapshot.
	ix := tbl.IndexOn(1)
	probe := snap.Probe(ix, value.NewText("Audi"))
	for {
		r, ok := probe.Next()
		if !ok {
			break
		}
		if r[0].I == 100 {
			t.Error("snapshot probe leaked a post-snapshot insert")
		}
	}
	// The live table sees all writes.
	if tbl.RowCount() != 4 {
		t.Errorf("live count = %d, want 4", tbl.RowCount())
	}
}

func TestConcurrentReadersOneWriter(t *testing.T) {
	tbl := carsTable()
	for i := 0; i < 64; i++ {
		must(t, tbl.Insert(value.Row{value.NewInt(int64(i)), value.NewText("Audi"), value.NewFloat(1)}))
	}
	if _, err := tbl.CreateIndex("idx_make", []string{"make"}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 64; i < 256; i++ {
			_ = tbl.Insert(value.Row{value.NewInt(int64(i)), value.NewText("BMW"), value.NewFloat(2)})
			if i%16 == 0 {
				_, _ = tbl.Update(
					func(r value.Row) (bool, error) { return r[0].I == int64(i-1), nil },
					func(r value.Row) (value.Row, error) { r[2] = value.NewFloat(3); return r, nil })
			}
			if i%32 == 0 {
				_, _ = tbl.Delete(func(r value.Row) (bool, error) { return r[0].I == int64(i-2), nil })
			}
		}
	}()
	for g := 0; g < 4; g++ {
		go func() {
			for j := 0; j < 200; j++ {
				for _, r := range tbl.Heap().Rows {
					_ = r[0]
				}
				ix := tbl.IndexOn(1)
				if ix != nil {
					for _, r := range probeRows(tbl, ix, value.NewText("Audi")) {
						_ = r[0]
					}
				}
			}
		}()
	}
	<-done
}

// TestSnapshotProbeAfterRebuild is the regression test for snapshot/index
// consistency: after a delete compacts the heap and rebuilds the index,
// a snapshot taken before the write must keep probing its own heap with
// its own captured buckets — not apply new positions to old rows.
func TestSnapshotProbeAfterRebuild(t *testing.T) {
	tbl := carsTable()
	// ids 0,1 are Audi; 2,3 are BMW.
	for i := 0; i < 4; i++ {
		make_ := "Audi"
		if i >= 2 {
			make_ = "BMW"
		}
		must(t, tbl.Insert(value.Row{value.NewInt(int64(i)), value.NewText(make_), value.NewFloat(1)}))
	}
	if _, err := tbl.CreateIndex("idx_make", []string{"make"}); err != nil {
		t.Fatal(err)
	}
	ix := tbl.IndexOn(1)
	snap := tbl.Snapshot()

	// Delete id 0: the live heap compacts and the index rebuilds.
	if _, err := tbl.Delete(func(r value.Row) (bool, error) { return r[0].I == 0, nil }); err != nil {
		t.Fatal(err)
	}

	got := map[int64]bool{}
	it := snap.Probe(ix, value.NewText("BMW"))
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		if r[1].S != "BMW" {
			t.Errorf("snapshot probe returned non-matching row %v", r)
		}
		got[r[0].I] = true
	}
	if !got[2] || !got[3] || len(got) != 2 {
		t.Errorf("snapshot probe BMW ids = %v, want {2,3}", got)
	}

	// The live probe reflects the delete.
	if live := len(probeRows(tbl, tbl.IndexOn(1), value.NewText("Audi"))); live != 1 {
		t.Errorf("live Audi probe = %d rows, want 1", live)
	}

	// An index the snapshot never saw degrades to a full-scan
	// over-approximation rather than missing rows.
	if _, err := tbl.CreateIndex("idx_id", []string{"id"}); err != nil {
		t.Fatal(err)
	}
	n := 0
	it = snap.Probe(tbl.IndexOn(0), value.NewInt(1))
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	if n != 4 {
		t.Errorf("unknown-index probe = %d rows, want full snapshot scan of 4", n)
	}
}

// TestProbeStaleIndexFallsBackToScan: a probe planned against an index
// that was since dropped — or re-created under the same name over a
// different column — must over-approximate with a full scan, never
// miss matching rows or panic on stale positions.
func TestProbeStaleIndexFallsBackToScan(t *testing.T) {
	tbl := carsTable()
	for i := 0; i < 6; i++ {
		must(t, tbl.Insert(value.Row{value.NewInt(int64(i)), value.NewText("m"), value.NewFloat(float64(i % 2))}))
	}
	old, err := tbl.CreateIndex("i", []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.DropIndex("i") {
		t.Fatal("drop failed")
	}
	// Same name, different column.
	if _, err := tbl.CreateIndex("i", []string{"price"}); err != nil {
		t.Fatal(err)
	}
	if n := len(probeRows(tbl, old, value.NewInt(1))); n != 6 {
		t.Errorf("stale-index probe returned %d rows, want full scan of 6", n)
	}
}
