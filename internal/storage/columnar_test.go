package storage

import (
	"testing"

	"repro/internal/value"
)

func columnarTable(t *testing.T) *Table {
	t.Helper()
	tbl := carsTable()
	rows := []value.Row{
		{value.NewInt(1), value.NewText("Audi"), value.NewFloat(40000)},
		{value.NewInt(2), value.NewText("BMW"), value.NewNull()},
		{value.NewInt(3), value.NewNull(), value.NewFloat(35000)},
	}
	for _, r := range rows {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestColumnarBuildAndLayout(t *testing.T) {
	tbl := columnarTable(t)
	c := tbl.Columnar(5)
	if c.Epoch != 5 || c.NRows != 3 {
		t.Fatalf("image epoch=%d rows=%d, want 5/3", c.Epoch, c.NRows)
	}
	// TEXT columns get no vector; numeric columns decompose into
	// float64 values plus a validity bitmap.
	if c.Cols[1] != nil {
		t.Error("text column should have a nil vector slot")
	}
	id := c.Cols[0]
	if id == nil || id.Nums[0] != 1 || id.Nums[2] != 3 || !id.IsValid(1) {
		t.Fatalf("id vector wrong: %+v", id)
	}
	price := c.Cols[2]
	if price == nil || price.Nums[0] != 40000 || price.Nums[2] != 35000 {
		t.Fatalf("price vector wrong: %+v", price)
	}
	if price.IsValid(1) {
		t.Error("NULL price must clear its validity bit")
	}
	if !price.IsValid(0) || !price.IsValid(2) {
		t.Error("non-NULL prices must set their validity bits")
	}
}

func TestColumnarCacheHitAndEpochInvalidation(t *testing.T) {
	tbl := columnarTable(t)
	c1 := tbl.Columnar(1)
	if c2 := tbl.Columnar(1); c2 != c1 {
		t.Error("same-epoch request must return the cached image")
	}
	// A later epoch means some write happened: the image is rebuilt from
	// the current heap.
	if err := tbl.Insert(value.Row{value.NewInt(4), value.NewText("VW"), value.NewFloat(20000)}); err != nil {
		t.Fatal(err)
	}
	c3 := tbl.Columnar(2)
	if c3 == c1 {
		t.Fatal("stale-epoch image must be rebuilt")
	}
	if c3.NRows != 4 || c3.Cols[2].Nums[3] != 20000 {
		t.Fatalf("rebuilt image misses the new row: %+v", c3)
	}
	if c4 := tbl.Columnar(2); c4 != c3 {
		t.Error("rebuilt image must be cached in turn")
	}
}

func TestColumnarValidityPastWordBoundary(t *testing.T) {
	// 70 rows cross the first 64-bit bitmap word; every odd id is NULL
	// in the price column.
	tbl := carsTable()
	for i := 1; i <= 70; i++ {
		price := value.NewFloat(float64(i))
		if i%2 == 1 {
			price = value.NewNull()
		}
		if err := tbl.Insert(value.Row{value.NewInt(int64(i)), value.NewText("x"), price}); err != nil {
			t.Fatal(err)
		}
	}
	c := tbl.Columnar(1)
	price := c.Cols[2]
	for i := 0; i < 70; i++ {
		odd := (i+1)%2 == 1
		if price.IsValid(i) == odd {
			t.Fatalf("row %d validity wrong (odd ids are NULL)", i)
		}
		if !odd && price.Nums[i] != float64(i+1) {
			t.Fatalf("row %d value %v", i, price.Nums[i])
		}
	}
}

func TestVectorKeyedByHeapVersion(t *testing.T) {
	tbl := columnarTable(t)
	snap := tbl.Snapshot()
	h1 := tbl.Heap()
	v1 := h1.Vector(2)
	if h1.Vector(2) != v1 {
		t.Error("a second request at one heap version must hit the cache")
	}
	if tv := h1.Vector(1); tv == nil || tv.Codes == nil || tv.Nums != nil {
		t.Error("a TEXT column's vector holds dictionary codes")
	}
	must(t, tbl.Insert(value.Row{value.NewInt(4), value.NewText("VW"), value.NewFloat(20000)}))
	h2 := tbl.Heap()
	if h2.Version == h1.Version {
		t.Fatal("an insert must move the heap version")
	}
	v2 := h2.Vector(2)
	if v2 == v1 || len(v2.Nums) != 4 || v2.Nums[3] != 20000 {
		t.Fatalf("the new version needs its own vector: %+v", v2)
	}
	// A reader still holding the old heap gets a vector of exactly its
	// rows, built privately: the cache keeps the newer version.
	if old := h1.Vector(2); len(old.Nums) != 3 {
		t.Errorf("old-version vector has %d rows, want 3", len(old.Nums))
	}
	if h2.Vector(2) != v2 {
		t.Error("an old-version request must not evict the newer vector")
	}
	if sh := snap.heap; sh.Version != h1.Version || len(sh.Vector(2).Nums) != 3 {
		t.Error("a snapshot's heap keeps its own version")
	}
	// Update, delete and truncate move the version too.
	for _, write := range []func() error{
		func() error {
			_, err := tbl.Update(func(value.Row) (bool, error) { return true, nil },
				func(r value.Row) (value.Row, error) { r[2] = value.NewFloat(1); return r, nil })
			return err
		},
		func() error {
			_, err := tbl.Delete(func(r value.Row) (bool, error) { return r[0].I == 1, nil })
			return err
		},
		tbl.Truncate,
	} {
		before := tbl.Heap().Version
		must(t, write())
		h := tbl.Heap()
		if h.Version == before {
			t.Fatal("a write left the heap version unchanged")
		}
		if v := h.Vector(2); len(v.Nums) != len(h.Rows) {
			t.Fatalf("vector has %d rows, heap %d", len(v.Nums), len(h.Rows))
		}
	}
}

// TestVectorTextCodes: a TEXT column's vector is a dictionary plus one
// code per row, NULL marked in the bitmap, keyed by heap version like a
// numeric vector, and never part of Columnar's whole-table image.
func TestVectorTextCodes(t *testing.T) {
	tbl := columnarTable(t) // make: Audi, BMW, NULL
	must(t, tbl.Insert(value.Row{value.NewInt(4), value.NewText("Audi"), value.NewFloat(1)}))
	h1 := tbl.Heap()
	tv := h1.Vector(1)
	if tv == nil || tv.Kind != value.Text || len(tv.Codes) != 4 || len(tv.Dict) != 2 {
		t.Fatalf("text vector %+v, want 4 codes over 2 strings", tv)
	}
	if tv.Codes[0] != tv.Codes[3] || tv.Codes[0] == tv.Codes[1] || tv.Dict["Audi"] != tv.Codes[0] || tv.Dict["BMW"] != tv.Codes[1] {
		t.Errorf("codes %v do not follow the dictionary %v", tv.Codes, tv.Dict)
	}
	if !tv.IsValid(0) || tv.IsValid(2) {
		t.Error("the NULL make must be the only invalid slot")
	}
	if h1.Vector(1) != tv {
		t.Error("a second request at one heap version must hit the cache")
	}
	if c := tbl.Columnar(9); c.Cols[1] != nil {
		t.Error("Columnar builds numeric columns only")
	}
	must(t, tbl.Insert(value.Row{value.NewInt(5), value.NewText("VW"), value.NewNull()}))
	h2 := tbl.Heap()
	tv2 := h2.Vector(1)
	if tv2 == tv || len(tv2.Codes) != 5 || tv2.Dict["VW"] != tv2.Codes[4] {
		t.Fatalf("the new version needs its own codes: %+v", tv2)
	}
	if old := h1.Vector(1); len(old.Codes) != 4 {
		t.Errorf("old-version codes cover %d rows, want 4", len(old.Codes))
	}
}
