package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/storage"
	"repro/internal/value"
)

// Column vectors are keyed by heap version: a scan filters against the
// vectors of the heap it captured, whatever has been written since.

// vecTestDB loads t(id, d1, d2, d3, g) with n rows, g cycling over eight
// names and indexed.
func vecTestDB(t *testing.T, n int) *DB {
	t.Helper()
	rows := datagen.Skyline(n, 3, datagen.Independent, 11)
	for i := range rows {
		rows[i] = append(rows[i], value.NewText(fmt.Sprintf("g%d", i%8)))
	}
	return vecTestLoad(t, rows)
}

// vecTestLoad is vecTestDB over the given rows, in a fresh database.
func vecTestLoad(t *testing.T, rows []value.Row) *DB {
	t.Helper()
	db := Open()
	cols := append(datagen.SkylineColumns(3), storage.Column{Name: "g", Kind: value.Text})
	if err := datagen.Load(db.Engine(), "t", cols, rows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE INDEX t_g ON t (g)`)
	return db
}

// idSet renders a result's first column as a sorted set.
func idSet(rows []value.Row) string {
	ids := make([]string, len(rows))
	for i, r := range rows {
		ids[i] = r[0].String()
	}
	sort.Strings(ids)
	return strings.Join(ids, ",")
}

// drainCursor reads an open cursor to the end.
func drainCursor(t *testing.T, c *Cursor) string {
	t.Helper()
	defer c.Close()
	var rows []value.Row
	for c.Next() {
		rows = append(rows, c.Row())
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return idSet(rows)
}

// TestCursorFiltersAtItsHeapVersion opens filtered cursors — a
// sequential and an index scan, each with its vectors cached — before an
// INSERT, an UPDATE and a DELETE that all change the filter's answer, and
// lets later statements rebuild the cache at the newer versions. Each
// cursor must still return its own version's answer.
func TestCursorFiltersAtItsHeapVersion(t *testing.T) {
	db := vecTestDB(t, 400)
	queries := []string{
		`SELECT id FROM t WHERE d1 < 0.2 AND d2 >= 0.5`,
		`SELECT id FROM t WHERE g = 'g3' AND d1 < 0.5`,
	}
	writes := []string{
		`INSERT INTO t VALUES (1000, 0.1, 0.9, 0.5, 'g3')`,
		`UPDATE t SET d1 = 0.05 WHERE id <= 40`,
		`DELETE FROM t WHERE d1 < 0.1`,
	}
	type open struct {
		c    *Cursor
		want string
	}
	var cursors []open
	for _, w := range append(writes, "") {
		for _, q := range queries {
			want := idSet(mustExec(t, db, q).Rows)
			c, err := db.OpenCursor(q)
			if err != nil {
				t.Fatal(err)
			}
			cursors = append(cursors, open{c, want})
		}
		if w != "" {
			mustExec(t, db, w)
		}
	}
	for i, o := range cursors {
		if got := drainCursor(t, o.c); got != o.want {
			t.Errorf("cursor %d (%s, before write %d) saw another version:\ngot  %s\nwant %s",
				i, queries[i%2], i/2, got, o.want)
		}
	}
	// The answers really moved with every write.
	for i := 2; i < len(cursors); i++ {
		if cursors[i].want == cursors[i-2].want {
			t.Errorf("write %d left %s unchanged: the test proves nothing", i/2-1, queries[i%2])
		}
	}
}

// TestColumnVectorsRace runs 8 readers — filtered sequential and index
// scans, full-table vectorized skylines and a filtered skyline — against
// one writer on the same table. Every result must equal the
// single-threaded answer of a heap version current during the statement.
// Run with -race.
func TestColumnVectorsRace(t *testing.T) {
	const rows = 10500 // above the planner's vectorization threshold
	queries := []string{
		`SELECT id FROM t WHERE d1 < 0.1 AND d2 >= 0.8`,
		`SELECT id FROM t WHERE g = 'g5' AND d3 < 0.2`,
		`SELECT id FROM t PREFERRING LOWEST(d1) AND LOWEST(d2) AND LOWEST(d3)`,
		`SELECT id FROM t WHERE d1 < 0.5 PREFERRING LOWEST(d2) AND HIGHEST(d3)`,
	}
	rng := rand.New(rand.NewSource(3))
	var writes []string
	for i := 0; i < 24; i++ {
		id := 1 + rng.Intn(rows)
		switch i % 3 {
		case 0:
			writes = append(writes, fmt.Sprintf(`INSERT INTO t VALUES (%d, %.3f, %.3f, %.3f, 'g5')`,
				rows+1+i, rng.Float64()/20, rng.Float64()/20, rng.Float64()/5))
		case 1:
			writes = append(writes, fmt.Sprintf(`UPDATE t SET d1 = %.3f, d3 = 0.01 WHERE id = %d OR id = %d`,
				rng.Float64()/50, id, id+8))
		default:
			writes = append(writes, fmt.Sprintf(`DELETE FROM t WHERE id = %d OR d1 < %.4f`, id, rng.Float64()/500))
		}
	}

	raceHeapVersions(t, rows, queries, writes)
}

// TestTextCodesRace is TestColumnVectorsRace for TEXT dictionary codes:
// skylines scoring the TEXT column g from its codes race a writer that
// inserts new strings and rewrites g, so every heap version has its own
// dictionary.
func TestTextCodesRace(t *testing.T) {
	const rows = 10500 // above the planner's vectorization threshold
	queries := []string{
		`SELECT id FROM t PREFERRING g IN ('g1', 'g5', 'new') AND LOWEST(d1)`,
		`SELECT id FROM t PREFERRING g NOT IN ('g5') AND LOWEST(d1) AND HIGHEST(d3)`,
		`SELECT id FROM t PREFERRING g = 'g7' AND d1 <= 0.2 AND LOWEST(d2)`,
	}
	rng := rand.New(rand.NewSource(5))
	var writes []string
	for i := 0; i < 24; i++ {
		id := 1 + rng.Intn(rows)
		switch i % 3 {
		case 0:
			writes = append(writes, fmt.Sprintf(`INSERT INTO t VALUES (%d, %.3f, %.3f, %.3f, '%s')`,
				rows+1+i, rng.Float64()/20, rng.Float64()/20, rng.Float64()/5, []string{"new", "g7", "g1"}[i%9/3]))
		case 1:
			writes = append(writes, fmt.Sprintf(`UPDATE t SET g = 'g%d', d1 = %.3f WHERE id = %d OR id = %d`,
				rng.Intn(10), rng.Float64()/50, id, id+8))
		default:
			writes = append(writes, fmt.Sprintf(`DELETE FROM t WHERE id = %d OR d1 < %.4f`, id, rng.Float64()/500))
		}
	}
	db := vecTestDB(t, rows)
	for _, q := range queries {
		if plan, err := db.NewSession().ExplainNative(q); err != nil || !strings.Contains(plan, "columnar") {
			t.Fatalf("%s does not score g from its codes (%v):\n%s", q, err, plan)
		}
	}
	raceHeapVersions(t, rows, queries, writes)
}

// raceHeapVersions runs queries from 8 readers against a database of
// vecTestDB(rows) while one writer applies writes in order, and checks
// every answer against the answer of some heap version the statement
// overlapped.
func raceHeapVersions(t *testing.T, rows int, queries, writes []string) {
	// Single-threaded answers per heap version: want[v][q] after v
	// writes, each from a fresh database holding that version's rows, so
	// no vector of an earlier version can leak into the reference.
	ref := vecTestDB(t, rows)
	tbl, _ := ref.Engine().Catalog().Table("t")
	want := make([][]string, len(writes)+1)
	for v := range want {
		fresh := vecTestLoad(t, tbl.Rows())
		for _, q := range queries {
			want[v] = append(want[v], idSet(mustExec(t, fresh, q).Rows))
		}
		if v < len(writes) {
			mustExec(t, ref, writes[v])
		}
	}

	db := vecTestDB(t, rows)
	var done, reads atomic.Int64 // writes completed, statements checked
	var wg sync.WaitGroup
	errs := make(chan error, 9)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				lo := int(done.Load())
				q := (r + i) % len(queries)
				var got string
				if i%2 == 0 {
					res, err := db.Query(queries[q])
					if err != nil {
						errs <- err
						return
					}
					got = idSet(res.Rows)
				} else {
					c, err := db.OpenCursor(queries[q])
					if err != nil {
						errs <- err
						return
					}
					var rows []value.Row
					for c.Next() {
						rows = append(rows, c.Row())
					}
					c.Close()
					if err := c.Err(); err != nil {
						errs <- err
						return
					}
					got = idSet(rows)
				}
				// The write that was running when the statement ended
				// may be visible before it is counted.
				hi := min(int(done.Load())+1, len(writes))
				ok := false
				for v := lo; v <= hi; v++ {
					ok = ok || want[v][q] == got
				}
				if !ok {
					errs <- fmt.Errorf("reader %d: %s matches no heap version in [%d, %d]", r, queries[q], lo, hi)
					return
				}
				reads.Add(1)
				if lo == len(writes) && i >= len(queries)*2 {
					return
				}
			}
		}(r)
	}
	for k, w := range writes {
		// Let the readers run a few statements at every version.
		for reads.Load() < int64(4*(k+1)) && len(errs) == 0 {
			runtime.Gosched()
		}
		if _, err := db.Exec(w); err != nil {
			t.Fatal(err)
		}
		done.Add(1)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
