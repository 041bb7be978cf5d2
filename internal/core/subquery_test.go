package core

import (
	"fmt"
	"testing"

	"repro/internal/value"
)

// subqueryDB is k(id, i) over 3,000 rows, i a permutation of 0..2999.
func subqueryDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE k (id INT, i INT)`)
	rows := make([]value.Row, 3000)
	for n := range rows {
		rows[n] = value.Row{value.NewInt(int64(n)), value.NewInt(int64(n * 7 % 3000))}
	}
	tbl, _ := db.Engine().Catalog().Table("k")
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	return db
}

func rowsText(rows []value.Row) string { return fmt.Sprint(rows) }

// TestUncorrelatedSubqueryRunsOnce: a subquery that reads nothing of the
// outer row runs once per execution, not once per outer row — scalar,
// IN and EXISTS alike, in WHERE and in a preference operand.
func TestUncorrelatedSubqueryRunsOnce(t *testing.T) {
	db := subqueryDB(t)
	sess := db.NewSession()
	for _, c := range []struct {
		sql     string
		want    string
		scanned int64 // the outer scan and one subquery run
	}{
		{`SELECT id FROM k WHERE i = (SELECT MIN(i) FROM k)`, "[(0)]", 6000},
		// A function call consults no outer environment.
		{`SELECT id FROM k WHERE i = (SELECT MIN(ABS(i)) FROM k)`, "[(0)]", 6000},
		{`SELECT id FROM k WHERE i IN (SELECT i FROM k WHERE id < 3)`, "[(0) (1) (2)]", 6000},
		// EXISTS stops at the first row it finds, the third.
		{`SELECT id FROM k WHERE EXISTS (SELECT id FROM k WHERE i = 14) AND i < 14 AND id < 3`, "[(0) (1)]", 3003},
	} {
		res, err := sess.Exec(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got := rowsText(res.Rows); got != c.want {
			t.Errorf("%s: %s, want %s", c.sql, got, c.want)
		}
		if st := sess.LastStats(); st.Exec.RowsScanned != c.scanned {
			t.Errorf("%s scanned %d rows, want %d", c.sql, st.Exec.RowsScanned, c.scanned)
		}
	}
	want := mustExec(t, db, `SELECT id FROM k PREFERRING LOWEST(i)`)
	got := mustExec(t, db, `SELECT id FROM k PREFERRING LOWEST((SELECT MIN(i) FROM k) + i)`)
	if rowsText(got.Rows) != rowsText(want.Rows) {
		t.Errorf("a subquery operand ranks %s, want %s", rowsText(got.Rows), rowsText(want.Rows))
	}
}

// TestCorrelatedSubqueryPerRow: a subquery that reads the outer row
// still runs for every row and answers for that row.
func TestCorrelatedSubqueryPerRow(t *testing.T) {
	db := subqueryDB(t)
	res := mustExec(t, db, `SELECT id, (SELECT MIN(k2.id) FROM k AS k2 WHERE k2.i = k.i + 7) FROM k WHERE id < 3`)
	if got, want := rowsText(res.Rows), "[(0, 1) (1, 2) (2, 3)]"; got != want {
		t.Errorf("correlated scalar subquery: %s, want %s", got, want)
	}
	res = mustExec(t, db, `SELECT id FROM k WHERE id < 4 AND EXISTS (SELECT id FROM k AS k2 WHERE k2.id = k.id + 2998)`)
	if got, want := rowsText(res.Rows), "[(0) (1)]"; got != want {
		t.Errorf("correlated EXISTS: %s, want %s", got, want)
	}
}

// TestPreparedSubquerySeesNewData: a subquery's rows are kept within one
// execution only, so a prepared statement run again after a write sees
// the write.
func TestPreparedSubquerySeesNewData(t *testing.T) {
	db := subqueryDB(t)
	sess := db.NewSession()
	p, err := db.Prepare(`SELECT id FROM k WHERE i = (SELECT MAX(i) FROM k)`)
	if err != nil {
		t.Fatal(err)
	}
	run := func() string {
		res, _, err := sess.ExecPrepared(p)
		if err != nil {
			t.Fatal(err)
		}
		return rowsText(res.Rows)
	}
	if got := run(); got != "[(857)]" {
		t.Fatalf("before the insert: %s, want [(857)]", got)
	}
	mustExec(t, db, `INSERT INTO k VALUES (5000, 9999)`)
	if got := run(); got != "[(5000)]" {
		t.Errorf("after the insert: %s, want [(5000)]", got)
	}
}
