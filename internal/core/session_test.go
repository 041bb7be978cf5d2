package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bmo"
	"repro/internal/parser"
)

func sessionTestDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	if _, err := db.Exec(`CREATE TABLE t (id INT, v INT);
		INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40)`); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestStmtReadOnlyClassification(t *testing.T) {
	cases := []struct {
		sql  string
		read bool
	}{
		{`SELECT * FROM t`, true},
		{`SELECT * FROM t PREFERRING LOWEST(v)`, true},
		{`INSERT INTO t VALUES (9, 90)`, false},
		{`UPDATE t SET v = 0`, false},
		{`DELETE FROM t`, false},
		{`CREATE TABLE u (a INT)`, false},
		{`CREATE INDEX i ON t (id)`, false},
		{`DROP TABLE t`, false},
		{`CREATE PREFERENCE fav AS LOWEST(v)`, false},
	}
	for _, c := range cases {
		stmts, err := parser.ParseAll(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got := StmtReadOnly(stmts[0]); got != c.read {
			t.Errorf("StmtReadOnly(%s) = %v, want %v", c.sql, got, c.read)
		}
	}
}

// TestPreparedGroupedPlanReuse pins that a grouped statement is a plan
// like any other: its second execution reuses the cached plan, and a
// write makes the next execution re-plan and see the new row.
func TestPreparedGroupedPlanReuse(t *testing.T) {
	db := Open()
	if _, err := db.Exec(`CREATE TABLE t (cat VARCHAR, v INT);
		INSERT INTO t VALUES ('a', 1), ('b', 2), ('a', 3)`); err != nil {
		t.Fatal(err)
	}
	sess := db.NewSession()
	p, err := db.Prepare(`SELECT cat, COUNT(*) FROM t GROUP BY cat`)
	if err != nil {
		t.Fatal(err)
	}
	check := func(wantReused bool, want string) {
		t.Helper()
		res, reused, err := sess.ExecPrepared(p)
		if err != nil {
			t.Fatal(err)
		}
		if reused != wantReused {
			t.Errorf("reusedPlan = %v, want %v", reused, wantReused)
		}
		if got := fmt.Sprint(res.Rows); got != want {
			t.Errorf("rows = %s, want %s", got, want)
		}
	}
	check(false, "[(a, 2) (b, 1)]")
	check(true, "[(a, 2) (b, 1)]")
	if _, err := db.Exec(`INSERT INTO t VALUES ('b', 4)`); err != nil {
		t.Fatal(err)
	}
	check(false, "[(a, 2) (b, 2)]")
	check(true, "[(a, 2) (b, 2)]")
}

func TestEpochAdvancesOnWritesOnly(t *testing.T) {
	db := sessionTestDB(t)
	e0 := db.Epoch()
	if _, err := db.Query(`SELECT * FROM t`); err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != e0 {
		t.Error("read moved the epoch")
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (5, 50)`); err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != e0+1 {
		t.Errorf("epoch = %d, want %d", db.Epoch(), e0+1)
	}
}

func TestPreparedPlanReuseAndInvalidation(t *testing.T) {
	db := sessionTestDB(t)
	sess := db.NewSession()
	p, err := db.Prepare(`SELECT v FROM t WHERE id = 2`)
	if err != nil {
		t.Fatal(err)
	}

	res, reused, err := sess.ExecPrepared(p)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Error("first execution cannot reuse a plan")
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 20 {
		t.Fatalf("rows = %v", res.Rows)
	}

	if _, reused, err = sess.ExecPrepared(p); err != nil {
		t.Fatal(err)
	} else if !reused {
		t.Error("second execution should reuse the cached plan")
	}

	// A write invalidates; the re-planned statement sees the new row.
	if _, err := db.Exec(`INSERT INTO t VALUES (2, 99)`); err != nil {
		t.Fatal(err)
	}
	res, reused, err = sess.ExecPrepared(p)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Error("execution after a write must re-plan")
	}
	if len(res.Rows) != 2 {
		t.Fatalf("stale plan survived a write: rows = %v", res.Rows)
	}

	// Preference queries fall back (parse still cached).
	for _, sql := range []string{
		`SELECT id FROM t PREFERRING LOWEST(v)`,
	} {
		q, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, reused, err := sess.ExecPrepared(q); err != nil {
				t.Fatalf("%s: %v", sql, err)
			} else if reused {
				t.Errorf("%s: unplannable shape claimed plan reuse", sql)
			}
		}
	}

	// Write scripts re-execute correctly too.
	w, err := db.Prepare(`INSERT INTO t VALUES (100, 1); DELETE FROM t WHERE id = 100`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if res, _, err := sess.ExecPrepared(w); err != nil {
			t.Fatalf("write script: %v", err)
		} else if res.Affected != 1 {
			t.Fatalf("write script affected = %d", res.Affected)
		}
	}
}

// TestPreparedConcurrentExec shares one Prepared across goroutines with
// an interleaved writer — the server's cache does exactly this. Run
// with -race.
func TestPreparedConcurrentExec(t *testing.T) {
	db := sessionTestDB(t)
	p, err := db.Prepare(`SELECT id FROM t WHERE v >= 20`)
	if err != nil {
		t.Fatal(err)
	}
	pref, err := db.Prepare(`SELECT id FROM t PREFERRING HIGHEST(v)`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 9)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := db.NewSession()
			for i := 0; i < 50; i++ {
				if res, _, err := sess.ExecPrepared(p); err != nil {
					errCh <- err
					return
				} else if len(res.Rows) < 3 {
					errCh <- fmt.Errorf("lost rows: %v", res.Rows)
					return
				}
				if res, _, err := sess.ExecPrepared(pref); err != nil {
					errCh <- err
					return
				} else if len(res.Rows) == 0 {
					errCh <- fmt.Errorf("empty BMO set")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := db.NewSession()
		for i := 0; i < 30; i++ {
			if _, err := sess.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", 1000+i, 20+i)); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestSelfReferencingDML is the regression test for the table-lock
// self-deadlock: DML whose WHERE/SET evaluates a subquery over the
// table being written must not block on its own lock.
func TestSelfReferencingDML(t *testing.T) {
	db := sessionTestDB(t)
	res, err := db.Exec(`DELETE FROM t WHERE v IN (SELECT v FROM t WHERE v > 25)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 { // v=30, v=40
		t.Fatalf("affected = %d, want 2", res.Affected)
	}
	res, err = db.Exec(`UPDATE t SET v = (SELECT MAX(v) FROM t) WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Fatalf("update affected = %d, want 1", res.Affected)
	}
	chk, err := db.Query(`SELECT v FROM t WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if chk.Rows[0][0].I != 20 {
		t.Fatalf("v = %v, want 20 (max of remaining rows)", chk.Rows[0][0])
	}
}

// TestSetStatementSession pins the SQL `SET` statement: it configures
// the executing session only, accepts the documented keys, rejects
// anything else, and — being a read-only statement — does not bump the
// write epoch (cached plans must survive it).
func TestSetStatementSession(t *testing.T) {
	db := sessionTestDB(t)
	a, b := db.NewSession(), db.NewSession()

	epoch := db.Epoch()
	if _, err := a.Exec(`SET mode = rewrite; SET algorithm = 'parallel'; SET workers = 3`); err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != epoch {
		t.Fatalf("SET bumped the write epoch: %d -> %d", epoch, db.Epoch())
	}
	if a.Mode() != ModeRewrite || a.Algorithm() != bmo.Parallel || a.Workers() != 3 {
		t.Fatalf("session a settings: mode=%v algo=%v workers=%d", a.Mode(), a.Algorithm(), a.Workers())
	}
	if b.Mode() != ModeNative || b.Algorithm() != bmo.Auto || b.Workers() != 0 {
		t.Fatalf("SET leaked into session b: mode=%v algo=%v workers=%d", b.Mode(), b.Algorithm(), b.Workers())
	}

	for _, bad := range []string{
		`SET mode = 'sideways'`,
		`SET algorithm = 'qsort'`,
		`SET workers = -1`,
		`SET workers = 'many'`,
		`SET turbo = 1`,
		`SET vectorized = on`,
	} {
		if _, err := a.Exec(bad); err == nil {
			t.Errorf("%q: expected error", bad)
		}
	}

	// A parallel session still answers queries correctly.
	res, err := a.Exec(`SET mode = native; SELECT id FROM t PREFERRING LOWEST(v)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}

	// The retired algorithm tokens parse as auto, so sfs now takes a
	// non-score preference too.
	for _, tok := range []string{"sfs", "bestlevel", "vec"} {
		a.SetAlgorithm(bmo.Parallel)
		if _, err := a.Exec(`SET algorithm = ` + tok); err != nil || a.Algorithm() != bmo.Auto {
			t.Errorf("SET algorithm = %s: algo=%v err=%v", tok, a.Algorithm(), err)
		}
	}
	if res, err := a.Exec(`SET algorithm = sfs; SELECT id FROM t PREFERRING EXPLICIT(v, 10 > 20)`); err != nil || len(res.Rows) == 0 {
		t.Errorf("EXPLICIT under sfs: %v", err)
	}
}
