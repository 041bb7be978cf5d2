package core

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/live"
	"repro/internal/value"
)

func carsDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE cars (id INTEGER PRIMARY KEY, make VARCHAR, price FLOAT, power FLOAT);
		INSERT INTO cars VALUES
		(1, 'Audi', 40000, 150),
		(2, 'BMW', 35000, 140),
		(3, 'Opel', 20000, 90),
		(4, 'VW', 25000, 110)`)
	return db
}

// applyDeltas folds a drained channel into the multiset of row keys.
func applyDeltas(t *testing.T, sub *live.Subscription, state map[string]int) {
	t.Helper()
	for {
		select {
		case d, ok := <-sub.C():
			if !ok {
				return
			}
			if d.Op == live.OpAdd {
				state[d.Row.Key()]++
			} else {
				state[d.Row.Key()]--
				if state[d.Row.Key()] == 0 {
					delete(state, d.Row.Key())
				}
			}
		default:
			return
		}
	}
}

func stateKeys(state map[string]int) []string {
	var out []string
	for k, n := range state {
		for i := 0; i < n; i++ {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func resultKeys(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.Key()
	}
	sort.Strings(out)
	return out
}

func TestSubscribePreferenceMaintained(t *testing.T) {
	db := carsDB(t)
	sub, err := db.DefaultSession().Subscribe(context.Background(),
		`SUBSCRIBE SELECT * FROM cars PREFERRING LOWEST(price) AND HIGHEST(power)`)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	state := map[string]int{}
	for _, r := range sub.Initial() {
		state[r.Key()]++
	}
	check := func(stage string) {
		t.Helper()
		applyDeltas(t, sub, state)
		res, err := db.Query(`SELECT * FROM cars PREFERRING LOWEST(price) AND HIGHEST(power)`)
		if err != nil {
			t.Fatal(err)
		}
		got, want := stateKeys(state), resultKeys(res)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%s: maintained state diverged\ngot:  %v\nwant: %v", stage, got, want)
		}
	}
	check("initial")

	mustExec(t, db, `INSERT INTO cars VALUES (5, 'Dacia', 12000, 80)`)
	check("insert newcomer")
	mustExec(t, db, `INSERT INTO cars VALUES (6, 'Super', 10000, 500)`) // dominates several
	check("insert dominator")
	mustExec(t, db, `DELETE FROM cars WHERE id = 6`) // forces requalification
	check("delete skyline member")
	mustExec(t, db, `UPDATE cars SET price = 9000 WHERE id = 3`)
	check("update into skyline")
	mustExec(t, db, `UPDATE cars SET make = 'Opel2' WHERE id = 3`) // non-preference column
	check("update projection only")

	if db.Live().ActiveCount() != 1 {
		t.Fatalf("active = %d, want 1", db.Live().ActiveCount())
	}
	sub.Close()
	if db.Live().ActiveCount() != 0 {
		t.Fatalf("active after close = %d, want 0", db.Live().ActiveCount())
	}
}

func TestSubscribePlainSelectAndParams(t *testing.T) {
	db := carsDB(t)
	sub, err := db.DefaultSession().Subscribe(context.Background(),
		`SELECT make, price FROM cars WHERE price < ?`, 30000)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if got := sub.Columns(); len(got) != 2 || got[0] != "make" || got[1] != "price" {
		t.Fatalf("columns = %v", got)
	}
	if len(sub.Initial()) != 2 { // Opel, VW
		t.Fatalf("initial = %v", sub.Initial())
	}
	mustExec(t, db, `INSERT INTO cars VALUES (7, 'Fiat', 15000, 70)`)
	mustExec(t, db, `INSERT INTO cars VALUES (8, 'Rolls', 300000, 400)`) // filtered
	var got []value.Row
	for len(got) == 0 {
		select {
		case d := <-sub.C():
			got = append(got, d.Row)
		default:
			t.Fatal("no delta for matching insert")
		}
	}
	if got[0][0].S != "Fiat" || len(sub.C()) != 0 {
		t.Fatalf("deltas = %v (queued %d)", got, len(sub.C()))
	}
}

func TestSubscribeCtxCancelCloses(t *testing.T) {
	db := carsDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	sub, err := db.DefaultSession().Subscribe(ctx, `SELECT * FROM cars`)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	for range sub.C() {
	} // closes when the watcher fires
	if sub.Err() != nil {
		t.Fatalf("ctx close must be clean, got %v", sub.Err())
	}
}

func TestSubscribeValidation(t *testing.T) {
	db := carsDB(t)
	mustExec(t, db, `CREATE VIEW cheap AS SELECT * FROM cars WHERE price < 30000`)
	sess := db.DefaultSession()
	for _, tc := range []struct{ sql, wantErr string }{
		{`SUBSCRIBE SELECT * FROM cars, cars`, "exactly one table"},
		{`SUBSCRIBE SELECT * FROM cheap`, "view"},
		{`SUBSCRIBE SELECT * FROM nope`, "no such table"},
		{`SUBSCRIBE SELECT * FROM cars ORDER BY price`, "ORDER BY"},
		{`SUBSCRIBE SELECT * FROM cars LIMIT 3`, "LIMIT"},
		{`SUBSCRIBE SELECT DISTINCT make FROM cars`, "DISTINCT"},
		{`SUBSCRIBE SELECT make, COUNT(*) FROM cars GROUP BY make`, "GROUP BY"},
		{`SUBSCRIBE SELECT COUNT(*) FROM cars`, "aggregate functions"},
		{`SUBSCRIBE SELECT SUM(price) FROM cars PREFERRING LOWEST(price)`, "aggregate functions"},
		{`SUBSCRIBE SELECT * FROM cars PREFERRING LOWEST(price) GROUPING make`, "GROUPING"},
		{`SUBSCRIBE SELECT * FROM cars PREFERRING LOWEST(price) BUT ONLY LEVEL(price) < 2`, "BUT ONLY"},
		{`SUBSCRIBE SELECT make, LEVEL(price) FROM cars PREFERRING LOWEST(price)`, "quality"},
		{`SUBSCRIBE SELECT * FROM cars WHERE price > (SELECT 1)`, "subquer"},
		{`SUBSCRIBE SELECT * FROM (SELECT * FROM cars) c`, "single base table"},
		{`SUBSCRIBE INSERT INTO cars VALUES (9, 'x', 1, 1)`, ""}, // parse error: SUBSCRIBE must wrap SELECT
		{`SELECT * FROM cars; SELECT * FROM cars`, "exactly one statement"},
	} {
		_, err := sess.Subscribe(context.Background(), tc.sql)
		if err == nil {
			t.Errorf("%s: expected error", tc.sql)
			continue
		}
		if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.sql, err, tc.wantErr)
		}
	}
	if db.Live().ActiveCount() != 0 {
		t.Fatalf("failed subscribes leaked registrations: %d", db.Live().ActiveCount())
	}
}

func TestSubscribeStmtViaExecRejected(t *testing.T) {
	db := carsDB(t)
	_, err := db.Exec(`SUBSCRIBE SELECT * FROM cars`)
	if err == nil || !strings.Contains(err.Error(), "streaming consumer") {
		t.Fatalf("Exec of SUBSCRIBE: %v", err)
	}
}

func TestSubscribeNamedPreference(t *testing.T) {
	db := carsDB(t)
	mustExec(t, db, `CREATE PREFERENCE thrifty AS LOWEST(price)`)
	sub, err := db.DefaultSession().Subscribe(context.Background(),
		`SUBSCRIBE SELECT * FROM cars PREFERRING PREFERENCE thrifty`)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if len(sub.Initial()) != 1 || sub.Initial()[0][0].I != 3 {
		t.Fatalf("initial = %v", sub.Initial())
	}
	mustExec(t, db, `INSERT INTO cars VALUES (9, 'Trabi', 5000, 26)`)
	// The dominated member's eviction is emitted before the newcomer's add.
	d := <-sub.C()
	if d.Op != live.OpRemove || d.Row[0].I != 3 {
		t.Fatalf("delta = %+v", d)
	}
	d = <-sub.C()
	if d.Op != live.OpAdd || d.Row[0].I != 9 {
		t.Fatalf("delta = %+v", d)
	}
}
