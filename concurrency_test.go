package prefsql

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/client"
	"repro/internal/datagen"
	"repro/internal/server"
)

// stressWorkloads is the subset of parityWorkloads whose tables don't
// collide, so they can share one database (mobilesearch reloads the car
// table carsearch already owns and is left out).
func stressWorkloads(t *testing.T, db *DB) (queries []string) {
	for _, w := range parityWorkloads {
		if w.name == "mobilesearch" {
			continue
		}
		w.setup(t, db)
		queries = append(queries, w.queries...)
	}
	return queries
}

// TestConcurrentParityStress runs the parity workloads across many
// goroutines — mixed readers (half native, half rewrite mode; embedded
// sessions and loopback server connections) plus one writer hammering a
// scratch table — and asserts every reader keeps seeing exactly the
// single-threaded BMO sets. Run with -race, this is the concurrency
// safety net for the session/locking layer.
func TestConcurrentParityStress(t *testing.T) {
	db := Open()
	queries := stressWorkloads(t, db)

	// Single-threaded expected sets (order-insensitive: rewrite mode and
	// the streaming cursor order rows differently).
	expected := make([][]string, len(queries))
	for i, q := range queries {
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("query %d: empty BMO set (workload broken?)", i)
		}
		expected[i] = rowSet(res.Rows)
	}

	db.MustExec(`CREATE TABLE scratch (id INT, v INT)`)

	srv := server.New(db.Internal(), server.Options{CacheSize: 64})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const (
		embeddedReaders = 6
		remoteReaders   = 6
		rounds          = 3
	)
	var wg sync.WaitGroup
	errCh := make(chan error, embeddedReaders+remoteReaders+1)

	check := func(who string, qi int, rows []Row, err error) error {
		if err != nil {
			return fmt.Errorf("%s query %d: %w", who, qi, err)
		}
		if got := rowSet(rows); !equalSets(got, expected[qi]) {
			return fmt.Errorf("%s query %d: BMO set diverged under concurrency:\ngot:  %v\nwant: %v",
				who, qi, got, expected[qi])
		}
		return nil
	}

	// Embedded readers, each with its own session; odd ones use rewrite
	// mode, so the §3.2 view machinery runs concurrently too.
	for g := 0; g < embeddedReaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := db.NewSession()
			if g%2 == 1 {
				sess.SetMode(ModeRewrite)
			}
			for r := 0; r < rounds; r++ {
				for qi, q := range queries {
					res, err := sess.Query(q)
					if err := check(fmt.Sprintf("embedded[%d]", g), qi, resRows(res), err); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}

	// Remote readers over the loopback server; odd ones in rewrite mode.
	for g := 0; g < remoteReaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.Dial(addr.String())
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			if g%2 == 1 {
				if err := c.SetMode(ModeRewrite); err != nil {
					errCh <- err
					return
				}
			}
			for r := 0; r < rounds; r++ {
				for qi, q := range queries {
					res, err := c.Query(q)
					if err := check(fmt.Sprintf("remote[%d]", g), qi, resRows(res), err); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}

	// One writer: DML on a scratch table the readers never touch, so the
	// expected sets stay valid while the write path contends for real.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := client.Dial(addr.String())
		if err != nil {
			errCh <- err
			return
		}
		defer c.Close()
		for i := 0; i < 60; i++ {
			if _, err := c.Exec(fmt.Sprintf("INSERT INTO scratch VALUES (%d, %d)", i, i*i)); err != nil {
				errCh <- fmt.Errorf("writer: %w", err)
				return
			}
			if i%10 == 9 {
				if _, err := db.Exec(fmt.Sprintf("UPDATE scratch SET v = 0 WHERE id < %d", i-5)); err != nil {
					errCh <- fmt.Errorf("writer: %w", err)
					return
				}
				if _, err := c.Exec(fmt.Sprintf("DELETE FROM scratch WHERE id < %d", i-8)); err != nil {
					errCh <- fmt.Errorf("writer: %w", err)
					return
				}
			}
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

func resRows(res *Result) []Row {
	if res == nil {
		return nil
	}
	return res.Rows
}

// canonical renders a result as sorted row keys, so two runs compare
// byte-identical regardless of emission order (parallel merges and the
// progressive stream order rows differently from batch BNL).
func canonical(rows []Row) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// TestConcurrentParallelBMOStress pins the parallel partition-merge and
// vectorized executors under -race: 16 concurrent server sessions run
// preference queries — sessions split between the parallel algorithm
// (selected via client SetAlgorithm/SetWorkers or the SQL `SET
// algorithm` statement), the explicit vectorized algorithm, and planner
// defaults (which vec-select the big-table query, racing the column-
// vector cache against the writer) — mixed with a writer
// on a scratch table, and every result must stay byte-identical to the
// single-threaded BNL baseline computed up front.
func TestConcurrentParallelBMOStress(t *testing.T) {
	db := Open()
	cols := datagen.SkylineColumns(4)
	rows := datagen.Skyline(4000, 4, datagen.AntiCorrelated, 7)
	if err := datagen.Load(db.Internal().Engine(), "pts", cols, rows); err != nil {
		t.Fatal(err)
	}
	// vpts sits above the planner's auto threshold, so default sessions
	// take the planner-selected vectorized path with the columnar fill.
	if err := datagen.Load(db.Internal().Engine(), "vpts", datagen.SkylineColumns(3),
		datagen.Skyline(12000, 3, datagen.Independent, 8)); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE scratch (id INT, v INT)`)

	queries := []string{
		`SELECT id FROM pts PREFERRING LOWEST(d1) AND LOWEST(d2) AND LOWEST(d3)`,
		`SELECT id FROM pts WHERE d4 < 0.9 PREFERRING LOWEST(d1) AND HIGHEST(d2)`,
		`SELECT id, d1 FROM pts PREFERRING d1 AROUND 0.5 AND d2 AROUND 0.5 AND LOWEST(d3)`,
		`SELECT id FROM pts PREFERRING (LOWEST(d1) AND LOWEST(d2)) CASCADE HIGHEST(d3)`,
		`SELECT id FROM vpts PREFERRING LOWEST(d1) AND LOWEST(d2)`,
	}

	// Single-threaded baseline with the sequential reference algorithm.
	db.SetAlgorithm(BlockNestedLoop)
	baseline := make([]string, len(queries))
	for i, q := range queries {
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("baseline %d: %v", i, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("baseline %d: empty BMO set", i)
		}
		baseline[i] = canonical(res.Rows)
	}
	db.SetAlgorithm(Auto)

	srv := server.New(db.Internal(), server.Options{CacheSize: 64})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const (
		sessions = 16
		rounds   = 2
	)
	var wg sync.WaitGroup
	errCh := make(chan error, sessions+1)

	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.Dial(addr.String())
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			// Sessions split four ways: parallel via the client API,
			// parallel via the SQL SET statement, the explicit vectorized
			// algorithm, and planner defaults (Auto vec-selects the
			// big-table query) — API and SET paths land on the same
			// session settings.
			switch g % 4 {
			case 0:
				if err := c.SetAlgorithm(Parallel); err != nil {
					errCh <- err
					return
				}
				if err := c.SetWorkers(2 + g%3); err != nil {
					errCh <- err
					return
				}
			case 1:
				if _, err := c.Exec(`SET algorithm = 'parallel'`); err != nil {
					errCh <- err
					return
				}
				if _, err := c.Exec(fmt.Sprintf(`SET workers = %d`, 1+g%4)); err != nil {
					errCh <- err
					return
				}
			case 2:
				if _, err := c.Exec(`SET algorithm = 'vec'`); err != nil {
					errCh <- err
					return
				}
				if err := c.SetWorkers(1 + g%3); err != nil {
					errCh <- err
					return
				}
			default:
				// Planner defaults; re-assert the vectorized setting
				// through the wire path for coverage.
				if err := c.SetVectorized(true); err != nil {
					errCh <- err
					return
				}
			}
			for r := 0; r < rounds; r++ {
				for qi, q := range queries {
					res, err := c.Query(q)
					if err != nil {
						errCh <- fmt.Errorf("session %d query %d: %w", g, qi, err)
						return
					}
					if got := canonical(res.Rows); got != baseline[qi] {
						errCh <- fmt.Errorf("session %d query %d: parallel BMO diverged from sequential baseline (%d vs %d rows)",
							g, qi, len(res.Rows), strings.Count(baseline[qi], "\n")+1)
						return
					}
				}
			}
		}(g)
	}

	// A writer hammering an unrelated table, so parallel reads contend
	// with the exclusive write path for real.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO scratch VALUES (%d, %d)", i, i*i)); err != nil {
				errCh <- fmt.Errorf("writer: %w", err)
				return
			}
			if i%10 == 9 {
				if _, err := db.Exec(fmt.Sprintf("DELETE FROM scratch WHERE id < %d", i-5)); err != nil {
					errCh <- fmt.Errorf("writer: %w", err)
					return
				}
			}
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestConcurrentPreparedGroupedStress shares one prepared grouped
// statement — whose plan, Aggregate node included, is cached and reused
// — across sessions while a writer's inserts keep moving the epoch, so
// executions race plan rebuilds. Every result must be one consistent
// snapshot: each group's COUNT(*) equals its SUM(v) (all v are 1), and a
// session never sees the total shrink. Run with -race.
func TestConcurrentPreparedGroupedStress(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE g (cat VARCHAR, v INT); INSERT INTO g VALUES ('a', 1), ('b', 1)`)
	prep, err := db.Internal().Prepare(`SELECT cat, COUNT(*), SUM(v) FROM g GROUP BY cat`)
	if err != nil {
		t.Fatal(err)
	}
	const (
		readers = 8
		rounds  = 60
		inserts = 40
	)
	var wg sync.WaitGroup
	errCh := make(chan error, readers+1)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := db.Internal().NewSession()
			last := int64(0)
			for r := 0; r < rounds; r++ {
				res, _, err := sess.ExecPrepared(prep)
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", g, err)
					return
				}
				total := int64(0)
				for _, row := range res.Rows {
					if row[1].I != row[2].I {
						errCh <- fmt.Errorf("reader %d: torn group %v", g, row)
						return
					}
					total += row[1].I
				}
				if len(res.Rows) != 2 || total < last {
					errCh <- fmt.Errorf("reader %d: groups %v after a total of %d", g, res.Rows, last)
					return
				}
				last = total
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < inserts; i++ {
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO g VALUES ('%c', 1)", 'a'+i%2)); err != nil {
				errCh <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Once the writer is done, the plan settles and is reused.
	sess := db.Internal().NewSession()
	for i := 0; i < 2; i++ {
		res, reused, err := sess.ExecPrepared(prep)
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 && !reused {
			t.Error("quiescent re-execution did not reuse the cached plan")
		}
		if got := fmt.Sprint(res.Rows); got != "[(a, 21, 21) (b, 21, 21)]" {
			t.Errorf("final groups = %s", got)
		}
	}
}

// TestSessionSettingsIsolated pins the satellite contract: sessions
// carry their own mode/algorithm, and the deprecated DB-level setters
// only configure the default session.
func TestSessionSettingsIsolated(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE t (a INT, b INT);
		INSERT INTO t VALUES (1, 9), (2, 5), (3, 1)`)

	a, b := db.NewSession(), db.NewSession()
	a.SetMode(ModeRewrite)
	if b.Mode() != ModeNative {
		t.Fatal("session b inherited session a's mode")
	}
	db.SetMode(ModeRewrite) // default session only
	if a.Mode() != ModeRewrite || b.Mode() != ModeNative {
		t.Fatal("DB-level setter leaked into explicit sessions")
	}
	db.SetMode(ModeNative)

	qa, err := a.Query(`SELECT a FROM t PREFERRING LOWEST(b)`)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := b.Query(`SELECT a FROM t PREFERRING LOWEST(b)`)
	if err != nil {
		t.Fatal(err)
	}
	if !equalSets(rowSet(qa.Rows), rowSet(qb.Rows)) {
		t.Fatalf("rewrite vs native mismatch: %v vs %v", qa.Rows, qb.Rows)
	}
}

// TestQueryRejectsNonSelect pins the Query/Exec split: Query is the
// read-only path and refuses statements that would need the write lock.
func TestQueryRejectsNonSelect(t *testing.T) {
	db := Open()
	if _, err := db.Query(`CREATE TABLE t (a INT)`); err == nil {
		t.Fatal("Query accepted DDL")
	}
	db.MustExec(`CREATE TABLE t (a INT); INSERT INTO t VALUES (1)`)
	if _, err := db.Query(`INSERT INTO t VALUES (2)`); err == nil {
		t.Fatal("Query accepted DML")
	}
	res, err := db.Query(`SELECT a FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}
