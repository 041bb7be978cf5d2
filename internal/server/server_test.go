package server_test

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	prefsql "repro"
	"repro/client"
	"repro/internal/datagen"
	"repro/internal/server"
	"repro/internal/wire"
)

// startServer opens an embedded database, hands it to a loopback server,
// and returns both plus the dial address.
func startServer(t *testing.T, cacheSize int) (*prefsql.DB, *server.Server, string) {
	t.Helper()
	db := prefsql.Open()
	srv := server.New(db.Internal(), server.Options{CacheSize: cacheSize})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return db, srv, addr.String()
}

func dial(t *testing.T, addr string) *client.Conn {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerBasicRoundtrip(t *testing.T) {
	_, _, addr := startServer(t, 16)
	c := dial(t, addr)

	if res, err := c.Exec(`CREATE TABLE trips (id INT, destination VARCHAR, duration INT, price INT);
		INSERT INTO trips VALUES
			(1, 'Rome',     7, 900),
			(2, 'Lisbon',  13, 750),
			(3, 'Crete',   15, 820),
			(4, 'Iceland', 28, 2100)`); err != nil {
		t.Fatal(err)
	} else if res.Affected != 4 {
		t.Fatalf("affected = %d, want 4", res.Affected)
	}

	res, err := c.Query(`SELECT destination FROM trips PREFERRING duration AROUND 14 ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].S != "Lisbon" || res.Rows[1][0].S != "Crete" {
		t.Fatalf("BMO set = %v", res.Rows)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "destination" {
		t.Fatalf("columns = %v", res.Columns)
	}

	// Statement errors keep the connection usable.
	if _, err := c.Query(`SELECT * FROM nonexistent`); err == nil {
		t.Fatal("want error for missing table")
	}
	if _, err := c.Query(`SELECT id FROM trips`); err != nil {
		t.Fatalf("connection unusable after statement error: %v", err)
	}
}

func TestServerStreamingAndCancel(t *testing.T) {
	db, _, addr := startServer(t, 16)
	if err := datagen.Load(db.Internal().Engine(), "car", datagen.CarColumns(), datagen.Cars(2000, 11)); err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)

	// A cross join far larger than the socket buffers, so the server is
	// still streaming when the cancel lands.
	rows, err := c.QueryIter(`SELECT a.id, b.id FROM car a, car b`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
		if n == 3 {
			break
		}
	}
	if err := rows.Close(); err != nil { // sends Cancel, drains
		t.Fatal(err)
	}
	if rows.Flags()&client.FlagCancelled == 0 {
		t.Error("want FlagCancelled after early Close")
	}

	// The connection survives the cancel and serves the next statement.
	res, err := c.Query(`SELECT COUNT(*) FROM car`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 2000 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}

	// QueryProgressive with an early-stopping consumer.
	got := 0
	cols, err := c.QueryProgressive(
		`SELECT id FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)`,
		func(r client.Row) bool { got++; return got < 2 })
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 || len(cols) != 1 {
		t.Fatalf("progressive: %d rows, cols %v", got, cols)
	}
}

func TestServerPreparedPlanReuse(t *testing.T) {
	_, srv, addr := startServer(t, 16)
	c := dial(t, addr)
	c.MustExec(`CREATE TABLE t (id INT, v INT);
		INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)`)

	st, err := c.Prepare(`SELECT v FROM t WHERE id = 2`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// First execution plans; the second re-executes the cached plan.
	if _, flags, err := st.ExecFlags(); err != nil {
		t.Fatal(err)
	} else if flags&client.FlagCacheHit == 0 {
		t.Error("prepared exec should report cache hit")
	} else if flags&client.FlagPlanReused != 0 {
		t.Error("first exec cannot reuse a plan")
	}
	res, flags, err := st.ExecFlags()
	if err != nil {
		t.Fatal(err)
	}
	if flags&client.FlagPlanReused == 0 {
		t.Error("second exec should reuse the cached plan")
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 20 {
		t.Fatalf("rows = %v", res.Rows)
	}

	// A write moves the epoch: the next exec re-plans and sees new data,
	// the one after reuses again.
	c.MustExec(`INSERT INTO t VALUES (2, 99)`)
	res, flags, err = st.ExecFlags()
	if err != nil {
		t.Fatal(err)
	}
	if flags&client.FlagPlanReused != 0 {
		t.Error("exec after a write must re-plan")
	}
	if len(res.Rows) != 2 {
		t.Fatalf("stale plan: rows = %v", res.Rows)
	}
	if _, flags, err = st.ExecFlags(); err != nil {
		t.Fatal(err)
	} else if flags&client.FlagPlanReused == 0 {
		t.Error("plan should be reused again after re-planning")
	}

	// Query-path cache hits on repeated SQL text.
	q := `SELECT COUNT(*) FROM t`
	if _, flags, err := c.ExecFlags(q); err != nil {
		t.Fatal(err)
	} else if flags&client.FlagCacheHit != 0 {
		t.Error("first query of new text cannot hit")
	}
	if _, flags, err := c.ExecFlags(q); err != nil {
		t.Fatal(err)
	} else if flags&client.FlagCacheHit == 0 {
		t.Error("repeated query text should hit the cache")
	}
	stats := srv.CacheStats()
	if stats.Hits == 0 || stats.Misses == 0 {
		t.Errorf("cache stats look wrong: %+v", stats)
	}
}

func TestServerSessionIsolation(t *testing.T) {
	db, _, addr := startServer(t, 16)
	if err := datagen.Load(db.Internal().Engine(), "car", datagen.CarColumns(), datagen.Cars(300, 42)); err != nil {
		t.Fatal(err)
	}
	query := `SELECT id FROM car WHERE make = 'Opel'
		PREFERRING category = 'roadster' ELSE category <> 'passenger' AND price AROUND 40000`

	a, b := dial(t, addr), dial(t, addr)
	if err := a.SetMode(prefsql.ModeRewrite); err != nil {
		t.Fatal(err)
	}
	// b stays native; both must deliver the same BMO set concurrently.
	var wg sync.WaitGroup
	results := make([][]string, 2)
	errs := make([]error, 2)
	for i, conn := range []*client.Conn{a, b} {
		wg.Add(1)
		go func(i int, conn *client.Conn) {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				res, err := conn.Query(query)
				if err != nil {
					errs[i] = err
					return
				}
				set := rowSet(res.Rows)
				if results[i] != nil && !equalStrings(results[i], set) {
					errs[i] = fmt.Errorf("mode flipped mid-session: %v vs %v", results[i], set)
					return
				}
				results[i] = set
			}
		}(i, conn)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
	}
	if !equalStrings(results[0], results[1]) {
		t.Fatalf("rewrite vs native mismatch:\n%v\n%v", results[0], results[1])
	}
	if len(results[0]) == 0 {
		t.Fatal("empty BMO set")
	}

	// Unknown settings error without killing the session.
	if err := a.SetAlgorithm(client.Algorithm(99)); err == nil {
		t.Error("bogus algorithm should error")
	}
	if _, err := a.Query(`SELECT COUNT(*) FROM car`); err != nil {
		t.Fatalf("session dead after settings error: %v", err)
	}
}

func TestServerWriteSerialization(t *testing.T) {
	_, _, addr := startServer(t, 16)
	setup := dial(t, addr)
	setup.MustExec(`CREATE TABLE log (conn INT, seq INT)`)

	const conns, writes = 16, 25
	var wg sync.WaitGroup
	errCh := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for s := 0; s < writes; s++ {
				if _, err := c.Exec(fmt.Sprintf("INSERT INTO log VALUES (%d, %d)", i, s)); err != nil {
					errCh <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	res, err := setup.Query(`SELECT COUNT(*) FROM log`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].I; got != conns*writes {
		t.Fatalf("count = %d, want %d", got, conns*writes)
	}
}

// TestServer32ConcurrentClients is the acceptance check: 32 concurrent
// clients running the example workloads against one loopback server,
// with every result byte-identical to the embedded engine's.
func TestServer32ConcurrentClients(t *testing.T) {
	db, srv, addr := startServer(t, 64)
	db.MustExec(`
		CREATE TABLE trips (id INT, destination VARCHAR, duration INT, price INT);
		INSERT INTO trips VALUES
			(1, 'Rome',     7, 900),
			(2, 'Lisbon',  13, 750),
			(3, 'Crete',   15, 820),
			(4, 'Iceland', 28, 2100);
		CREATE TABLE hotels (id INT, name VARCHAR, location VARCHAR, price INT);
		INSERT INTO hotels VALUES
			(1, 'Ritz',     'downtown', 320),
			(2, 'Astoria',  'downtown', 280),
			(3, 'Seeblick', 'suburb',   120),
			(4, 'Waldhof',  'suburb',   140),
			(5, 'Transit',  'airport',  150)`)
	if err := datagen.Load(db.Internal().Engine(), "car", datagen.CarColumns(), datagen.Cars(500, 42)); err != nil {
		t.Fatal(err)
	}
	if err := datagen.Load(db.Internal().Engine(), "jobs", datagen.JobColumns(), datagen.Jobs(3000, 2002)); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE INDEX idx_jobs_region ON jobs (region)")

	queries := []string{
		`SELECT * FROM trips PREFERRING duration AROUND 14 AND LOWEST(price) ORDER BY id`,
		`SELECT name, price FROM hotels PREFERRING location <> 'downtown' CASCADE LOWEST(price)`,
		`SELECT id, category, price, power, color, mileage FROM car WHERE make = 'Opel'
		 PREFERRING (category = 'roadster' ELSE category <> 'passenger' AND
		             price AROUND 40000 AND HIGHEST(power))
		 CASCADE color = 'red' CASCADE LOWEST(mileage)`,
		`SELECT id, experience, education, age, mobility FROM jobs
		 WHERE region = 'Bayern' AND salary < 40000
		 PREFERRING experience >= 10 AND education IN ('master', 'phd')
		        AND age <= 35 AND mobility >= 100 ORDER BY id`,
		`SELECT COUNT(*) FROM car WHERE category = 'roadster'`,
	}

	// Expected output, computed on the embedded engine through the same
	// cursor machinery the server streams with.
	expected := make([]string, len(queries))
	for i, q := range queries {
		rows, err := db.QueryIter(q)
		if err != nil {
			t.Fatalf("embedded query %d: %v", i, err)
		}
		var sb strings.Builder
		sb.WriteString(strings.Join(rows.Columns(), "|"))
		for rows.Next() {
			sb.WriteByte('\n')
			sb.WriteString(rows.Row().String())
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("embedded query %d: %v", i, err)
		}
		rows.Close()
		expected[i] = sb.String()
		if !strings.Contains(expected[i], "\n") {
			t.Fatalf("query %d returned no rows (workload broken?)", i)
		}
	}

	const clients = 32
	const rounds = 5
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for round := 0; round < rounds; round++ {
				qi := (g + round) % len(queries)
				rows, err := c.QueryIter(queries[qi])
				if err != nil {
					errCh <- fmt.Errorf("client %d query %d: %w", g, qi, err)
					return
				}
				var sb strings.Builder
				sb.WriteString(strings.Join(rows.Columns(), "|"))
				for rows.Next() {
					sb.WriteByte('\n')
					sb.WriteString(rows.Row().String())
				}
				if err := rows.Err(); err != nil {
					errCh <- fmt.Errorf("client %d query %d: %w", g, qi, err)
					return
				}
				rows.Close()
				if sb.String() != expected[qi] {
					errCh <- fmt.Errorf("client %d query %d: result differs from embedded engine:\nserver:\n%s\nembedded:\n%s",
						g, qi, sb.String(), expected[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	stats := srv.CacheStats()
	if stats.Hits == 0 {
		t.Errorf("no cache hits across %d clients × %d rounds: %+v", clients, rounds, stats)
	}
	t.Logf("cache: %+v (hit rate %.0f%%)", stats, stats.HitRate()*100)
}

func rowSet(rows []prefsql.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	// insertion-order independent
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClientBusyAndLeakedRows pins the client's concurrency contract: a
// statement attempted while a Rows stream is open gets ErrBusy instead
// of deadlocking, and Conn.Close unblocks even with a leaked iterator.
func TestClientBusyAndLeakedRows(t *testing.T) {
	db, _, addr := startServer(t, 16)
	if err := datagen.Load(db.Internal().Engine(), "car", datagen.CarColumns(), datagen.Cars(2000, 7)); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.QueryIter(`SELECT a.id, b.id FROM car a, car b`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no rows")
	}
	if _, err := c.Query(`SELECT COUNT(*) FROM car`); err != client.ErrBusy {
		t.Fatalf("want ErrBusy while streaming, got %v", err)
	}
	if _, err := c.Prepare(`SELECT id FROM car`); err != client.ErrBusy {
		t.Fatalf("want ErrBusy from Prepare while streaming, got %v", err)
	}
	// Leak the iterator deliberately: Close must not deadlock. Frames
	// already buffered client-side may still iterate, but the stream
	// must terminate with an error rather than completing normally.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if rows.Err() == nil {
		t.Error("stream should end with an error after connection close")
	}
	if _, err := c.Query(`SELECT 1 FROM car`); err != client.ErrClosed {
		t.Fatalf("want ErrClosed after Close, got %v", err)
	}
}

// TestPreparedTransientPlanFailure: preparing a SELECT before its table
// exists must not permanently disable plan caching for that statement.
func TestPreparedTransientPlanFailure(t *testing.T) {
	_, _, addr := startServer(t, 16)
	c := dial(t, addr)
	st, err := c.Prepare(`SELECT id FROM latecomer`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(); err == nil {
		t.Fatal("execute against a missing table should fail")
	}
	c.MustExec(`CREATE TABLE latecomer (id INT); INSERT INTO latecomer VALUES (1)`)
	if res, err := st.Exec(); err != nil {
		t.Fatal(err)
	} else if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if _, flags, err := st.ExecFlags(); err != nil {
		t.Fatal(err)
	} else if flags&client.FlagPlanReused == 0 {
		t.Error("plan caching should recover once the table exists")
	}
}

// TestCacheSkipsWriteScripts: ad-hoc DML scripts must not occupy the
// shared statement cache.
func TestCacheSkipsWriteScripts(t *testing.T) {
	_, srv, addr := startServer(t, 4)
	c := dial(t, addr)
	c.MustExec(`CREATE TABLE t (id INT)`)
	hot := `SELECT COUNT(*) FROM t`
	c.MustExec(hot) // miss: enters the cache
	for i := 0; i < 20; i++ {
		c.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d)", i)) // distinct one-shot writes
	}
	if _, flags, err := c.ExecFlags(hot); err != nil {
		t.Fatal(err)
	} else if flags&client.FlagCacheHit == 0 {
		t.Error("hot SELECT was evicted by one-shot write scripts")
	}
	if stats := srv.CacheStats(); stats.Size > 4 {
		t.Errorf("cache grew past capacity: %+v", stats)
	}
}

// TestRemoteQueryRejectsNonSelect pins Query parity between the client
// and the embedded DB: both refuse DML/DDL on the read-only path.
func TestRemoteQueryRejectsNonSelect(t *testing.T) {
	_, _, addr := startServer(t, 4)
	c := dial(t, addr)
	c.MustExec(`CREATE TABLE t (a INT)`)
	if _, err := c.Query(`INSERT INTO t VALUES (1)`); err == nil {
		t.Fatal("remote Query accepted DML")
	}
	if res, err := c.Query(`SELECT COUNT(*) FROM t`); err != nil {
		t.Fatal(err)
	} else if res.Rows[0][0].I != 0 {
		t.Fatal("the rejected INSERT ran anyway")
	}
}

// TestSetWorkersOverWire pins the workers session setting end to end:
// valid values apply, invalid ones error without killing the session,
// and the SQL SET statement works through the wire too.
func TestSetWorkersOverWire(t *testing.T) {
	_, _, addr := startServer(t, 16)
	c := dial(t, addr)

	if _, err := c.Exec(`CREATE TABLE pts (id INT, x INT, y INT);
		INSERT INTO pts VALUES (1, 1, 9), (2, 9, 1), (3, 5, 5), (4, 6, 6)`); err != nil {
		t.Fatal(err)
	}
	if err := c.SetWorkers(4); err != nil {
		t.Fatal(err)
	}
	if err := c.SetWorkers(-1); err == nil {
		t.Error("negative workers should error client-side")
	}
	if err := c.SetAlgorithm(prefsql.Parallel); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`SET workers = 'lots'`); err == nil {
		t.Error("non-integer workers should error")
	}
	// The session survives the failed SET and still answers queries on
	// the parallel algorithm.
	res, err := c.Query(`SELECT id FROM pts PREFERRING LOWEST(x) AND LOWEST(y)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}

	// vectorized is no longer a setting; the retired algorithm tokens
	// parse as auto, so sfs now takes a non-score preference too.
	if _, err := c.Exec(`SET vectorized = on`); err == nil || !strings.Contains(err.Error(), "unknown setting") {
		t.Errorf("SET vectorized over the wire: %v", err)
	}
	if _, err := c.Exec(`SET algorithm = sfs`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`SELECT id FROM pts PREFERRING EXPLICIT(x, 1 > 9)`); err != nil {
		t.Errorf("EXPLICIT under sfs: %v", err)
	}

	// The same through the protocol's Set message.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var hello wire.Buffer
	hello.U16(wire.Version)
	hello.String("set-test")
	if err := wire.WriteFrame(nc, wire.MsgHello, hello.B); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(nc); err != nil || typ != wire.MsgHelloOK {
		t.Fatalf("handshake: %#x, %v", typ, err)
	}
	for _, tc := range []struct {
		key, val string
		want     byte
	}{
		{wire.SetAlgorithm, "sfs", wire.MsgDone},
		{wire.SetAlgorithm, "bestlevel", wire.MsgDone},
		{wire.SetAlgorithm, "vec", wire.MsgDone},
		{"vectorized", "on", wire.MsgError},
	} {
		var set wire.Buffer
		set.String(tc.key)
		set.String(tc.val)
		if err := wire.WriteFrame(nc, wire.MsgSet, set.B); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := wire.ReadFrame(nc); err != nil || typ != tc.want {
			t.Errorf("Set %s=%s: reply %#x (%v), want %#x", tc.key, tc.val, typ, err, tc.want)
		}
	}
}
