package server_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/client"
)

func TestSubscribeOverWire(t *testing.T) {
	db, _, addr := startServer(t, 16)
	c := dial(t, addr)
	c.MustExec(`CREATE TABLE cars (id INTEGER PRIMARY KEY, make VARCHAR, price FLOAT, power FLOAT);
		INSERT INTO cars VALUES (1, 'Audi', 40000, 150), (2, 'BMW', 35000, 140), (3, 'Opel', 20000, 90)`)

	sub, err := c.Subscribe(context.Background(),
		`SUBSCRIBE SELECT id, make FROM cars PREFERRING LOWEST(price)`)
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.Columns(); len(got) != 2 || got[0] != "id" || got[1] != "make" {
		t.Fatalf("columns = %v", got)
	}
	if len(sub.Initial()) != 1 || sub.Initial()[0][1].S != "Opel" {
		t.Fatalf("initial = %v", sub.Initial())
	}

	// A cheaper car displaces Opel: eviction delta, then the add.
	db.MustExec(`INSERT INTO cars VALUES (4, 'Dacia', 9000, 75)`)
	if !sub.Next() {
		t.Fatalf("stream ended early: %v", sub.Err())
	}
	d := sub.Delta()
	if d.Op != client.DeltaRemove || d.Seq != 1 || d.Row[1].S != "Opel" {
		t.Fatalf("delta 1 = %+v", d)
	}
	if !sub.Next() {
		t.Fatalf("stream ended early: %v", sub.Err())
	}
	d = sub.Delta()
	if d.Op != client.DeltaAdd || d.Seq != 2 || d.Row[1].S != "Dacia" {
		t.Fatalf("delta 2 = %+v", d)
	}

	// Unsubscribe frees the connection for ordinary statements.
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if sub.Err() != nil {
		t.Fatalf("clean close reports %v", sub.Err())
	}
	res, err := c.Query(`SELECT COUNT(*) FROM cars`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 4 {
		t.Fatalf("post-close query = %v", res.Rows)
	}
	waitActive(t, func() int { return db.Internal().Live().ActiveCount() }, 0)
}

func TestSubscribeWireBadSQL(t *testing.T) {
	_, _, addr := startServer(t, 16)
	c := dial(t, addr)
	c.MustExec(`CREATE TABLE t (a INT)`)
	for _, sql := range []string{
		`SUBSCRIBE SELECT * FROM nope`,
		`SUBSCRIBE SELECT * FROM t ORDER BY a`,
		`SUBSCRIBE SELECT COUNT(*) FROM t`,
		`SUBSCRIBE nonsense`,
	} {
		if _, err := c.Subscribe(context.Background(), sql); err == nil {
			t.Errorf("%s: expected error", sql)
		}
	}
	// The connection survives rejected subscriptions.
	if res := c.MustExec(`INSERT INTO t VALUES (1)`); res.Affected != 1 {
		t.Fatalf("affected = %d", res.Affected)
	}
}

func TestSubscribeWireBusyAndParams(t *testing.T) {
	db, _, addr := startServer(t, 16)
	c := dial(t, addr)
	c.MustExec(`CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (5)`)
	sub, err := c.Subscribe(context.Background(), `SELECT a FROM t WHERE a > ?`, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if len(sub.Initial()) != 1 || sub.Initial()[0][0].I != 5 {
		t.Fatalf("initial = %v", sub.Initial())
	}
	if _, err := c.Query(`SELECT * FROM t`); !errors.Is(err, client.ErrBusy) {
		t.Fatalf("query during stream: %v", err)
	}
	db.MustExec(`INSERT INTO t VALUES (9)`)
	if !sub.Next() || sub.Delta().Row[0].I != 9 {
		t.Fatalf("delta = %+v err=%v", sub.Delta(), sub.Err())
	}
}

func TestSubscribeWireCtxCancel(t *testing.T) {
	db, _, addr := startServer(t, 16)
	c := dial(t, addr)
	c.MustExec(`CREATE TABLE t (a INT)`)
	ctx, cancel := context.WithCancel(context.Background())
	sub, err := c.Subscribe(ctx, `SELECT * FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	for sub.Next() {
	}
	if !errors.Is(sub.Err(), context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", sub.Err())
	}
	waitActive(t, func() int { return db.Internal().Live().ActiveCount() }, 0)
	// Connection is released for the next statement.
	c.MustExec(`INSERT INTO t VALUES (1)`)
}

func TestSubscribeWireEviction(t *testing.T) {
	db, _, addr := startServer(t, 16)
	c := dial(t, addr)
	c.MustExec(`CREATE TABLE t (a INT)`)
	sub, err := c.SubscribeBuffered(context.Background(), 2, `SELECT a FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	// Never read a delta: the handler blocks once the socket buffers
	// fill, the 2-slot queue overflows, and the server evicts us.
	deadline := time.Now().Add(20 * time.Second)
	for db.Internal().Live().ActiveCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never evicted the stalled consumer")
		}
		db.MustExec(`INSERT INTO t VALUES (1)`)
	}
	// The client observes the eviction as a terminated stream: either the
	// explicit FlagEvicted Done or the closed connection, depending on
	// how much of the stream was already in flight.
	for sub.Next() {
	}
	if sub.Err() == nil {
		t.Fatal("evicted stream ended without error")
	}
}

func TestSubscribeWireServerClose(t *testing.T) {
	db, srv, addr := startServer(t, 16)
	c := dial(t, addr)
	c.MustExec(`CREATE TABLE t (a INT)`)
	sub, err := c.Subscribe(context.Background(), `SELECT * FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for sub.Next() {
		}
	}()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not terminate on Server.Close")
	}
	if sub.Err() == nil {
		t.Fatal("server shutdown must surface as a stream error")
	}
	waitActive(t, func() int { return db.Internal().Live().ActiveCount() }, 0)
}

func TestSubscribeWireClientDisconnect(t *testing.T) {
	db, _, addr := startServer(t, 16)
	c := dial(t, addr)
	c.MustExec(`CREATE TABLE t (a INT)`)
	if _, err := c.Subscribe(context.Background(), `SELECT * FROM t`); err != nil {
		t.Fatal(err)
	}
	waitActive(t, func() int { return db.Internal().Live().ActiveCount() }, 1)
	c.Close() // hang up without unsubscribing
	waitActive(t, func() int { return db.Internal().Live().ActiveCount() }, 0)
}

// waitActive polls fn until it reports want (registrations detach
// asynchronously when a peer vanishes).
func waitActive(t *testing.T, fn func() int, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for fn() != want {
		if time.Now().After(deadline) {
			t.Fatalf("active subscriptions = %d, want %d", fn(), want)
		}
		time.Sleep(time.Millisecond)
	}
}
