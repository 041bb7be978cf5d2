package server_test

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	prefsql "repro"
	"repro/client"
	"repro/internal/server"
	"repro/internal/wire"
)

// startServerOpts is startServer with full Options control.
func startServerOpts(t *testing.T, opts server.Options) (*prefsql.DB, string) {
	t.Helper()
	db := prefsql.Open()
	srv := server.New(db.Internal(), opts)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return db, addr.String()
}

// TestIdleTimeoutDisconnectsSilentClient: a client that goes silent with
// no statement in flight is disconnected once the idle deadline passes —
// the dead-peer reaper for abandoned connections.
func TestIdleTimeoutDisconnectsSilentClient(t *testing.T) {
	_, addr := startServerOpts(t, server.Options{CacheSize: 4, IdleTimeout: 150 * time.Millisecond})
	c := dial(t, addr)
	if _, err := c.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(600 * time.Millisecond)
	if _, err := c.Query("SELECT * FROM t"); err == nil {
		t.Fatal("want a broken-connection error after idling past the deadline")
	}
	// The server stays healthy: fresh connections work.
	c2 := dial(t, addr)
	if _, err := c2.Query("SELECT * FROM t"); err != nil {
		t.Fatalf("fresh connection after idle eviction: %v", err)
	}
}

// TestIdleTimeoutSparesInFlightStatements: while a statement is in
// flight the client is legitimately silent (it is reading our frames),
// so the idle deadline must re-arm instead of killing the connection. A
// subscription is the extreme case — the statement stays in flight for
// the connection's lifetime.
func TestIdleTimeoutSparesInFlightStatements(t *testing.T) {
	db, addr := startServerOpts(t, server.Options{CacheSize: 4, IdleTimeout: 150 * time.Millisecond})
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)
	sub, err := c.Subscribe(t.Context(), "SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	// Stay silent for several idle periods, then prove the stream lives.
	time.Sleep(600 * time.Millisecond)
	if _, err := db.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if !sub.Next() {
		t.Fatalf("subscription died during idle silence: %v", sub.Err())
	}
	if d := sub.Delta(); d.Row[0].I != 1 {
		t.Fatalf("delta = %v", d)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIdleTimeoutSparesQueuedStatements: a statement counts as in flight
// from the moment its frame is read, not from when its handler starts. A
// handler stalled past the idle deadline before it begins (a busy box
// under a full test run) must not get its connection reaped.
func TestIdleTimeoutSparesQueuedStatements(t *testing.T) {
	t.Cleanup(server.SetFrameHook(func(typ byte) {
		if typ == wire.MsgQuery {
			time.Sleep(400 * time.Millisecond)
		}
	}))
	db, addr := startServerOpts(t, server.Options{CacheSize: 4, IdleTimeout: 150 * time.Millisecond})
	if _, err := db.Exec("CREATE TABLE t (id INT); INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)
	for i := 0; i < 2; i++ {
		res, err := c.Query("SELECT * FROM t")
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("query %d: %v", i, res.Rows)
		}
	}
}

// TestWriteTimeoutDropsStuckPeer: a peer that stops reading mid-stream
// eventually blocks the server's socket writes; the write deadline must
// convert that into a dropped connection instead of a handler goroutine
// parked forever on a dead peer.
func TestWriteTimeoutDropsStuckPeer(t *testing.T) {
	db, addr := startServerOpts(t, server.Options{CacheSize: 4, WriteTimeout: 250 * time.Millisecond})
	var sb strings.Builder
	sb.WriteString("CREATE TABLE t (id INT, pad VARCHAR); INSERT INTO t VALUES ")
	pad := strings.Repeat("p", 256)
	for i := 0; i < 500; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(1, '" + pad + "')")
	}
	if _, err := db.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}

	// Raw wire connection so we control (and stop) the reading.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var hello wire.Buffer
	hello.U16(wire.Version)
	hello.String("stuck-peer-test")
	if err := wire.WriteFrame(nc, wire.MsgHello, hello.B); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(nc); err != nil || typ != wire.MsgHelloOK {
		t.Fatalf("handshake: %#x, %v", typ, err)
	}

	// A cross join streams ~64MB — far beyond socket buffering — and we
	// read none of it. The server's writes must time out.
	var q wire.Buffer
	q.String("SELECT a.pad FROM t a, t b")
	q.Values(nil)
	if err := wire.WriteFrame(nc, wire.MsgQuery, q.B); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1 * time.Second) // let the buffers fill and the deadline fire

	// Drain what was buffered: the stream must end in a read error (the
	// server hung up), never a clean Done.
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		typ, _, err := wire.ReadFrame(nc)
		if err != nil {
			return // connection dropped, as required
		}
		if typ == wire.MsgDone {
			t.Fatal("stream completed; the write deadline never fired")
		}
	}
}

// TestExplainOverWire round-trips the three explain modes through the
// server and checks the error path keeps the connection usable.
func TestExplainOverWire(t *testing.T) {
	db, _, addr := startServer(t, 4)
	if _, err := db.Exec(`CREATE TABLE trips (id INT, price INT);
		INSERT INTO trips VALUES (1, 900), (2, 750)`); err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)

	script, err := c.Explain(client.ExplainRewrite, "SELECT * FROM trips PREFERRING LOWEST(price)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(script, "NOT EXISTS") {
		t.Fatalf("rewrite script:\n%s", script)
	}
	plan, err := c.Explain(client.ExplainPlan, "SELECT * FROM trips PREFERRING LOWEST(price)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "BMO") {
		t.Fatalf("plan:\n%s", plan)
	}
	analyzed, err := c.Explain(client.ExplainAnalyze, "SELECT * FROM trips PREFERRING LOWEST(price)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(analyzed, "rows=") {
		t.Fatalf("analyze:\n%s", analyzed)
	}

	if _, err := c.Explain(client.ExplainPlan, "SELECT * FROM missing"); err == nil {
		t.Fatal("want error for missing table")
	}
	if _, err := c.Query("SELECT id FROM trips"); err != nil {
		t.Fatalf("connection unusable after explain error: %v", err)
	}
}

// TestIdleTimeoutSparesSplitFrame: a frame that arrives in pieces across
// idle deadlines while a statement is in flight is read whole. A live
// subscription's Unsubscribe frame is written as its first four bytes
// and, after several idle periods, the rest; the server must answer it
// with the subscription's Done frame instead of losing the bytes it had
// read.
func TestIdleTimeoutSparesSplitFrame(t *testing.T) {
	db, addr := startServerOpts(t, server.Options{CacheSize: 4, IdleTimeout: 150 * time.Millisecond})
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	expect := func(want byte) []byte {
		t.Helper()
		typ, payload, err := wire.ReadFrame(nc)
		if err != nil || typ != want {
			t.Fatalf("read %#x (err %v), want %#x", typ, err, want)
		}
		return payload
	}
	var hello wire.Buffer
	hello.U16(wire.Version)
	hello.String("split-frame-test")
	if err := wire.WriteFrame(nc, wire.MsgHello, hello.B); err != nil {
		t.Fatal(err)
	}
	expect(wire.MsgHelloOK)
	var sub wire.Buffer
	sub.U32(16)
	sub.String("SELECT * FROM t")
	sub.Values(nil)
	if err := wire.WriteFrame(nc, wire.MsgSubscribe, sub.B); err != nil {
		t.Fatal(err)
	}
	id := wire.NewReader(expect(wire.MsgSubscribed)).U32()
	expect(wire.MsgDone) // the empty initial result

	var unsub wire.Buffer
	unsub.U32(id)
	var frame bytes.Buffer
	if err := wire.WriteFrame(&frame, wire.MsgUnsubscribe, unsub.B); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(frame.Bytes()[:4]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	if _, err := nc.Write(frame.Bytes()[4:]); err != nil {
		t.Fatal(err)
	}
	expect(wire.MsgDone)
}
